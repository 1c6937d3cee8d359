//! Serve records: SLO-curve results from `ninja-serve` on the
//! persistent wire.
//!
//! A [`ServeRecord`] is the stored form of one serving-layer load run
//! (the `serve_report.json` that `reproduce serve` writes): one SLO
//! point per offered rate — delivered p50/p99 latency plus the
//! shed/expired/degraded outcome counts — under an optional seeded
//! chaos schedule. Records append to `serves.jsonl` next to
//! `runs.jsonl` and `sweeps.jsonl`, so `perfdb trend` can show how
//! tail latency and degradation behaviour drift across commits.
//!
//! Like [`SweepRecord`](crate::SweepRecord), ingestion parses the
//! report JSON through a tolerant mirror (extra fields ignored) so
//! this crate stays a std + serde-stand-in leaf.

use crate::schema::{
    fnv1a64, fnv1a64_continue, kernel_is_excluded, MachineFingerprint, RecordMeta, SCHEMA_VERSION,
};
use crate::store::Record;
use serde::{Deserialize, Serialize};

/// One stored SLO point: a fixed offered load and the delivered
/// latency/outcome distribution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServePointRecord {
    /// Offered arrival rate, requests per second.
    pub offered_rps: f64,
    /// Requests submitted at this rate.
    pub sent: u64,
    /// Requests resolved `Ok` (validated).
    pub ok: u64,
    /// Requests shed at admission (backpressure).
    pub rejected: u64,
    /// Requests that ran out of deadline.
    pub expired: u64,
    /// `Ok` responses whose value disagreed with the client-side
    /// expectation (0 in any healthy run — validation guarantees it).
    pub incorrect: u64,
    /// `Ok` responses served below the ninja rung.
    pub degraded: u64,
    /// Median end-to-end latency of `Ok` responses in microseconds
    /// (`None` when no request resolved `Ok`).
    pub p50_us: Option<f64>,
    /// 99th-percentile end-to-end latency of `Ok` responses.
    pub p99_us: Option<f64>,
    /// Breaker trips observed engine-wide by the end of the point.
    pub trips: u64,
    /// Breaker recoveries observed engine-wide by the end of the point.
    pub recoveries: u64,
}

/// One stored serving-layer load run (one JSONL line in
/// `serves.jsonl`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Unique record id (content-derived unless supplied).
    pub id: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Where the run ran.
    pub machine: MachineFingerprint,
    /// Served kernel name.
    pub kernel: String,
    /// Worker threads in the serving pool.
    pub threads: usize,
    /// Chaos schedule seed, when fault injection was active.
    pub chaos_seed: Option<u64>,
    /// Chaos per-attempt fault rate, when fault injection was active.
    pub chaos_rate: Option<f64>,
    /// Request deadline in microseconds.
    pub deadline_us: u64,
    /// One point per offered rate, sweep order.
    pub points: Vec<ServePointRecord>,
}

// ---- serve_report.json wire mirror -------------------------------------

#[derive(Deserialize)]
struct ServeWire {
    kernel: String,
    threads: usize,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    deadline_us: u64,
    points: Vec<ServePointRecord>,
}

impl ServeRecord {
    /// Builds a record from a serialized `ServeReport` (the
    /// `serve_report.json` that `reproduce serve` writes).
    ///
    /// Non-finite percentile values are stored as `None` (an SLO point
    /// where nothing resolved `Ok` has no percentile).
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON does not parse as a serve
    /// report, or when the report serves an excluded `chaos-*` kernel.
    pub fn from_serve_json(json: &str, meta: &RecordMeta) -> Result<Self, String> {
        let serve: ServeWire =
            serde_json::from_str(json).map_err(|e| format!("not a serve report: {e}"))?;
        if kernel_is_excluded(&serve.kernel) {
            return Err(format!(
                "refusing to record fault-injection kernel `{}`",
                serve.kernel
            ));
        }
        let mut points = serve.points;
        for p in &mut points {
            p.p50_us = p.p50_us.filter(|x| x.is_finite());
            p.p99_us = p.p99_us.filter(|x| x.is_finite());
        }
        let mut record = ServeRecord {
            schema_version: SCHEMA_VERSION,
            id: String::new(),
            timestamp_unix_s: meta.timestamp_unix_s,
            git_commit: meta.git_commit.clone(),
            machine: meta.machine.clone(),
            kernel: serve.kernel,
            threads: serve.threads,
            chaos_seed: serve.chaos_seed,
            chaos_rate: serve.chaos_rate,
            deadline_us: serve.deadline_us,
            points,
        };
        record.id = match &meta.id {
            Some(id) => id.clone(),
            None => record.derive_id(),
        };
        Ok(record)
    }

    /// Content-derived id: `serve-<fnv64 of the identifying fields>`.
    pub fn derive_id(&self) -> String {
        let mut h = fnv1a64(b"ninja-perfdb-serve");
        for part in [
            self.git_commit.as_str(),
            self.machine.hostname.as_str(),
            self.kernel.as_str(),
        ] {
            h = fnv1a64_continue(h, part.as_bytes());
        }
        h = fnv1a64_continue(h, &self.timestamp_unix_s.to_le_bytes());
        h = fnv1a64_continue(h, &(self.threads as u64).to_le_bytes());
        h = fnv1a64_continue(h, &(self.points.len() as u64).to_le_bytes());
        format!("serve-{h:016x}")
    }

    /// The point measured at `offered_rps` (exact match).
    pub fn point(&self, offered_rps: f64) -> Option<&ServePointRecord> {
        self.points.iter().find(|p| p.offered_rps == offered_rps)
    }

    /// Total requests shed or expired across the whole curve.
    pub fn total_shed_or_expired(&self) -> u64 {
        self.points.iter().map(|p| p.rejected + p.expired).sum()
    }
}

impl Record for ServeRecord {
    const FILE: &'static str = "serves.jsonl";

    fn id(&self) -> &str {
        &self.id
    }

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_json() -> String {
        r#"{
          "kernel": "blackscholes",
          "threads": 4,
          "chaos_seed": 2012,
          "chaos_rate": 0.15,
          "deadline_us": 50000,
          "points": [
            {"offered_rps": 1000.0, "sent": 500, "ok": 480, "rejected": 12,
             "expired": 8, "unresolved": 0, "incorrect": 0, "degraded": 40,
             "p50_us": 800.0, "p99_us": 9500.0, "trips": 3, "recoveries": 3},
            {"offered_rps": 5000.0, "sent": 500, "ok": 0, "rejected": 500,
             "expired": 0, "unresolved": 0, "incorrect": 0, "degraded": 0,
             "p50_us": null, "p99_us": null, "trips": 3, "recoveries": 3}
          ]
        }"#
        .to_owned()
    }

    #[test]
    fn ingests_serve_report() {
        let meta = RecordMeta::synthetic("serve-test", "scalar");
        let rec = ServeRecord::from_serve_json(&serve_json(), &meta).unwrap();
        assert_eq!(rec.id, "serve-test");
        assert_eq!(rec.kernel, "blackscholes");
        assert_eq!(rec.threads, 4);
        assert_eq!(rec.chaos_seed, Some(2012));
        assert_eq!(rec.deadline_us, 50_000);
        assert_eq!(rec.points.len(), 2);
        let p = rec.point(1000.0).unwrap();
        assert_eq!((p.ok, p.rejected, p.expired, p.degraded), (480, 12, 8, 40));
        assert_eq!(p.p99_us, Some(9500.0));
        // A point where nothing resolved Ok has no percentiles.
        let saturated = rec.point(5000.0).unwrap();
        assert_eq!(saturated.p50_us, None);
        assert_eq!(rec.total_shed_or_expired(), 520);
    }

    #[test]
    fn chaos_kernel_reports_are_refused() {
        let meta = RecordMeta::synthetic("x", "scalar");
        let json = serve_json().replace("blackscholes", "chaos-panic");
        let err = ServeRecord::from_serve_json(&json, &meta).unwrap_err();
        assert!(err.contains("fault-injection"), "{err}");
    }

    #[test]
    fn derived_id_is_content_based() {
        let meta = RecordMeta::synthetic("x", "scalar");
        let mut rec = ServeRecord::from_serve_json(&serve_json(), &meta).unwrap();
        rec.id = rec.derive_id();
        assert!(rec.id.starts_with("serve-"), "{}", rec.id);
        let again = rec.derive_id();
        assert_eq!(rec.id, again, "derivation is deterministic");
        rec.kernel = "libor".into();
        assert_ne!(rec.derive_id(), again);
    }

    #[test]
    fn jsonl_roundtrip_preserves_record() {
        let meta = RecordMeta::synthetic("serve-rt", "scalar");
        let rec = ServeRecord::from_serve_json(&serve_json(), &meta).unwrap();
        let line = rec.to_jsonl_line();
        assert!(!line.contains('\n'));
        let back = ServeRecord::from_jsonl_line(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn foreign_schema_version_is_rejected() {
        let meta = RecordMeta::synthetic("serve-v", "scalar");
        let mut rec = ServeRecord::from_serve_json(&serve_json(), &meta).unwrap();
        rec.schema_version = SCHEMA_VERSION + 1;
        let err = ServeRecord::from_jsonl_line(&rec.to_jsonl_line()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn non_serve_json_is_rejected() {
        let meta = RecordMeta::synthetic("x", "scalar");
        assert!(ServeRecord::from_serve_json("{}", &meta).is_err());
        assert!(ServeRecord::from_serve_json("not json", &meta).is_err());
    }
}
