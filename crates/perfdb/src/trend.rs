//! Trend reporting: the per-kernel gap/residual trajectory over recorded
//! runs, and the aggregated `BENCH_history.json` artifact.
//!
//! The paper's headline claim is longitudinal — the Ninja gap *grows*
//! across processor generations unless the code keeps up — so the repo
//! needs its own longitudinal axis: every recorded run contributes one
//! point of measured gap (`naive/ninja`) and residual
//! (`algorithmic/ninja`) per kernel, and the history report strings those
//! points into a trajectory that future perf PRs are judged against.

use crate::schema::RunRecord;
use crate::serve::ServeRecord;
use crate::sweep::SweepRecord;
use serde::{Deserialize, Serialize};

/// One run's contribution to a kernel's trajectory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrendPoint {
    /// Record id the point comes from.
    pub run_id: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Median seconds of the `ninja` variant (`None` when it failed).
    pub ninja_median_s: Option<f64>,
    /// Measured Ninja gap `naive/ninja` (`None` when either failed).
    pub gap: Option<f64>,
    /// Measured residual `algorithmic/ninja`.
    pub residual: Option<f64>,
    /// Vector width (bits) of the ninja rung's recorded codegen evidence;
    /// `None` when the run carried no asm profile for this kernel. Lets a
    /// trajectory show *when* a rung's vectorization changed, not just
    /// when its timing did.
    #[serde(default)]
    pub ninja_vec_width_bits: Option<u32>,
    /// Measured instructions-per-cycle of the ninja rung, from the run's
    /// hardware counters; `None` when the run carried none (counters off,
    /// PMU unavailable, or a pre-counter record). IPC drift localizes a
    /// regression the timing column can only date: a slower run at flat
    /// IPC grew work, a slower run at fallen IPC grew stalls.
    #[serde(default)]
    pub ninja_ipc: Option<f64>,
}

/// One kernel's trajectory, oldest run first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelHistory {
    /// Kernel name.
    pub kernel: String,
    /// Points in store order.
    pub points: Vec<TrendPoint>,
}

/// The aggregated trajectory artifact (`BENCH_history.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// Schema version (shared with run records).
    pub schema_version: u32,
    /// Number of records the history was built from.
    pub runs: usize,
    /// Per-kernel trajectories, first-seen order.
    pub kernels: Vec<KernelHistory>,
}

impl History {
    /// Builds the history from records, oldest first (store order).
    pub fn from_records(records: &[RunRecord]) -> Self {
        let mut kernels: Vec<KernelHistory> = Vec::new();
        for rec in records {
            for name in rec.kernels() {
                if !kernels.iter().any(|k| k.kernel == name) {
                    kernels.push(KernelHistory {
                        kernel: name.to_owned(),
                        points: Vec::new(),
                    });
                }
            }
        }
        for k in kernels.iter_mut() {
            for rec in records {
                if rec.kernels().contains(&k.kernel.as_str()) {
                    k.points.push(trend_point(rec, &k.kernel));
                }
            }
        }
        History {
            schema_version: crate::schema::SCHEMA_VERSION,
            runs: records.len(),
            kernels,
        }
    }

    /// One kernel's trajectory, if recorded.
    pub fn kernel(&self, name: &str) -> Option<&KernelHistory> {
        self.kernels.iter().find(|k| k.kernel == name)
    }

    /// Serializes the artifact as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("histories are serializable")
    }
}

/// Extracts one kernel's point from one record.
fn trend_point(rec: &RunRecord, kernel: &str) -> TrendPoint {
    TrendPoint {
        run_id: rec.id.clone(),
        timestamp_unix_s: rec.timestamp_unix_s,
        git_commit: rec.git_commit.clone(),
        ninja_median_s: rec.median_s(kernel, "ninja"),
        gap: rec.measured_gap(kernel),
        residual: rec.measured_residual(kernel),
        ninja_vec_width_bits: rec.vec_profile(kernel, "ninja").map(|p| p.width_bits),
        ninja_ipc: rec
            .cell(kernel, "ninja")
            .and_then(|c| c.counters.as_ref())
            .and_then(|c| c.ipc),
    }
}

/// One kernel's trajectory straight from records (the `perfdb trend`
/// subcommand). Records that never measured the kernel are skipped.
pub fn kernel_trend(records: &[RunRecord], kernel: &str) -> Vec<TrendPoint> {
    records
        .iter()
        .filter(|r| r.kernels().contains(&kernel))
        .map(|r| trend_point(r, kernel))
        .collect()
}

/// Renders a kernel trajectory as an aligned text table.
pub fn render_trend(kernel: &str, points: &[TrendPoint]) -> String {
    let mut out = format!(
        "trend for {kernel} ({} run(s))\n{:<22} {:<13} {:>12} {:>8} {:>9} {:>6}\n",
        points.len(),
        "run",
        "commit",
        "ninja s",
        "gap",
        "residual",
        "ipc"
    );
    for p in points {
        let fmt_opt = |v: Option<f64>, precision: usize| match v {
            Some(x) => format!("{x:.precision$}"),
            None => "-".to_owned(),
        };
        let ninja = match p.ninja_median_s {
            Some(x) => format!("{x:.4e}"),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<22} {:<13} {:>12} {:>8} {:>9} {:>6}\n",
            p.run_id,
            p.git_commit,
            ninja,
            fmt_opt(p.gap, 2),
            fmt_opt(p.residual, 2),
            fmt_opt(p.ninja_ipc, 2)
        ));
    }
    out
}

/// One sweep's contribution to a kernel's scaling trajectory: the
/// fitted parameters of one rung's curve at one size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepTrendPoint {
    /// Sweep record id the point comes from.
    pub run_id: String,
    /// Unix timestamp (seconds) of the sweep.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Variant rung name.
    pub variant: String,
    /// Problem-size preset name.
    pub size: String,
    /// Amdahl serial fraction of the curve.
    pub serial_fraction: f64,
    /// USL contention σ.
    pub contention: f64,
    /// USL coherency κ.
    pub coherency: f64,
    /// Fit quality (r² in speedup space).
    pub r_squared: f64,
    /// Detected scaling knee, `None` when the curve never flattened.
    pub knee_threads: Option<usize>,
}

/// One kernel's serial-fraction trajectory straight from sweep records
/// (the sweep section of `perfdb trend`): every fitted rung×size curve
/// of every sweep that measured the kernel, in store order.
pub fn sweep_trend(records: &[SweepRecord], kernel: &str) -> Vec<SweepTrendPoint> {
    let mut points = Vec::new();
    for rec in records {
        for f in rec.fits.iter().filter(|f| f.kernel == kernel) {
            points.push(SweepTrendPoint {
                run_id: rec.id.clone(),
                timestamp_unix_s: rec.timestamp_unix_s,
                git_commit: rec.git_commit.clone(),
                variant: f.variant.clone(),
                size: f.size.clone(),
                serial_fraction: f.serial_fraction,
                contention: f.contention,
                coherency: f.coherency,
                r_squared: f.r_squared,
                knee_threads: f.knee_threads,
            });
        }
    }
    points
}

/// Renders a kernel's serial-fraction drift as an aligned text table.
pub fn render_sweep_trend(kernel: &str, points: &[SweepTrendPoint]) -> String {
    let mut out = format!(
        "serial-fraction drift for {kernel} ({} fitted curve(s))\n\
         {:<24} {:<13} {:<12} {:<6} {:>7} {:>7} {:>8} {:>7} {:>5}\n",
        points.len(),
        "sweep",
        "commit",
        "rung",
        "size",
        "serial",
        "sigma",
        "kappa",
        "r2",
        "knee"
    );
    for p in points {
        out.push_str(&format!(
            "{:<24} {:<13} {:<12} {:<6} {:>7.3} {:>7.3} {:>8.4} {:>7.3} {:>5}\n",
            p.run_id,
            p.git_commit,
            p.variant,
            p.size,
            p.serial_fraction,
            p.contention,
            p.coherency,
            p.r_squared,
            p.knee_threads
                .map(|k| k.to_string())
                .unwrap_or_else(|| "-".to_owned())
        ));
    }
    out
}

/// One serve run's contribution to a kernel's SLO trajectory: the tail
/// latency and outcome mix measured at one offered rate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeTrendPoint {
    /// Serve record id the point comes from.
    pub run_id: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Offered arrival rate, requests per second.
    pub offered_rps: f64,
    /// Requests resolved `Ok` (validated).
    pub ok: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests that ran out of deadline.
    pub expired: u64,
    /// `Ok` responses served below the ninja rung.
    pub degraded: u64,
    /// Median end-to-end `Ok` latency in microseconds, when measured.
    pub p50_us: Option<f64>,
    /// 99th-percentile end-to-end `Ok` latency in microseconds.
    pub p99_us: Option<f64>,
    /// Breaker trips over the run.
    pub trips: u64,
    /// Chaos per-attempt fault rate, when injection was active.
    pub chaos_rate: Option<f64>,
}

/// One kernel's SLO trajectory straight from serve records (the serve
/// section of `perfdb trend`): every measured offered-rate point of
/// every serve run of the kernel, in store order.
pub fn serve_trend(records: &[ServeRecord], kernel: &str) -> Vec<ServeTrendPoint> {
    let mut points = Vec::new();
    for rec in records.iter().filter(|r| r.kernel == kernel) {
        for p in &rec.points {
            points.push(ServeTrendPoint {
                run_id: rec.id.clone(),
                timestamp_unix_s: rec.timestamp_unix_s,
                git_commit: rec.git_commit.clone(),
                offered_rps: p.offered_rps,
                ok: p.ok,
                rejected: p.rejected,
                expired: p.expired,
                degraded: p.degraded,
                p50_us: p.p50_us,
                p99_us: p.p99_us,
                trips: p.trips,
                chaos_rate: rec.chaos_rate,
            });
        }
    }
    points
}

/// Renders a kernel's serving-SLO drift as an aligned text table.
pub fn render_serve_trend(kernel: &str, points: &[ServeTrendPoint]) -> String {
    let mut out = format!(
        "serving SLO drift for {kernel} ({} measured point(s))\n\
         {:<24} {:<13} {:>10} {:>7} {:>6} {:>7} {:>6} {:>10} {:>10} {:>5} {:>6}\n",
        points.len(),
        "serve",
        "commit",
        "offered/s",
        "ok",
        "shed",
        "expired",
        "degr",
        "p50(us)",
        "p99(us)",
        "trips",
        "chaos"
    );
    for p in points {
        let fmt_us = |v: Option<f64>| match v {
            Some(x) => format!("{x:.0}"),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<24} {:<13} {:>10.0} {:>7} {:>6} {:>7} {:>6} {:>10} {:>10} {:>5} {:>6}\n",
            p.run_id,
            p.git_commit,
            p.offered_rps,
            p.ok,
            p.rejected,
            p.expired,
            p.degraded,
            fmt_us(p.p50_us),
            fmt_us(p.p99_us),
            p.trips,
            p.chaos_rate
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "off".to_owned())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CellRecord, MachineFingerprint, Sample, SCHEMA_VERSION};
    use crate::serve::ServePointRecord;
    use crate::sweep::SweepFitRecord;

    fn sample(median: f64) -> Option<Sample> {
        Some(Sample {
            median_s: median,
            mean_s: median,
            stddev_s: 0.0,
            min_s: median,
            max_s: median,
            runs: 3,
        })
    }

    fn record(id: &str, ts: u64, naive: f64, algo: f64, ninja: f64) -> RunRecord {
        let cell = |variant: &str, s: Option<Sample>| CellRecord {
            kernel: "nbody".into(),
            variant: variant.into(),
            outcome: if s.is_some() { "ok" } else { "panicked" }.into(),
            sample: s,
            attribution: None,
            counters: None,
        };
        RunRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: ts,
            git_commit: format!("c-{id}"),
            machine: MachineFingerprint::synthetic("scalar"),
            size: "test".into(),
            seed: 1,
            threads: 1,
            isa: String::new(),
            excluded: Vec::new(),
            cells: vec![
                cell("naive", sample(naive)),
                cell("algorithmic", sample(algo)),
                cell("ninja", sample(ninja)),
            ],
            vec_profiles: Vec::new(),
        }
    }

    #[test]
    fn history_tracks_gap_over_runs() {
        let records = vec![
            record("r0", 10, 8.0, 1.3, 1.0),
            record("r1", 20, 8.0, 1.3, 0.8),
        ];
        let h = History::from_records(&records);
        assert_eq!(h.runs, 2);
        let k = h.kernel("nbody").unwrap();
        assert_eq!(k.points.len(), 2);
        assert!((k.points[0].gap.unwrap() - 8.0).abs() < 1e-12);
        assert!((k.points[1].gap.unwrap() - 10.0).abs() < 1e-12, "gap grew");
        assert!((k.points[1].residual.unwrap() - 1.625).abs() < 1e-12);
        assert_eq!(k.points[1].git_commit, "c-r1");
        assert!(h.kernel("missing").is_none());
    }

    #[test]
    fn failed_ninja_yields_gapless_point() {
        let mut rec = record("r0", 10, 8.0, 1.3, 1.0);
        rec.cells[2].outcome = "timed_out".into();
        rec.cells[2].sample = None;
        let points = kernel_trend(&[rec], "nbody");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].gap, None);
        assert_eq!(points[0].ninja_median_s, None);
        let text = render_trend("nbody", &points);
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn trend_charts_ipc_drift_and_tolerates_counterless_records() {
        let mut newer = record("r1", 20, 8.0, 1.3, 0.9);
        newer.cells[2].counters = Some(crate::schema::CellCounters {
            ipc: Some(2.31),
            llc_miss_rate: Some(0.04),
            dram_gbs: None,
            measured_bound: Some("compute".into()),
            agreement: Some(true),
        });
        let records = vec![record("r0", 10, 8.0, 1.3, 1.0), newer];
        let points = kernel_trend(&records, "nbody");
        assert_eq!(points[0].ninja_ipc, None, "pre-counter record stays bare");
        assert_eq!(points[1].ninja_ipc, Some(2.31));
        let text = render_trend("nbody", &points);
        assert!(text.contains("ipc"), "{text}");
        assert!(text.contains("2.31"), "{text}");
        // A history point written before `ninja_ipc` existed still parses.
        let legacy = r#"{"run_id":"r0","timestamp_unix_s":10,"git_commit":"c",
            "ninja_median_s":1.0,"gap":8.0,"residual":1.3}"#;
        let p: TrendPoint = serde_json::from_str(legacy).unwrap();
        assert_eq!(p.ninja_ipc, None);
        assert_eq!(p.ninja_vec_width_bits, None);
    }

    #[test]
    fn history_json_roundtrips() {
        let h = History::from_records(&[record("r0", 10, 8.0, 1.3, 1.0)]);
        let back: History = serde_json::from_str(&h.to_json()).unwrap();
        assert_eq!(h, back);
    }

    fn sweep_record(id: &str, ts: u64, serial: f64) -> SweepRecord {
        SweepRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: ts,
            git_commit: format!("c-{id}"),
            machine: MachineFingerprint::synthetic("scalar"),
            seed: 1,
            reps: 1,
            sizes: vec!["test".into()],
            threads: vec![1, 2],
            knee_threshold: 0.5,
            excluded: Vec::new(),
            cells: Vec::new(),
            fits: vec![SweepFitRecord {
                kernel: "nbody".into(),
                variant: "parallel".into(),
                size: "test".into(),
                bound: "compute".into(),
                serial_fraction: serial,
                contention: serial,
                coherency: 0.0,
                r_squared: 1.0,
                knee_threads: None,
            }],
        }
    }

    #[test]
    fn sweep_trend_tracks_serial_fraction_across_records() {
        let records = vec![sweep_record("s0", 10, 0.05), sweep_record("s1", 20, 0.12)];
        let points = sweep_trend(&records, "nbody");
        assert_eq!(points.len(), 2);
        assert!((points[0].serial_fraction - 0.05).abs() < 1e-12);
        assert!((points[1].serial_fraction - 0.12).abs() < 1e-12, "drifted");
        assert_eq!(points[1].git_commit, "c-s1");
        assert!(sweep_trend(&records, "lbm").is_empty());
        let text = render_sweep_trend("nbody", &points);
        assert!(text.contains("serial-fraction drift"), "{text}");
        assert!(text.contains("0.120"), "{text}");
        assert!(text.contains('-'), "no-knee renders as dash: {text}");
    }

    fn serve_record(id: &str, ts: u64, p99: f64) -> ServeRecord {
        ServeRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: ts,
            git_commit: format!("c-{id}"),
            machine: MachineFingerprint::synthetic("scalar"),
            kernel: "blackscholes".into(),
            threads: 4,
            chaos_seed: Some(2012),
            chaos_rate: Some(0.15),
            deadline_us: 50_000,
            points: vec![ServePointRecord {
                offered_rps: 1000.0,
                sent: 500,
                ok: 480,
                rejected: 12,
                expired: 8,
                incorrect: 0,
                degraded: 40,
                p50_us: Some(800.0),
                p99_us: Some(p99),
                trips: 3,
                recoveries: 3,
            }],
        }
    }

    #[test]
    fn serve_trend_tracks_tail_latency_across_records() {
        let records = vec![
            serve_record("v0", 10, 9_500.0),
            serve_record("v1", 20, 14_000.0),
        ];
        let points = serve_trend(&records, "blackscholes");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].p99_us, Some(9_500.0));
        assert_eq!(points[1].p99_us, Some(14_000.0), "tail drifted");
        assert_eq!(points[1].git_commit, "c-v1");
        assert!(serve_trend(&records, "libor").is_empty());
        let text = render_serve_trend("blackscholes", &points);
        assert!(text.contains("serving SLO drift"), "{text}");
        assert!(text.contains("14000"), "{text}");
        assert!(text.contains("0.15"), "{text}");
    }

    #[test]
    fn trend_skips_records_without_the_kernel() {
        let mut other = record("r1", 20, 1.0, 1.0, 1.0);
        for c in other.cells.iter_mut() {
            c.kernel = "conv1d".into();
        }
        let records = vec![record("r0", 10, 8.0, 1.3, 1.0), other];
        assert_eq!(kernel_trend(&records, "nbody").len(), 1);
        assert_eq!(kernel_trend(&records, "conv1d").len(), 1);
        assert!(kernel_trend(&records, "lbm").is_empty());
    }
}
