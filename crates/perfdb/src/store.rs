//! The append-only JSONL store: one log per [`Record`] kind
//! (`<dir>/runs.jsonl`, `sweeps.jsonl`, `serves.jsonl`), one record per
//! line, all through one append/load path.
//!
//! Append-only is deliberate: a perf history is an audit trail, and the
//! cheapest way to never corrupt history is to never rewrite it (the one
//! exception, [`Store::gc`], rewrites atomically via a temp file).
//! Records append as single lines, so a crashed writer can at worst leave
//! one truncated trailing line — which [`Store::load_lossy`] skips while
//! counting it.

use crate::compare::min_of_k_baseline;
use crate::schema::{RecordMeta, RunRecord, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default store directory, relative to the invocation directory.
pub const DEFAULT_DIR: &str = "perfdb";

/// A schema-versioned record kind with its own JSONL log in the store
/// directory: suite runs, scaling sweeps and serving runs are different
/// shapes (single points, grids, SLO curves), so each kind keeps its own
/// file and the run comparator only ever sees runs — but they all append,
/// load and version-check through the one path below.
pub trait Record: Serialize + Deserialize {
    /// File name of this kind's log inside the store directory.
    const FILE: &'static str;

    /// The record's unique id.
    fn id(&self) -> &str;

    /// The schema version the record was written with.
    fn schema_version(&self) -> u32;

    /// Serializes the record as one compact JSON line.
    fn to_jsonl_line(&self) -> String {
        serde_json::to_string(self).expect("records are serializable")
    }

    /// Parses one JSONL line, checking the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a foreign schema version.
    fn from_jsonl_line(line: &str) -> Result<Self, String> {
        let rec: Self = serde_json::from_str(line).map_err(|e| e.to_string())?;
        if rec.schema_version() != SCHEMA_VERSION {
            return Err(format!(
                "record {} has schema v{}, this build reads v{}",
                rec.id(),
                rec.schema_version(),
                SCHEMA_VERSION
            ));
        }
        Ok(rec)
    }
}

/// `(line number, parse error)` for one unparseable log line.
type MalformedLine = (usize, String);

/// Parses a JSONL log, oldest record first: every line that is not blank
/// is either a record or a [`MalformedLine`] (bad UTF-8, bad JSON, wrong
/// shape, foreign schema version). Total over arbitrary bytes.
fn parse_log<R: Record>(bytes: &[u8]) -> (Vec<R>, Vec<MalformedLine>) {
    let mut records = Vec::new();
    let mut bad = Vec::new();
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(R::from_jsonl_line);
        match parsed {
            Ok(r) => records.push(r),
            Err(e) => bad.push((i + 1, e)),
        }
    }
    (records, bad)
}

/// Handle to one store directory.
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (without creating) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the JSONL log holding records of kind `R`.
    pub fn path<R: Record>(&self) -> PathBuf {
        self.dir.join(R::FILE)
    }

    /// Appends one record to its kind's log (creating the directory and
    /// log on first use).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn append<R: Record>(&self, record: &R) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.path::<R>();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", record.to_jsonl_line())
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))
    }

    /// Loads every run record, oldest first. A missing log is an empty
    /// store.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line (use
    /// [`load_lossy`](Store::load_lossy) to skip instead).
    pub fn load(&self) -> Result<Vec<RunRecord>, String> {
        let (records, bad) = self.read_log()?;
        if let Some((line_no, err)) = bad.first() {
            return Err(format!(
                "{}:{line_no}: malformed record: {err}",
                self.path::<RunRecord>().display()
            ));
        }
        Ok(records)
    }

    /// Loads every parseable record of kind `R`, oldest first, returning
    /// the number of malformed lines skipped (0 for a healthy store; a
    /// missing log is an empty store).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure only.
    pub fn load_lossy<R: Record>(&self) -> Result<(Vec<R>, usize), String> {
        let (records, bad) = self.read_log()?;
        Ok((records, bad.len()))
    }

    fn read_log<R: Record>(&self) -> Result<(Vec<R>, Vec<MalformedLine>), String> {
        let path = self.path::<R>();
        match std::fs::read(&path) {
            Ok(bytes) => Ok(parse_log(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((Vec::new(), Vec::new())),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// The most recent run record, if any.
    ///
    /// # Errors
    ///
    /// Propagates [`load`](Store::load) errors.
    pub fn latest(&self) -> Result<Option<RunRecord>, String> {
        Ok(self.load()?.pop())
    }

    /// Resolves a baseline reference against the store:
    ///
    /// - `latest` — the most recent record;
    /// - `latest~N` — the Nth record before the most recent;
    /// - anything else — a record id, or an unambiguous id prefix.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty store, an out-of-range `latest~N`,
    /// an unknown id, or an ambiguous prefix.
    pub fn resolve(&self, reference: &str) -> Result<RunRecord, String> {
        let records = self.load()?;
        if records.is_empty() {
            return Err(format!(
                "store {} is empty; run `reproduce --record` (or `perfdb record`) first",
                self.dir.display()
            ));
        }
        if let Some(back) = parse_latest_ref(reference) {
            let idx = records.len().checked_sub(1 + back).ok_or_else(|| {
                format!(
                    "`{reference}`: store only holds {} record(s)",
                    records.len()
                )
            })?;
            return Ok(records[idx].clone());
        }
        let matches: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.id == reference || r.id.starts_with(reference))
            .collect();
        match matches.len() {
            0 => Err(format!("no record matches `{reference}`")),
            1 => Ok(matches[0].clone()),
            n => Err(format!("`{reference}` is ambiguous ({n} records match)")),
        }
    }

    /// Builds the min-of-k-medians baseline over the `k` most recent
    /// records ending at (and including) the record `reference` resolves
    /// to. With `k == 1` this is just the resolved record.
    ///
    /// # Errors
    ///
    /// Propagates [`resolve`](Store::resolve) errors.
    pub fn baseline(&self, reference: &str, k: usize) -> Result<RunRecord, String> {
        let anchor = self.resolve(reference)?;
        if k <= 1 {
            return Ok(anchor);
        }
        let records = self.load()?;
        let end = records
            .iter()
            .position(|r| r.id == anchor.id)
            .expect("resolved record comes from the store");
        let start = (end + 1).saturating_sub(k);
        Ok(min_of_k_baseline(&records[start..=end]).expect("window holds the anchor"))
    }

    /// Drops all but the most recent `keep` records, rewriting the log
    /// atomically. Returns how many records were removed.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or a malformed store.
    pub fn gc(&self, keep: usize) -> Result<usize, String> {
        let records = self.load()?;
        if records.len() <= keep {
            return Ok(0);
        }
        let removed = records.len() - keep;
        let kept = &records[removed..];
        let mut text = String::new();
        for r in kept {
            text.push_str(&r.to_jsonl_line());
            text.push('\n');
        }
        let path = self.path::<RunRecord>();
        let tmp = self.dir.join(format!("{}.tmp", RunRecord::FILE));
        std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot replace {}: {e}", path.display()))?;
        Ok(removed)
    }
}

/// Parses `latest` / `latest~N` into the number of records to step back.
fn parse_latest_ref(reference: &str) -> Option<usize> {
    if reference == "latest" {
        return Some(0);
    }
    reference
        .strip_prefix("latest~")
        .and_then(|n| n.parse().ok())
}

/// Resolves a baseline/candidate reference the way every CLI entry point
/// (`perfdb`, `reproduce --baseline`) does: a filesystem path wins (store
/// JSONL or raw suite report via [`record_from_path`]), otherwise the
/// reference is resolved against the store (`latest`, `latest~N`, id
/// prefix) with min-of-k-medians applied when `window > 1`.
///
/// # Errors
///
/// Propagates the underlying path/store resolution errors.
pub fn resolve_reference(
    store: &Store,
    reference: &str,
    window: usize,
) -> Result<RunRecord, String> {
    let path = Path::new(reference);
    if path.is_file() {
        record_from_path(path)
    } else {
        store.baseline(reference, window)
    }
}

/// Loads a baseline record from a filesystem path: either a store-format
/// JSONL file (its most recent record wins) or a single `suite_report.json`
/// (ingested with a synthetic, path-derived id).
///
/// # Errors
///
/// Returns a message when the file reads or parses in neither format.
pub fn record_from_path(path: &Path) -> Result<RunRecord, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // Store format first: every non-empty line a record.
    let (mut records, bad) = parse_log::<RunRecord>(&bytes);
    if bad.is_empty() {
        if let Some(r) = records.pop() {
            return Ok(r);
        }
    }
    // Fall back to a raw suite report.
    let meta = RecordMeta::synthetic(&format!("file:{}", path.display()), "unknown");
    std::str::from_utf8(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|text| RunRecord::from_suite_json(text, &meta))
        .map_err(|suite_err| {
            format!(
                "{} is neither a perfdb JSONL store ({}) nor a suite report ({suite_err})",
                path.display(),
                bad.first().map_or("empty file", |(_, e)| e),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CellRecord, MachineFingerprint, Sample};
    use crate::serve::ServeRecord;
    use crate::sweep::SweepRecord;

    fn record(id: &str, ts: u64, median: f64) -> RunRecord {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: ts,
            git_commit: "unknown".into(),
            machine: MachineFingerprint::synthetic("scalar"),
            size: "test".into(),
            seed: 1,
            threads: 1,
            isa: String::new(),
            excluded: Vec::new(),
            cells: vec![CellRecord {
                kernel: "k".into(),
                variant: "ninja".into(),
                outcome: "ok".into(),
                sample: Some(Sample {
                    median_s: median,
                    mean_s: median,
                    stddev_s: 0.0,
                    min_s: median * 0.98,
                    max_s: median * 1.02,
                    runs: 3,
                }),
                attribution: None,
                counters: None,
            }],
            vec_profiles: Vec::new(),
        }
    }

    fn temp_store(name: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("perfdb-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir)
    }

    #[test]
    fn empty_store_loads_empty_and_resolve_explains() {
        let s = temp_store("empty");
        assert_eq!(s.load().unwrap(), Vec::new());
        assert!(s.latest().unwrap().is_none());
        let err = s.resolve("latest").unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn append_load_resolve_roundtrip() {
        let s = temp_store("roundtrip");
        for (i, m) in [1.0, 1.1, 0.9].iter().enumerate() {
            s.append(&record(&format!("run-{i}"), i as u64, *m))
                .unwrap();
        }
        let all = s.load().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(s.latest().unwrap().unwrap().id, "run-2");
        assert_eq!(s.resolve("latest").unwrap().id, "run-2");
        assert_eq!(s.resolve("latest~1").unwrap().id, "run-1");
        assert_eq!(s.resolve("latest~2").unwrap().id, "run-0");
        assert!(s.resolve("latest~3").unwrap_err().contains("3 record(s)"));
        assert_eq!(s.resolve("run-1").unwrap().id, "run-1");
        assert!(s.resolve("run-").unwrap_err().contains("ambiguous"));
        assert!(s.resolve("nope").unwrap_err().contains("no record"));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn lossy_load_skips_corrupt_lines_strict_load_names_them() {
        let s = temp_store("corrupt");
        s.append(&record("run-a", 0, 1.0)).unwrap();
        let good = record("run-b", 1, 1.0).to_jsonl_line();
        let cell_end = "\"runs\":3}}";
        assert!(good.contains(cell_end) && good.ends_with("]}"), "{good}");
        let cell_with = |field: &str| good.replace(cell_end, &format!("\"runs\":3}},{field}}}"));
        let bad_lines = [
            // Tolerant means absent, not malformed: a present optional
            // field of the wrong type is a bad line, not a default.
            cell_with("\"counters\":\"garbage\"").into_bytes(),
            cell_with("\"attribution\":7").into_bytes(),
            good.replace("]}", "],\"vec_profiles\":\"x\"}").into_bytes(),
            // Valid JSON, but not an object where a record is expected.
            b"\"run-b\"".to_vec(),
            b"[1,2]".to_vec(),
            // Nested past any stack: a parse error, not a process abort.
            vec![b'['; 200_000],
            // Not even UTF-8.
            b"\xff\xfe{}".to_vec(),
        ];
        let mut bytes = std::fs::read(s.path::<RunRecord>()).unwrap();
        for line in &bad_lines {
            bytes.extend_from_slice(line);
            bytes.extend_from_slice(b"\r\n");
        }
        bytes.extend_from_slice(b" \t\n\n");
        bytes.extend_from_slice((good + "\n").as_bytes());
        // Simulate a crashed writer: truncated trailing line.
        bytes.extend_from_slice(b"{\"schema_version\":1,\"id\":\"run-tr");
        std::fs::write(s.path::<RunRecord>(), bytes).unwrap();

        let (records, skipped) = s.load_lossy::<RunRecord>().unwrap();
        assert_eq!(
            records.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["run-a", "run-b"],
            "the loader keeps going after every kind of bad line"
        );
        assert_eq!(skipped, bad_lines.len() + 1);
        let err = s.load().unwrap_err();
        assert!(
            err.contains(":2:") && err.contains("expected object"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn gc_keeps_the_most_recent_records() {
        let s = temp_store("gc");
        for i in 0..5 {
            s.append(&record(&format!("run-{i}"), i, 1.0)).unwrap();
        }
        assert_eq!(s.gc(2).unwrap(), 3);
        let left = s.load().unwrap();
        assert_eq!(
            left.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["run-3", "run-4"]
        );
        assert_eq!(s.gc(10).unwrap(), 0);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn windowed_baseline_takes_min_of_medians() {
        let s = temp_store("window");
        s.append(&record("run-0", 0, 0.9)).unwrap();
        s.append(&record("run-1", 1, 1.2)).unwrap();
        s.append(&record("run-2", 2, 1.0)).unwrap();
        let b = s.baseline("latest", 3).unwrap();
        assert!(b.id.starts_with("min-of-3"));
        assert!((b.median_s("k", "ninja").unwrap() - 0.9).abs() < 1e-12);
        // k=1 degenerates to plain resolve.
        assert_eq!(s.baseline("latest", 1).unwrap().id, "run-2");
        // Window larger than the store clamps.
        assert!(s.baseline("latest~2", 5).unwrap().id.starts_with("run-0"));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    /// Appends two records to their kind's log and checks they load back
    /// in order, and that a truncated trailing line is skipped, not fatal.
    fn append_two_and_truncate<R: Record + PartialEq + std::fmt::Debug>(
        s: &Store,
        first: R,
        second: R,
    ) {
        s.append(&first).unwrap();
        s.append(&second).unwrap();
        let (loaded, skipped) = s.load_lossy::<R>().unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded, [first, second]);
        let mut text = std::fs::read_to_string(s.path::<R>()).unwrap();
        text.push_str("{\"schema_version\":1,\"id\":\"tr");
        std::fs::write(s.path::<R>(), text).unwrap();
        let (loaded, skipped) = s.load_lossy::<R>().unwrap();
        assert_eq!((loaded.len(), skipped), (2, 1));
    }

    #[test]
    fn each_record_kind_appends_and_loads_from_its_own_log() {
        let s = temp_store("kinds");
        let sweep = |id: &str| SweepRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: 0,
            git_commit: "unknown".into(),
            machine: MachineFingerprint::synthetic("scalar"),
            seed: 1,
            reps: 1,
            sizes: vec!["test".into()],
            threads: vec![1, 2],
            knee_threshold: 0.5,
            excluded: Vec::new(),
            cells: Vec::new(),
            fits: Vec::new(),
        };
        let serve = |id: &str| ServeRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: 0,
            git_commit: "unknown".into(),
            machine: MachineFingerprint::synthetic("scalar"),
            kernel: "blackscholes".into(),
            threads: 4,
            chaos_seed: None,
            chaos_rate: None,
            deadline_us: 50_000,
            points: Vec::new(),
        };
        append_two_and_truncate(&s, sweep("sweep-0"), sweep("sweep-1"));
        // Sweeps leak into neither the run log nor the serve log.
        assert_eq!(s.load().unwrap(), Vec::new());
        assert_eq!(s.load_lossy::<ServeRecord>().unwrap().0, Vec::new());
        append_two_and_truncate(&s, serve("serve-0"), serve("serve-1"));
        assert_eq!(s.load().unwrap(), Vec::new());
        append_two_and_truncate(&s, record("run-0", 0, 1.0), record("run-1", 1, 1.0));
        // ...and the other two logs are untouched by later appends.
        for (path, file) in [
            (s.path::<RunRecord>(), "runs.jsonl"),
            (s.path::<SweepRecord>(), "sweeps.jsonl"),
            (s.path::<ServeRecord>(), "serves.jsonl"),
        ] {
            assert_eq!(path, s.dir().join(file));
        }
        assert_eq!(s.load_lossy::<SweepRecord>().unwrap().0.len(), 2);
        assert_eq!(s.load_lossy::<ServeRecord>().unwrap().0.len(), 2);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn record_from_path_reads_both_formats() {
        let s = temp_store("paths");
        s.append(&record("run-x", 0, 1.0)).unwrap();
        s.append(&record("run-y", 1, 2.0)).unwrap();
        let r = record_from_path(&s.path::<RunRecord>()).unwrap();
        assert_eq!(r.id, "run-y", "most recent record of a JSONL file wins");

        let suite = s.dir().join("suite.json");
        std::fs::write(
            &suite,
            r#"{"size":"test","seed":1,"threads":1,"simd_backend":"scalar","kernels":[]}"#,
        )
        .unwrap();
        let r = record_from_path(&suite).unwrap();
        assert!(r.id.starts_with("file:"), "{}", r.id);

        let garbage = s.dir().join("garbage.txt");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(record_from_path(&garbage).is_err());
        let _ = std::fs::remove_dir_all(s.dir());
    }
}
