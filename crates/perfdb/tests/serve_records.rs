//! Serve-record wire tests: the checked-in `tests/fixtures/serves.jsonl`
//! fixture with its generator-sync test (same pattern as the sweep
//! fixture in `sweep_records.rs`), plus end-to-end `perfdb record
//! --serve` / `trend` round-trips through the binary.
//!
//! Regenerate the fixture after an intentional schema change with:
//!
//! ```text
//! REGEN_FIXTURES=1 cargo test -p ninja-perfdb --test serve_records
//! ```

use ninja_perfdb::{
    MachineFingerprint, Record, ServePointRecord, ServeRecord, Store, SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const RATES: [f64; 3] = [500.0, 2_000.0, 8_000.0];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// One fixture serve run: a 3-rate SLO curve whose tail latency and
/// shed fraction grow with offered load, scaled by `tail` (the knob the
/// two fixture records drift on).
fn fixture_serve(id: &str, timestamp: u64, tail: f64) -> ServeRecord {
    let points = RATES
        .iter()
        .enumerate()
        .map(|(i, &rps)| {
            let pressure = i as u64;
            let ok = 500 - 60 * pressure;
            ServePointRecord {
                offered_rps: rps,
                sent: 500,
                ok,
                rejected: 40 * pressure,
                expired: 20 * pressure,
                incorrect: 0,
                degraded: 25 * pressure,
                p50_us: Some(400.0 * (1.0 + i as f64)),
                p99_us: Some(tail * (1.0 + 2.0 * i as f64)),
                trips: pressure,
                recoveries: pressure,
            }
        })
        .collect();
    ServeRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: timestamp,
        git_commit: "fixture".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        kernel: "blackscholes".to_owned(),
        threads: 4,
        chaos_seed: Some(2012),
        chaos_rate: Some(0.15),
        deadline_us: 50_000,
        points,
    }
}

/// The two fixture serve runs, oldest first: the p99 tail drifts from
/// 5ms to 9ms between commits — exactly the drift the serve section of
/// `perfdb trend` exists to show.
fn fixture_serves() -> Vec<ServeRecord> {
    vec![
        fixture_serve("serve-0001", 1_700_000_000, 5_000.0),
        fixture_serve("serve-0002", 1_700_086_400, 9_000.0),
    ]
}

#[test]
fn serve_fixture_is_in_sync_with_generator() {
    let path = fixture_dir().join("serves.jsonl");
    let expected: String = fixture_serves()
        .iter()
        .map(|r| r.to_jsonl_line() + "\n")
        .collect();
    if std::env::var("REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(&path, &expected).unwrap();
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        on_disk, expected,
        "checked-in serve fixture drifted from its generator; \
         regenerate with REGEN_FIXTURES=1"
    );
    // And every line round-trips through the schema.
    for (i, line) in on_disk.lines().enumerate() {
        let rec = ServeRecord::from_jsonl_line(line)
            .unwrap_or_else(|e| panic!("fixture line {}: {e}", i + 1));
        assert_eq!(rec, fixture_serves()[i]);
    }
}

#[test]
fn store_loads_the_fixture_serves() {
    let store = Store::open(fixture_dir());
    let (serves, skipped) = store.load_lossy::<ServeRecord>().unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(serves.len(), 2);
    let p0 = serves[0].point(8_000.0).unwrap();
    let p1 = serves[1].point(8_000.0).unwrap();
    assert_eq!(p0.p99_us, Some(25_000.0));
    assert_eq!(p1.p99_us, Some(45_000.0), "tail drift visible");
    assert_eq!(serves[0].total_shed_or_expired(), 180);
}

fn perfdb_in(store: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfdb"))
        .args(args)
        .args(["--store", store.to_str().unwrap()])
        .output()
        .expect("spawn perfdb")
}

#[test]
fn trend_on_fixture_store_shows_serving_slo_drift() {
    let out = perfdb_in(&fixture_dir(), &["trend", "blackscholes"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serving SLO drift"), "stdout: {stdout}");
    assert!(stdout.contains("serve-0001"), "stdout: {stdout}");
    assert!(stdout.contains("serve-0002"), "stdout: {stdout}");
    assert!(stdout.contains("25000"), "stdout: {stdout}");
    assert!(stdout.contains("45000"), "stdout: {stdout}");
}

#[test]
fn record_serve_round_trips_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("perfdb-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A minimal serve_report.json as `reproduce --serve` writes it.
    let report = r#"{
      "kernel": "libor", "threads": 2,
      "chaos_seed": null, "chaos_rate": null, "deadline_us": 50000,
      "points": [
        {"offered_rps": 1000.0, "sent": 200, "ok": 200, "rejected": 0,
         "expired": 0, "unresolved": 0, "incorrect": 0, "degraded": 0,
         "p50_us": 350.0, "p99_us": 2200.0, "trips": 0, "recoveries": 0}
      ]
    }"#;
    let report_path = dir.join("serve_report.json");
    std::fs::write(&report_path, report).unwrap();

    let store = dir.join("store");
    let out = perfdb_in(
        &store,
        &[
            "record",
            "--serve",
            report_path.to_str().unwrap(),
            "--id",
            "serve-cli",
            "--commit",
            "abc123",
            "--timestamp",
            "1700000000",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("recorded serve serve-cli"), "{stdout}");

    // The recorded serve run comes back out through `trend`.
    let out = perfdb_in(&store, &["trend", "libor"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serving SLO drift"), "{stdout}");
    assert!(stdout.contains("serve-cli"), "{stdout}");
    assert!(stdout.contains("abc123"), "{stdout}");
    assert!(stdout.contains("off"), "chaos off renders: {stdout}");

    // And in machine-readable form.
    let out = perfdb_in(&store, &["trend", "libor", "--json", "-"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"serves\""), "{stdout}");
    assert!(stdout.contains("\"p99_us\""), "{stdout}");

    // --sweep and --serve together are a usage error.
    let out = perfdb_in(
        &store,
        &[
            "record",
            "--serve",
            report_path.to_str().unwrap(),
            "--sweep",
            report_path.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}
