//! The `perfdb` binary: CLI over the persistent run store.
//!
//! ```text
//! perfdb record  [--store DIR] [--from PATH] [--sweep PATH] [--serve PATH]
//!                [--commit SHA] [--id ID] [--timestamp SECS]
//! perfdb compare BASELINE [--store DIR] [--candidate REF|PATH] [--window K]
//!                [--noise-floor F] [--iters N] [--json PATH|-]
//! perfdb trend   KERNEL [--store DIR] [--json]
//! perfdb history [--store DIR] [--out PATH]
//! perfdb gc      [--store DIR] [--keep N]
//! ```
//!
//! `BASELINE` and `--candidate` accept `latest`, `latest~N`, a record id
//! (or unambiguous prefix), or a filesystem path (a store JSONL or a raw
//! `suite_report.json`). `record --sweep PATH` ingests a
//! `sweep_report.json` (written by `reproduce scale`) into the sweep
//! log instead of the run log, and `record --serve PATH` ingests a
//! `serve_report.json` (written by `reproduce serve`) into the serve
//! log; `trend` then appends the kernel's serial-fraction drift across
//! recorded sweeps and its serving-SLO drift across recorded serve runs
//! (its `--json` output is a `{"runs": [...], "sweeps": [...],
//! "serves": [...]}` object). Exit status: 0 when the
//! comparison verdict is `noise`/`improved` (and for every other
//! successful subcommand), 1 on a confirmed regression, 2 on usage or
//! I/O errors.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use ninja_perfdb::{
    compare_records, load_and_warn, resolve_reference, CompareConfig, Record, RecordMeta,
    RunRecord, ServeRecord, Store, SweepRecord, DEFAULT_DIR, HISTORY_FILE,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = concat!(
    "usage: perfdb <record|compare|trend|history|gc> [options]\n",
    "  record  [--store DIR] [--from PATH] [--sweep PATH] [--serve PATH]\n",
    "          [--commit SHA] [--id ID] [--timestamp SECS]\n",
    "  compare BASELINE [--store DIR] [--candidate REF|PATH] [--window K]\n",
    "          [--noise-floor F] [--iters N] [--json PATH|-]\n",
    "  trend   KERNEL [--store DIR] [--json]\n",
    "  history [--store DIR] [--out PATH]\n",
    "  gc      [--store DIR] [--keep N]\n",
    "refs: latest | latest~N | record id (prefix ok) | file path\n",
    "record --sweep ingests a sweep_report.json (from `reproduce scale`)\n",
    "into the sweep log; record --serve ingests a serve_report.json (from\n",
    "`reproduce serve`) into the serve log; trend then shows\n",
    "serial-fraction and serving-SLO drift"
);

/// Everything the subcommands need from the argument list.
struct Args {
    store: Store,
    positional: Vec<String>,
    from: String,
    sweep: Option<String>,
    serve: Option<String>,
    commit: Option<String>,
    id: Option<String>,
    timestamp: Option<u64>,
    candidate: Option<String>,
    window: usize,
    noise_floor: Option<f64>,
    iters: Option<u32>,
    json: Option<String>,
    out: String,
    keep: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        store: Store::open(DEFAULT_DIR),
        positional: Vec::new(),
        from: "suite_report.json".into(),
        sweep: None,
        serve: None,
        commit: None,
        id: None,
        timestamp: None,
        candidate: None,
        window: 1,
        noise_floor: None,
        iters: None,
        json: None,
        out: HISTORY_FILE.into(),
        keep: 50,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--store" => args.store = Store::open(value("--store")?),
            "--from" => args.from = value("--from")?,
            "--sweep" => args.sweep = Some(value("--sweep")?),
            "--serve" => args.serve = Some(value("--serve")?),
            "--commit" => args.commit = Some(value("--commit")?),
            "--id" => args.id = Some(value("--id")?),
            "--timestamp" => {
                args.timestamp = Some(
                    value("--timestamp")?
                        .parse()
                        .map_err(|e| format!("--timestamp: {e}"))?,
                )
            }
            "--candidate" => args.candidate = Some(value("--candidate")?),
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
                if args.window == 0 {
                    return Err("--window must be positive".into());
                }
            }
            "--noise-floor" => {
                args.noise_floor = Some(
                    value("--noise-floor")?
                        .parse()
                        .map_err(|e| format!("--noise-floor: {e}"))?,
                )
            }
            "--iters" => {
                args.iters = Some(
                    value("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                )
            }
            "--json" => args.json = Some(value("--json")?),
            "--out" => args.out = value("--out")?,
            "--keep" => {
                args.keep = value("--keep")?
                    .parse()
                    .map_err(|e| format!("--keep: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            positional => args.positional.push(positional.to_owned()),
        }
    }
    Ok(args)
}

fn record_meta(args: &Args) -> RecordMeta {
    let mut meta = RecordMeta::detect("unknown");
    meta.id = args.id.clone();
    if let Some(commit) = &args.commit {
        meta.git_commit = commit.clone();
    }
    if let Some(ts) = args.timestamp {
        meta.timestamp_unix_s = ts;
    }
    meta
}

/// Ingests the report at `path` with `ingest` and appends the record to
/// its kind's log — the one path behind `record`, `record --sweep` and
/// `record --serve`. Returns the record and the log it landed in.
fn record_report<R: Record>(
    args: &Args,
    path: &str,
    ingest: fn(&str, &RecordMeta) -> Result<R, String>,
) -> Result<(R, String), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let record = ingest(&json, &record_meta(args))?;
    args.store.append(&record)?;
    Ok((record, args.store.path::<R>().display().to_string()))
}

fn warn_excluded(excluded: &[String]) {
    if !excluded.is_empty() {
        eprintln!(
            "perfdb: excluded {} fault-injection kernel(s): {}",
            excluded.len(),
            excluded.join(", ")
        );
    }
}

fn cmd_record(args: &Args) -> Result<(), String> {
    if args.sweep.is_some() && args.serve.is_some() {
        return Err("--sweep and --serve are mutually exclusive".into());
    }
    if let Some(path) = &args.sweep {
        let (record, log) = record_report(args, path, SweepRecord::from_sweep_json)?;
        warn_excluded(&record.excluded);
        println!(
            "recorded sweep {} ({} cell(s), {} fit(s), commit {}) to {log}",
            record.id,
            record.cells.len(),
            record.fits.len(),
            record.git_commit,
        );
    } else if let Some(path) = &args.serve {
        let (record, log) = record_report(args, path, ServeRecord::from_serve_json)?;
        println!(
            "recorded serve {} (kernel {}, {} point(s), commit {}) to {log}",
            record.id,
            record.kernel,
            record.points.len(),
            record.git_commit,
        );
    } else {
        let (record, log) = record_report(args, &args.from, RunRecord::from_suite_json)?;
        warn_excluded(&record.excluded);
        println!(
            "recorded {} ({} cell(s), commit {}) to {log}",
            record.id,
            record.cells.len(),
            record.git_commit,
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let baseline_ref = args
        .positional
        .first()
        .ok_or("compare needs a BASELINE reference")?;
    let baseline = resolve_reference(&args.store, baseline_ref, args.window)?;
    let candidate = match &args.candidate {
        Some(r) => resolve_reference(&args.store, r, 1)?,
        None => args
            .store
            .latest()?
            .ok_or_else(|| "store is empty; nothing to compare".to_owned())?,
    };
    let mut cfg = CompareConfig::default();
    if let Some(floor) = args.noise_floor {
        cfg.noise_floor = floor;
    }
    if let Some(iters) = args.iters {
        cfg.bootstrap_iters = iters;
    }
    let report = compare_records(&baseline, &candidate, &cfg);
    print!("{}", report.render_text());
    if let Some(dest) = &args.json {
        let json = report.to_json();
        if dest == "-" {
            println!("{json}");
        } else {
            std::fs::write(dest, json).map_err(|e| format!("cannot write {dest}: {e}"))?;
        }
    }
    Ok(report.has_regressions())
}

fn cmd_trend(args: &Args) -> Result<(), String> {
    let kernel = args.positional.first().ok_or("trend needs a KERNEL name")?;
    let records = load_and_warn::<RunRecord>(&args.store)?;
    let sweeps = load_and_warn::<SweepRecord>(&args.store)?;
    let serves = load_and_warn::<ServeRecord>(&args.store)?;
    let points = ninja_perfdb::trend::kernel_trend(&records, kernel);
    let sweep_points = ninja_perfdb::trend::sweep_trend(&sweeps, kernel);
    let serve_points = ninja_perfdb::trend::serve_trend(&serves, kernel);
    if points.is_empty() && sweep_points.is_empty() && serve_points.is_empty() {
        return Err(format!(
            "no recorded run, sweep, or serve measures kernel `{kernel}` (store {})",
            args.store.dir().display()
        ));
    }
    if args.json.is_some() {
        use serde::Serialize;
        #[derive(Serialize)]
        struct TrendJson {
            runs: Vec<ninja_perfdb::TrendPoint>,
            sweeps: Vec<ninja_perfdb::SweepTrendPoint>,
            serves: Vec<ninja_perfdb::ServeTrendPoint>,
        }
        let all = TrendJson {
            runs: points,
            sweeps: sweep_points,
            serves: serve_points,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&all).expect("trend points serialize")
        );
        return Ok(());
    }
    let mut sections = 0;
    if !points.is_empty() {
        print!("{}", ninja_perfdb::trend::render_trend(kernel, &points));
        sections += 1;
    }
    if !sweep_points.is_empty() {
        if sections > 0 {
            println!();
        }
        print!(
            "{}",
            ninja_perfdb::trend::render_sweep_trend(kernel, &sweep_points)
        );
        sections += 1;
    }
    if !serve_points.is_empty() {
        if sections > 0 {
            println!();
        }
        print!(
            "{}",
            ninja_perfdb::trend::render_serve_trend(kernel, &serve_points)
        );
    }
    Ok(())
}

fn cmd_history(args: &Args) -> Result<(), String> {
    let history = ninja_perfdb::write_history(&args.store, Path::new(&args.out))?;
    println!(
        "wrote {} ({} run(s), {} kernel(s))",
        args.out,
        history.runs,
        history.kernels.len()
    );
    Ok(())
}

fn cmd_gc(args: &Args) -> Result<(), String> {
    let removed = args.store.gc(args.keep)?;
    println!(
        "gc: removed {removed} record(s), kept at most {} in {}",
        args.keep,
        args.store.path::<RunRecord>().display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(subcommand) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match subcommand.as_str() {
        "record" => cmd_record(&args).map(|()| false),
        "compare" => cmd_compare(&args),
        "trend" => cmd_trend(&args).map(|()| false),
        "history" => cmd_history(&args).map(|()| false),
        "gc" => cmd_gc(&args).map(|()| false),
        other => {
            eprintln!("unknown subcommand '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => {
            eprintln!("perfdb: confirmed regression(s); failing");
            ExitCode::FAILURE
        }
        Ok(false) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfdb: {msg}");
            ExitCode::from(2)
        }
    }
}
