//! Regenerates every table and figure of the evaluation in one run and
//! writes the measured suite report to `suite_report.json` / `.csv`.
//!
//! Failed variants (panic, hang, NaN checksum, validation mismatch) never
//! abort the run: the partial report is still written and rendered, and
//! the process exits with status 1 so CI notices.
//!
//! With `--record` the run is also appended to the persistent perf store
//! (default `perfdb/`) and the aggregated `BENCH_history.json` trajectory
//! is regenerated; with `--baseline REF` the fresh measurements are
//! compared against a stored baseline and a confirmed regression makes
//! the exit status 1. A baseline of `latest` resolves *before* the new
//! run is appended, so `--record --baseline latest` compares against the
//! previous run, not itself.
//!
//! With `--scale` the binary runs a thread/size scaling sweep instead of
//! the single-point suite: every kernel×variant is measured across the
//! thread grid (`--threads-max`) and size list (`--sizes`), speedup
//! curves and per-rung efficiency tables are rendered, Amdahl/USL fits
//! are printed per curve, and the grid is written to `sweep_report.json`
//! / `sweep_report.csv`. `--record` appends the sweep to the perf store's
//! sweep log so `perfdb trend` can show serial-fraction drift.
//!
//! With `--serve` the binary drives the `ninja-serve` batched serving
//! layer open-loop at each `--serve-rates` offered rate, optionally
//! under the seeded chaos schedule (`--chaos-seed`/`--chaos-rate`),
//! renders the SLO curve (p50/p99, shed/expired/degraded counts), and
//! writes `serve_report.json`. `--record` appends the curve to the perf
//! store's serve log. An `Ok` response that fails client-side
//! re-verification or a ticket that outlives its resolution contract
//! makes the exit status 1.
//!
//! With `--counters` the run opens hardware performance counters
//! (`perf_event_open`) around every measured repetition and pool job and
//! prints a greppable per-cell table — measured IPC, LLC miss rate, and
//! estimated DRAM GB/s next to the modeled roofline bound, with an
//! explicit agree/disagree verdict — plus per-worker local-vs-steal
//! counter windows. Where the PMU is unavailable (paranoid level, VM,
//! missing PMU) the run prints the reason and measures normally.
//!
//! `--chaos-seed`/`--chaos-rate` also extend plain `--chaos` runs: they
//! install the deterministic probabilistic fault schedule (shared
//! bit-for-bit with `ninja-serve`) and append the scheduled chaos
//! kernel to the suite.

/// The `--scale` path: sweep, render, export, optionally record.
fn run_scale(cli: &ninja_bench::Cli) {
    let config = cli.sweep_config();
    eprintln!(
        "running scaling sweep: sizes={} threads={:?} reps={} timeout={}{}",
        config
            .sizes
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(","),
        config.threads,
        config.reps,
        match config.timeout {
            Some(budget) => format!("{}s", budget.as_secs()),
            None => "off".into(),
        },
        match &config.kernels {
            Some(kernels) => format!(" kernels={}", kernels.join(",")),
            None => String::new(),
        }
    );

    let report = config.run();
    print!("{}", report.render());
    std::fs::write("sweep_report.json", report.to_json()).expect("write sweep_report.json");
    std::fs::write("sweep_report.csv", report.to_csv()).expect("write sweep_report.csv");
    eprintln!("wrote sweep_report.json and sweep_report.csv");

    let mut exit_code = 0;
    let failures: Vec<_> = report.failures().collect();
    if !failures.is_empty() {
        eprintln!("{} sweep cell(s) failed:", failures.len());
        for cell in failures {
            eprintln!(
                "  {}/{} size={} threads={}: {}",
                cell.kernel, cell.variant, cell.size, cell.threads, cell.outcome
            );
        }
        exit_code = 1;
    }

    if cli.record {
        let store = ninja_perfdb::Store::open(&cli.store);
        let meta = ninja_perfdb::RecordMeta::detect(&report.simd_backend);
        let record = ninja_perfdb::SweepRecord::from_sweep_json(&report.to_json(), &meta)
            .expect("sweep report round-trips into the store schema");
        if let Err(msg) = store.append(&record) {
            eprintln!("reproduce: {msg}");
            std::process::exit(2);
        }
        eprintln!(
            "recorded sweep {} ({} fit(s)) to {}",
            record.id,
            record.fits.len(),
            store.path::<ninja_perfdb::SweepRecord>().display()
        );
    }

    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// Runs the `--serve-rates` SLO sweep against one engine and assembles
/// the exportable report. Generic so each kernel's request generator
/// keeps its natural types.
fn serve_curve<K, F>(
    cli: &ninja_bench::Cli,
    engine: &ninja_serve::Engine<K>,
    mut make_req: F,
) -> ninja_serve::ServeReport
where
    K: ninja_serve::BatchKernel,
    F: FnMut(usize) -> (K::Req, K::Resp),
{
    let points = cli
        .serve_rates
        .iter()
        .map(|&rps| {
            let n = ((rps * cli.serve_duration_ms as f64 / 1000.0).round() as usize).max(1);
            eprintln!("  offered {rps} req/s: {n} request(s)...");
            ninja_serve::run_open_loop(engine, &mut make_req, rps, n)
        })
        .collect();
    let chaos = cli.chaos_schedule();
    ninja_serve::ServeReport {
        kernel: engine.kernel().name().to_owned(),
        threads: cli.threads,
        chaos_seed: chaos.as_ref().map(|s| s.seed()),
        chaos_rate: chaos.as_ref().map(|s| s.rate()),
        deadline_us: engine.config().deadline.as_micros() as u64,
        points,
    }
}

/// The `--serve` path: drive the serving layer open-loop at each offered
/// rate, render the SLO curve, export it, optionally record.
fn run_serve(cli: &ninja_bench::Cli) {
    use ninja_serve::{BlackScholesServe, Engine, LiborServe, ServeConfig, TreeSearchServe};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    let kernel_name = cli
        .kernels
        .as_ref()
        .and_then(|k| k.first().cloned())
        .unwrap_or_else(|| "blackscholes".to_owned());
    let chaos = cli.chaos_schedule();
    eprintln!(
        "running serve SLO sweep: kernel={} threads={} rates={:?} duration={}ms chaos={}",
        kernel_name,
        cli.threads,
        cli.serve_rates,
        cli.serve_duration_ms,
        match &chaos {
            Some(s) => format!("seed={} rate={}", s.seed(), s.rate()),
            None => "off".into(),
        }
    );

    let pool = Arc::new(
        ninja_parallel::ThreadPool::builder()
            .num_threads(cli.threads)
            .affinity(cli.affinity)
            .build(),
    );
    let report = match kernel_name.as_str() {
        "blackscholes" => {
            use ninja_kernels::black_scholes::{price_contract, OptionContract};
            let engine = Engine::new(BlackScholesServe::new(pool), ServeConfig::default(), chaos);
            let mut rng = SmallRng::seed_from_u64(7);
            serve_curve(cli, &engine, |_| {
                let c = OptionContract {
                    spot: rng.gen_range(5.0..120.0),
                    strike: rng.gen_range(10.0..100.0),
                    years: rng.gen_range(0.1..5.0),
                    rate: rng.gen_range(0.01..0.08),
                    vol: rng.gen_range(0.05..0.6),
                };
                (c, price_contract(&c))
            })
        }
        "treesearch" => {
            let engine = Engine::new(
                TreeSearchServe::new(cli.size, 3, pool),
                ServeConfig::default(),
                chaos,
            );
            let tree = engine.kernel().tree();
            let hi = tree.num_keys() as f32 * 1.3;
            let mut rng = SmallRng::seed_from_u64(9);
            serve_curve(cli, &engine, |_| {
                let q = rng.gen_range(-1.0..hi);
                (q, tree.lower_bound_bst(q))
            })
        }
        "libor" => {
            use ninja_kernels::libor::{default_init_rates, default_vols, price_path_f64, NMAT};
            let engine = Engine::new(LiborServe::new(pool), ServeConfig::default(), chaos);
            let rates = default_init_rates();
            let vols = default_vols();
            let mut rng = SmallRng::seed_from_u64(10);
            serve_curve(cli, &engine, |_| {
                let z: [f32; NMAT] = std::array::from_fn(|_| rng.gen_range(-3.0..3.0));
                (z, price_path_f64(&rates, &vols, &z))
            })
        }
        other => {
            eprintln!(
                "reproduce: unknown serve kernel '{other}' \
                 (expected blackscholes, treesearch, or libor)"
            );
            std::process::exit(2);
        }
    };

    print!("{}", report.render());
    let json = serde_json::to_string_pretty(&report).expect("serve report serializes");
    std::fs::write("serve_report.json", &json).expect("write serve_report.json");
    eprintln!("wrote serve_report.json");

    let mut exit_code = 0;
    let incorrect: u64 = report.points.iter().map(|p| p.incorrect).sum();
    let unresolved: u64 = report.points.iter().map(|p| p.unresolved).sum();
    if incorrect > 0 || unresolved > 0 {
        eprintln!(
            "reproduce: serving contract violated: {incorrect} incorrect response(s), \
             {unresolved} unresolved ticket(s)"
        );
        exit_code = 1;
    }

    if cli.record {
        let store = ninja_perfdb::Store::open(&cli.store);
        let meta = ninja_perfdb::RecordMeta::detect(ninja_simd::isa::active().name());
        let record = ninja_perfdb::ServeRecord::from_serve_json(&json, &meta)
            .expect("serve report round-trips into the store schema");
        if let Err(msg) = store.append(&record) {
            eprintln!("reproduce: {msg}");
            std::process::exit(2);
        }
        eprintln!(
            "recorded serve {} ({} point(s)) to {}",
            record.id,
            record.points.len(),
            store.path::<ninja_perfdb::ServeRecord>().display()
        );
    }

    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

fn main() {
    let cli = ninja_bench::cli_from_env();
    // Resolve the ISA dispatch backend up front: `active()` falls back
    // silently on an invalid `NINJA_ISA`, which is right for libraries
    // but wrong for a measurement binary — a forced-backend CI run that
    // quietly measured the wrong ISA would poison the perf store. Fail
    // hard here, before anything is measured or recorded.
    let isa = match ninja_simd::isa::resolve_from_env() {
        Ok(kind) => kind,
        Err(msg) => {
            eprintln!("reproduce: {msg}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "isa dispatch: {} ({}-bit vectors)",
        isa.name(),
        isa.width_bits()
    );
    if cli.serve {
        run_serve(&cli);
        return;
    }
    if cli.scale {
        run_scale(&cli);
        return;
    }
    if cli.trace.is_some() {
        ninja_probe::set_tracing(true);
    }
    if cli.probe_metrics {
        ninja_probe::set_metrics(true);
    }
    if cli.counters {
        ninja_probe::set_counters(true);
        // One up-front greppable status line: CI asserts the fallback
        // path prints a reason instead of failing the run.
        match ninja_probe::counters::availability() {
            status if status.is_available() => eprintln!("counters: available"),
            status => eprintln!(
                "counters: unavailable ({})",
                status.reason().unwrap_or("unknown")
            ),
        }
    }
    if cli.lint {
        match ninja_bench::lint_preflight() {
            Ok(files) => eprintln!("lint preflight: clean ({files} file(s) scanned)"),
            Err(findings) => {
                eprintln!("lint preflight failed; refusing to measure a mislabeled suite:");
                eprintln!("{findings}");
                std::process::exit(1);
            }
        }
    }
    let mut vec_profiles = Vec::new();
    if cli.asm {
        match ninja_bench::asm_preflight() {
            Ok(profiles) => {
                eprintln!(
                    "asm preflight: clean ({} rung profile(s) classified)",
                    profiles.len()
                );
                vec_profiles = profiles;
            }
            Err(findings) => {
                eprintln!("asm preflight failed; refusing to measure unvectorized rungs:");
                eprintln!("{findings}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "running full reproduction: size={} threads={}{} reps={} timeout={} mode={}{}",
        cli.size,
        cli.threads,
        if cli.affinity { " affinity=on" } else { "" },
        cli.reps,
        match cli.timeout() {
            Some(budget) => format!("{}s", budget.as_secs()),
            None => "off".into(),
        },
        if cli.fail_fast {
            "fail-fast"
        } else {
            "keep-going"
        },
        match cli.chaos {
            Some(mode) => format!(" chaos={mode}"),
            None => String::new(),
        }
    );

    let mut harness = ninja_core::Harness::new()
        .size(cli.size)
        .threads(cli.threads)
        .affinity(cli.affinity)
        .repetitions(cli.reps)
        .fail_fast(cli.fail_fast);
    harness = match cli.timeout() {
        Some(budget) => harness.timeout(budget),
        None => harness.no_timeout(),
    };
    if cli.probe_metrics {
        // ~1 s of microbenchmarks, opted into: absolute percent-of-roofline
        // numbers are only worth quoting against a calibrated machine.
        harness = harness.attribution_machine(ninja_model::calibrate::calibrated_host(cli.threads));
    }
    let mut specs = cli.suite_specs();
    if let Some(mode) = cli.chaos {
        specs.push(ninja_kernels::chaos::spec(mode));
    }
    if let Some(sched) = cli.chaos_schedule() {
        // The same deterministic schedule ninja-serve replays: install it
        // process-wide and measure the scheduled chaos kernel alongside.
        eprintln!(
            "chaos schedule installed: seed={} rate={}",
            sched.seed(),
            sched.rate()
        );
        ninja_kernels::chaos::set_schedule(Some(sched));
        specs.push(ninja_kernels::chaos::spec_scheduled());
    }

    let (mut suite, rendered) = ninja_core::experiments::full_report_with(&harness, &specs);
    suite.vec_profiles = vec_profiles;
    println!("{rendered}");
    std::fs::write("suite_report.json", suite.to_json()).expect("write suite_report.json");
    std::fs::write("suite_report.csv", suite.to_csv()).expect("write suite_report.csv");
    eprintln!("wrote suite_report.json and suite_report.csv");

    let has_gap = suite.kernels.iter().any(|k| k.measured_gap().is_some());
    if has_gap {
        println!(
            "measured average gap (this host, {} thread(s)): {:.2}X; average residual: {:.2}X",
            suite.threads,
            suite.average_gap(),
            suite.average_residual()
        );
    } else {
        println!("no kernel produced a complete variant ladder; gap averages unavailable");
    }

    let mut exit_code = 0;

    if cli.probe_metrics {
        println!("\nper-cell attribution (calibrated roofline):");
        for k in &suite.kernels {
            for v in &k.variants {
                if let Some(a) = &v.attribution {
                    println!("  {}/{}: {}", k.kernel, v.variant, a.summary());
                }
            }
        }
        // Cumulative scheduler traffic over the whole run, one greppable
        // line (CI asserts the stealing path actually exercised).
        let pm = harness.pool_metrics();
        let sum = |f: fn(&ninja_probe::WorkerStats) -> u64| pm.workers.iter().map(f).sum::<u64>();
        println!(
            "pool counters: steals={} local_pops={} injector_pops={} steal_ratio={:.3} parked_ms={}",
            sum(|w| w.steals),
            sum(|w| w.local_pops),
            sum(|w| w.injector_pops),
            pm.steal_ratio(),
            sum(|w| w.parked_ns) / 1_000_000,
        );
    }

    if cli.counters {
        let fmt = |v: Option<f64>, precision: usize| match v {
            Some(x) => format!("{x:.precision$}"),
            None => "-".to_owned(),
        };
        // Greppable per-cell table: `counters <kernel>/<variant> ipc=…`.
        // Cells stay silent when the PMU produced nothing for them.
        println!("\nper-cell hardware counters (measured vs modeled roofline):");
        let mut counted = 0usize;
        for k in &suite.kernels {
            for v in &k.variants {
                let Some(a) = &v.attribution else { continue };
                if !a.has_counter_data() {
                    continue;
                }
                counted += 1;
                println!(
                    "  counters {}/{} ipc={} llc_miss={} dram_gbs={} measured={} model={} agree={}",
                    k.kernel,
                    v.variant,
                    fmt(a.measured_ipc, 2),
                    fmt(a.measured_llc_miss_rate, 3),
                    fmt(a.measured_dram_gbs, 1),
                    a.measured_bound.as_deref().unwrap_or("-"),
                    a.bound,
                    match a.agreement {
                        Some(true) => "yes",
                        Some(false) => "NO",
                        None => "-",
                    }
                );
            }
        }
        if counted == 0 {
            println!("  (no cell produced counter samples)");
        }
        // Per-worker counter windows split by job source: a steal-path
        // IPC below the local-pop IPC is cold-cache migration cost made
        // visible. Only event ratios are meaningful here (the windows
        // carry no wall time), so no bandwidth column.
        let pm = harness.pool_metrics();
        let mut windows = 0usize;
        for (i, w) in pm.workers.iter().enumerate() {
            for (source, win) in [("local", &w.local_window), ("steal", &w.steal_window)] {
                if !win.any_counted() {
                    continue;
                }
                windows += 1;
                println!(
                    "  worker {i} {source} ipc={} llc_miss={} instructions={}",
                    fmt(win.ipc(), 2),
                    fmt(win.llc_miss_rate(), 3),
                    win.instructions,
                );
            }
        }
        if windows == 0 {
            println!("  (no worker counter windows; pool jobs ran uncounted)");
        }
    }

    if let Some(path) = &cli.trace {
        let events = ninja_probe::take_events();
        let json = ninja_probe::chrome_trace_json(&events);
        std::fs::write(path, &json).expect("write trace JSON");
        // Lenient self-check (a timed-out variant's abandoned thread may
        // leave unclosed spans, so no strict B/E matching here): the JSON
        // must parse, and every variant that actually executed must have
        // opened a span. Factory-panicked variants never execute, so they
        // are not expected to appear.
        let parsed: serde::Value = serde_json::from_str(&json).expect("trace JSON must parse");
        let total = match &parsed {
            serde::Value::Array(entries) => entries.len(),
            _ => panic!("trace JSON must be a top-level array"),
        };
        let variant_spans = events
            .iter()
            .filter(|e| e.ph == ninja_probe::Phase::Begin && e.name.starts_with("variant:"))
            .count();
        let executed = suite
            .kernels
            .iter()
            .flat_map(|k| &k.variants)
            .filter(|v| !matches!(v.outcome, ninja_core::VariantOutcome::Panicked { .. }))
            .count();
        if variant_spans < executed {
            eprintln!(
                "reproduce: trace is missing variant spans ({variant_spans} spans for \
                 {executed} executed variants)"
            );
            exit_code = 1;
        }
        eprintln!(
            "wrote {path}: {total} trace events, {variant_spans} variant span(s) — load it in \
             Perfetto (https://ui.perfetto.dev) or chrome://tracing"
        );
    }

    if suite.has_failures() {
        eprintln!(
            "{} variant(s) failed; partial report written:\n{}",
            suite.failures().len(),
            suite.failure_summary()
        );
        exit_code = 1;
    }

    if cli.record || cli.baseline.is_some() {
        let store = ninja_perfdb::Store::open(&cli.store);
        let mut meta = ninja_perfdb::RecordMeta::detect(&suite.simd_backend);
        if cli.record {
            // Calibration costs ~1 s; only pay for it when the fingerprint
            // actually lands in the store.
            let machine = ninja_model::calibrate::calibrated_host(cli.threads);
            meta.machine.calibrated_freq_ghz = Some(machine.freq_ghz);
            meta.machine.calibrated_simd_f32_lanes = Some(machine.simd_f32_lanes);
            meta.machine.calibrated_core_bandwidth_gbs = Some(machine.core_bandwidth_gbs);
        }
        let record = suite.to_run_record(&meta);

        // Resolve the baseline before appending so `latest` means "the
        // previous recorded run", never the one we are about to write.
        let baseline = match &cli.baseline {
            Some(reference) => match ninja_perfdb::resolve_reference(&store, reference, 1) {
                Ok(baseline) => Some(baseline),
                Err(msg) => {
                    eprintln!("reproduce: {msg}");
                    std::process::exit(2);
                }
            },
            None => None,
        };

        if cli.record {
            if let Err(msg) = store.append(&record) {
                eprintln!("reproduce: {msg}");
                std::process::exit(2);
            }
            if !record.excluded.is_empty() {
                eprintln!(
                    "perf store: excluded fault-injection kernel(s): {}",
                    record.excluded.join(", ")
                );
            }
            eprintln!(
                "recorded run {} to {}",
                record.id,
                store.path::<ninja_perfdb::RunRecord>().display()
            );
            match ninja_perfdb::write_history(
                &store,
                std::path::Path::new(ninja_perfdb::HISTORY_FILE),
            ) {
                Ok(history) => eprintln!(
                    "wrote {} ({} run(s), {} kernel(s))",
                    ninja_perfdb::HISTORY_FILE,
                    history.runs,
                    history.kernels.len()
                ),
                Err(msg) => {
                    eprintln!("reproduce: {msg}");
                    std::process::exit(2);
                }
            }
        }

        if let Some(baseline) = baseline {
            let mut cfg = ninja_perfdb::CompareConfig::gate();
            if let Some(floor) = cli.noise_floor {
                cfg.noise_floor = floor;
            }
            let report = ninja_perfdb::compare_records(&baseline, &record, &cfg);
            print!("{}", report.render_text());
            if report.has_regressions() {
                eprintln!(
                    "reproduce: confirmed perf regression(s) vs baseline {}",
                    baseline.id
                );
                exit_code = 1;
            }
        }
    }

    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
