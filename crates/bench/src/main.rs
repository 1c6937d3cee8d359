//! `reproduce`: the paper's evaluation in one binary.
//!
//! ```text
//! reproduce [model|scale|serve] [flags]
//! ```
//!
//! The optional first word picks the mode; each mode accepts only the
//! flags it reads (anything else exits 2, naming the mode):
//!
//! * **no mode word — the suite.** Measures every kernel at every rung,
//!   prints every table and figure (the model ones plus the measured F4
//!   and suite detail, whose `vs naive` column is the measured half of
//!   F2), and writes `suite_report.json` / `.csv`. Failed variants (panic,
//!   hang, NaN checksum, validation mismatch) never abort the run: the
//!   partial report is still written and rendered, and the exit status is
//!   1. Flags:
//!
//!   ```text
//!   --size test|quick|paper   problem-size preset (default: quick)
//!   --threads N               measurement pool threads (default: hardware)
//!   --affinity                round-robin-pin pool workers to cores (best
//!                             effort)
//!   --reps N                  timed repetitions per variant (default: 3)
//!   --timeout SECONDS         per-variant wall-clock budget; 0 disables
//!                             (default: 120)
//!   --fail-fast               stop at the first failed variant
//!   --kernels a,b,c           measure only these registry kernels
//!   --chaos panic|hang|nan|wrong
//!                             append one fault-injection kernel
//!   --chaos-seed N            install the deterministic fault schedule
//!   --chaos-rate F            (shared bit-for-bit with ninja-serve) and
//!                             append the scheduled chaos kernel; either
//!                             flag opts in (defaults: seed 2012, rate 0.1)
//!   --asm                     run the ninja-asm vectorization oracle as a
//!                             preflight and embed the per-rung profiles
//!   --record                  append the run to the perf store and
//!                             regenerate BENCH_history.json
//!   --baseline REF            compare against a stored run (`latest`,
//!                             `latest~N`, an id, or a file path); exit 1 on
//!                             a confirmed regression
//!   --store DIR               perf-store directory (default: perfdb)
//!   --trace PATH              write the run's spans as Chrome trace_event
//!                             JSON (Perfetto / about:tracing)
//!   --probe-metrics           pool utilization and raw samples per cell,
//!                             attribution against the calibrated host, and
//!                             the C1 measured-vs-model gap table
//!   --counters                hardware counters (perf_event_open) around
//!                             every rep and pool job; degrades to a printed
//!                             reason without a PMU
//!   ```
//!
//!   A baseline of `latest` resolves *before* the new run is appended, so
//!   `--record --baseline latest` compares against the previous run.
//! * **`model`** — the eight artifacts that need no measurement (T1, T2,
//!   F1, F2, F3, F5, F6, F7). Takes no flags.
//! * **`scale`** — a size × thread sweep instead of the single-point
//!   suite: speedup curves and per-rung efficiency tables, Amdahl/USL fits
//!   per curve, `sweep_report.json` / `.csv`. Flags: `--size`,
//!   `--sizes a,b,c` (default: the `--size` preset), `--threads-max N`
//!   (default: hardware threads), `--reps`, `--timeout`, `--kernels`, and
//!   `--record`/`--store` (the perf store's sweep log).
//! * **`serve`** — drives the `ninja-serve` batched engine open-loop at
//!   each offered rate and renders the SLO curve (p50/p99,
//!   shed/expired/degraded), `serve_report.json`. An `Ok` response that
//!   fails client-side re-verification, or a ticket that outlives its
//!   resolution contract, exits 1. Flags: `--kernels K` (one of
//!   blackscholes, treesearch, libor; default blackscholes), `--size`,
//!   `--threads`, `--affinity`, `--serve-rates a,b,c` (req/s, default
//!   500,2000,8000), `--serve-duration-ms N` (per rate, default 1000),
//!   `--chaos-seed`/`--chaos-rate` (faults at the serving layer), and
//!   `--record`/`--store` (the serve log).

mod cli;

use cli::{Cli, Mode};

/// The `scale` mode: sweep, render, export, optionally record.
fn run_scale(cli: &Cli) {
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
    cli: &Cli,
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

/// The `serve` mode: drive the serving layer open-loop at each offered
/// rate, render the SLO curve, export it, optionally record.
fn run_serve(cli: &Cli) {
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

/// Runs the ninja-asm vectorization oracle as a measurement preflight.
///
/// Compiles `crates/kernels` to assembly (toolchain-default target-cpu),
/// classifies every rung's emitted instructions, and returns the per-rung
/// profiles in the suite-report record form.
///
/// # Errors
///
/// Returns the rendered findings when a rung compiles below its
/// `expect(...)` profile (NL008) or an intrinsic is called out of line
/// inside the AVX2 trampoline's reach (NL012), or the underlying
/// compiler/I/O message when `cargo rustc` fails.
fn asm_preflight() -> Result<Vec<ninja_core::VecProfileRecord>, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    let audit = ninja_lint::asm_audit(root, &ninja_lint::AsmOptions::default())
        .map_err(|e| e.to_string())?;
    if !audit.report.clean {
        return Err(audit.report.render_text());
    }
    // The oracle names kernels by source-file stem (`black_scholes`);
    // measured cells use the registry name (`blackscholes`). Map the stem
    // onto the registry name so `perfdb compare`/`trend` lookups line up.
    let registry: Vec<&'static str> = ninja_kernels::registry()
        .into_iter()
        .map(|spec| spec.name)
        .collect();
    Ok(audit
        .profiles
        .into_iter()
        .map(|p| ninja_core::VecProfileRecord {
            kernel: registry
                .iter()
                .find(|name| p.kernel.replace('_', "") == **name)
                .map_or(p.kernel, |name| (*name).to_owned()),
            rung: p.rung,
            width_bits: p.width_bits,
            vector_fp_ops: p.vector_fp_ops,
            scalar_fp_ops: p.scalar_fp_ops,
            vector_int_ops: p.vector_int_ops,
            matched_symbols: p.matched_symbols,
            fma: p.fma,
            gather: p.gather,
            scatter: p.scatter,
            classification: p.classification,
        })
        .collect())
}

fn main() {
    let cli = cli::from_env();
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
    match cli.mode {
        Mode::Suite => run_suite(&cli),
        Mode::Model => print!("{}", ninja_core::experiments::model_report()),
        Mode::Scale => run_scale(&cli),
        Mode::Serve => run_serve(&cli),
    }
}

/// The suite: measure, render every artifact, export, optionally
/// calibrate, trace, count, record and gate.
fn run_suite(cli: &Cli) {
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
    let mut vec_profiles = Vec::new();
    if cli.asm {
        match asm_preflight() {
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

    // One calibration (~1 s of microbenchmarks) per run, paid only when
    // attribution or a recorded fingerprint needs it, so the `%roof` of
    // every cell and the `calibrated_*` fingerprint of the record come
    // from the same measurement.
    let calibration = (cli.probe_metrics || cli.record).then(ninja_model::measure_host);
    let machine = calibration.map(|cal| ninja_model::calibrate::machine_from(cal, cli.threads));

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
    if let (true, Some(machine)) = (cli.probe_metrics, &machine) {
        harness = harness.attribution_machine(machine.clone());
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
        if let (Some(cal), Some(machine)) = (calibration, &machine) {
            println!(
                "\nhost calibration: scalar {:.2} GFLOP/s, {} SIMD {:.2} GFLOP/s \
                 (effective width {:.2}), stream {:.2} GB/s",
                cal.scalar_gflops,
                cal.isa,
                cal.simd_gflops,
                cal.effective_lanes(),
                cal.bandwidth_gbs
            );
            println!("calibrated machine: {machine}\n");
            print!(
                "{}",
                ninja_core::experiments::calibration_gap(&suite, machine)
            );
        }
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
        if let (true, Some(machine)) = (cli.record, &machine) {
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
            let report = ninja_perfdb::compare_records(
                &baseline,
                &record,
                &ninja_perfdb::CompareConfig::gate(),
            );
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
