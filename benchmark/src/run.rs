//! One run of one workload: set-up, the ladder phase, the `solo` and
//! `burst` serving phases, and the correctness verdict. The untraced run
//! yields the end-to-end metrics; the traced run repeats shorter phases
//! with spans around every call into a layer, adds the layer probes and
//! an open-loop phase, and yields the per-layer metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninja_core::SuiteReport;
use ninja_kernels::ProblemSize;
use ninja_model::calibrate::machine_from;
use ninja_model::{measure_host, Attribution};
use ninja_parallel::ThreadPool;
use ninja_serve::{BatchKernel, BlackScholesServe, LiborServe, TreeSearchServe};

use crate::affinity::pin_to_last_core;
use crate::ladder::{pool_threads, Ladder, END_TO_END_RUNGS, REPS};
use crate::probes;
use crate::serving::{
    blackscholes_requests, closed_loop, libor_requests, open_loop, serving_pool,
    treesearch_requests, Phase, PhaseStats, Serving, Traced, REQUESTS, WINDOW,
};
use crate::spec::{Served, Workload, END_TO_END, PER_LAYER};
use crate::stats::{fastest, geomean, median, percentile};
use crate::trace::{Recorder, Span};

/// What to run.
#[derive(Copy, Clone, Debug)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the phases of an untraced run measure for.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Test-size inputs, one pass, one-second phases.
    pub smoke: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Output {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// No cell, response or probe was wrong and every metric is finite.
    pub correct: bool,
    /// Ladder cells run plus responses that completed while measuring.
    pub attempted: u64,
    /// Cells not `Ok` plus responses not `Ok` and correct.
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the run's table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and phase lengths, for the reader of the numbers.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

/// The per-rung metrics of the traced ladder pass, `Variant::ALL` order.
const RUNG_METRICS: [&str; 5] = [
    "kernels.naive.ns_per_elem",
    "kernels.parallel.ns_per_elem",
    "kernels.simd.ns_per_elem",
    "kernels.algorithmic.ns_per_elem",
    "kernels.ninja.ns_per_elem",
];

/// An untraced run sets up at least this many times, and keeps setting up
/// (a 7 ms set-up is mostly thread spawns, and jitters accordingly) until
/// `SETUP_BUDGET` is spent or `SETUPS_MAX` is reached; `setup_s` is the
/// median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Phase lengths and input sizes derived from a [`Config`].
struct Plan {
    size: ProblemSize,
    reps: u32,
    requests: usize,
    /// Whether to repeat the set-up for a steady `setup_s`.
    repeat_setup: bool,
    /// Untraced run only: the ladder phase's share of `--seconds`.
    ladder: Duration,
    solo: Phase,
    burst: Phase,
    /// Traced run only: length of the open-loop phase.
    open: Duration,
}

impl Plan {
    fn of(cfg: &Config) -> Self {
        let windows = |share: f64| ((cfg.seconds * share / WINDOW.as_secs_f64()) as usize).max(1);
        let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
        if cfg.smoke {
            return Self {
                size: ProblemSize::Test,
                reps: 1,
                requests: 4096,
                repeat_setup: false,
                ladder: Duration::ZERO,
                solo: Phase::solo(WINDOW, 2),
                burst: Phase::burst(WINDOW, 2),
                open: Duration::from_secs(1),
            };
        }
        if cfg.traced {
            // Half-length serving phases; the probes, the open-loop phase
            // and two ladder rounds take the rest of a run's time.
            return Self {
                size: ProblemSize::Quick,
                reps: REPS,
                requests: REQUESTS,
                repeat_setup: true,
                ladder: Duration::ZERO,
                solo: Phase::solo(secs(0.025), windows(0.10)),
                burst: Phase::burst(secs(0.025), windows(0.15)),
                open: secs(0.15),
            };
        }
        Self {
            size: ProblemSize::Quick,
            reps: REPS,
            requests: REQUESTS,
            repeat_setup: true,
            ladder: secs(0.45),
            solo: Phase::solo(secs(0.03), windows(0.15)),
            burst: Phase::burst(secs(0.03), windows(0.34)),
            open: Duration::ZERO,
        }
    }
}

/// The benchmark's own directory.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where results, traces and the store probe's scratch files go.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// Runs `workload` once.
///
/// # Errors
///
/// Returns a message when a probe cannot run at all (store or workspace
/// scan I/O); wrong outputs are reported in the [`Output`] instead.
pub fn run(workload: &Workload, cfg: &Config) -> Result<Output, String> {
    let seed = cfg.seed;
    match workload.served {
        Served::BlackScholes => pipeline(workload, cfg, BlackScholesServe::new, |_, n| {
            blackscholes_requests(seed, n)
        }),
        Served::Libor => pipeline(workload, cfg, LiborServe::new, |_, n| {
            libor_requests(seed, n)
        }),
        Served::TreeSearch(size) => {
            // The smoke run shrinks the resident tree with everything else.
            let size = if cfg.smoke { ProblemSize::Test } else { size };
            pipeline(
                workload,
                cfg,
                move |pool| TreeSearchServe::new(size, seed, pool),
                |kernel, n| treesearch_requests(kernel, seed, n),
            )
        }
    }
}

fn pipeline<K, M, G>(
    workload: &Workload,
    cfg: &Config,
    make: M,
    generate: G,
) -> Result<Output, String>
where
    K: BatchKernel,
    M: Fn(Arc<ThreadPool>) -> K,
    G: Fn(&K, usize) -> Vec<K::Req>,
{
    let plan = Plan::of(cfg);
    let mut setup_s = Vec::new();
    let setting_up = Instant::now();
    // Each set-up is torn down at the end of its iteration: before the next
    // one starts and outside its timing, so two engines never coexist.
    let (ladder, serving) = loop {
        let start = Instant::now();
        let ladder = Ladder::set_up(workload, plan.size, cfg.seed, plan.reps);
        let serving = {
            // The engine's threads inherit this; the harness's, above, do not.
            let _one_core = pin_to_last_core();
            let kernel = make(serving_pool());
            let requests = generate(&kernel, plan.requests);
            Serving::start(kernel, requests)
        };
        setup_s.push(start.elapsed().as_secs_f64());
        let enough = setup_s.len() >= SETUPS_MAX
            || (setup_s.len() >= SETUPS_MIN && setting_up.elapsed() >= SETUP_BUDGET);
        if enough || !plan.repeat_setup {
            break (ladder, serving);
        }
    };
    if cfg.traced {
        traced(workload, &plan, &ladder, serving, make)
    } else {
        Ok(untraced(workload, &plan, &ladder, &serving, &setup_s))
    }
}

fn untraced<K: BatchKernel>(
    workload: &Workload,
    plan: &Plan,
    ladder: &Ladder,
    serving: &Serving<K>,
    setup_s: &[f64],
) -> Output {
    let passes = ladder.run_passes(plan.ladder);
    let limit = workload.latency_limit_us;
    let one_core = pin_to_last_core();
    let solo = closed_loop(serving, plan.solo, limit, 0, None);
    let burst = closed_loop(serving, plan.burst, limit, solo.submits, None);
    drop(one_core);

    let [naive, algorithmic, ninja] = END_TO_END_RUNGS.map(|r| ladder.ns_per_elem(&passes, r));
    let values = [
        naive,
        algorithmic,
        ninja,
        fastest(&passes.walls),
        solo.latency_us(0.50),
        burst.goodput_rps(),
        burst.latency_us(0.99),
        median(setup_s),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| (def.name, value, def.unit))
        .collect();
    let notes = vec![
        format!(
            "ladder {:?}: {} passes x {} reps, {} cells, {} not ok",
            ladder.kernels(),
            passes.walls.len(),
            plan.reps,
            passes.cells,
            passes.failed
        ),
        phase_note("solo", plan.solo, &solo),
        phase_note("burst", plan.burst, &burst),
        format!("setup_s is the median of {} set-ups", setup_s.len()),
    ];
    let wrong =
        passes.failed + solo.incorrect + solo.unresolved + burst.incorrect + burst.unresolved;
    Output {
        workload: workload.name,
        traced: false,
        correct: wrong == 0 && metrics.iter().all(|m| m.1.is_finite()),
        attempted: passes.cells + solo.attempted + burst.attempted,
        failed: passes.failed + solo.failed() + burst.failed(),
        metrics,
        notes,
        spans: Vec::new(),
    }
}

fn phase_note(name: &str, phase: Phase, p: &PhaseStats) -> String {
    let per_window: Vec<String> = p
        .windows
        .iter()
        .map(|w| {
            let mut sorted = w.clone();
            sorted.sort_by(f64::total_cmp);
            format!(
                "{}/{:.0}/{:.0}",
                w.len(),
                percentile(&sorted, 0.50),
                percentile(&sorted, 0.99)
            )
        })
        .collect();
    format!(
        "{name}: {} in flight, {} windows of {} ms (good/p50us/p99us: {}), {} responses: {} good, {} late, {} incorrect, {} rejected, {} expired, {} unresolved, {} degraded",
        phase.in_flight,
        p.windows.len(),
        WINDOW.as_millis(),
        per_window.join(" "),
        p.attempted,
        p.good,
        p.late,
        p.incorrect,
        p.rejected,
        p.expired,
        p.unresolved,
        p.degraded
    )
}

fn traced<K, M>(
    workload: &Workload,
    plan: &Plan,
    ladder: &Ladder,
    plain: Serving<K>,
    make: M,
) -> Result<Output, String>
where
    K: BatchKernel,
    M: Fn(Arc<ThreadPool>) -> K,
{
    let recorder = Arc::new(Recorder::new());
    let rec: &Recorder = &recorder;
    let limit = workload.latency_limit_us;
    let mut values: Vec<probes::Reading> = Vec::new();

    // --- serving: an untraced burst first, the tracing-overhead base -------
    let one_core = pin_to_last_core();
    let base = closed_loop(&plain, plan.burst, limit, 0, None);
    let per_match = {
        let kernel = plain.engine.kernel();
        let start = Instant::now();
        let agree = plain
            .expected
            .iter()
            .filter(|e| kernel.matches(std::hint::black_box(e), e))
            .count();
        std::hint::black_box(agree);
        start.elapsed().as_secs_f64() * 1e9 / plain.expected.len() as f64
    };
    values.push(("serve.matches_ns_per_req", per_match));
    let Serving {
        engine,
        requests,
        expected,
    } = plain;
    drop(engine);
    let serving = Serving::with_expected(
        Traced::new(make(serving_pool()), Arc::clone(&recorder)),
        requests,
        expected,
    );
    let solo = {
        let _span = rec.span("phase:solo");
        closed_loop(&serving, plan.solo, limit, 0, Some(rec))
    };
    let stats_before = serving.engine.stats();
    let stages_before = serving.engine.kernel().totals();
    let burst_from = Instant::now();
    let burst = {
        let _span = rec.span("phase:burst");
        closed_loop(&serving, plan.burst, limit, solo.submits, Some(rec))
    };
    let burst_wall_s = burst_from.elapsed().as_secs_f64();
    let stats = serving.engine.stats();
    let stages = serving.engine.kernel().totals().since(&stages_before);
    let open = {
        let _span = rec.span("phase:open");
        open_loop(
            &serving,
            workload.open_rps,
            plan.open,
            solo.submits + burst.submits,
        )
    };
    drop(one_core);

    let reference_s = stages.reference_ns as f64 * 1e-9;
    let execute_s = stages.execute_ns as f64 * 1e-9;
    let batches_f = stages.references as f64;
    let attempts = (stats.attempts - stats_before.attempts) as f64;
    let oks = (stats.ok() - stats_before.ok()) as f64;
    let degraded = (stats.degraded() - stats_before.degraded()) as f64;
    let mut queue_us = burst.queue_us.clone();
    queue_us.sort_by(f64::total_cmp);
    let reference_us = reference_s * 1e6 / batches_f;
    let execute_us = execute_s * 1e6 / batches_f;
    values.extend([
        (
            "serve.admit_ns",
            burst.submit_ns as f64 / burst.submits as f64,
        ),
        ("serve.queue_p50_us", percentile(&queue_us, 0.50)),
        ("serve.queue_p99_us", percentile(&queue_us, 0.99)),
        ("serve.batches", batches_f),
        ("serve.batch_size_mean", oks / batches_f),
        ("serve.reference_us_per_batch", reference_us),
        ("serve.execute_us_per_batch", execute_us),
        ("serve.reference_share", reference_s / burst_wall_s),
        ("serve.execute_share", execute_s / burst_wall_s),
        (
            "serve.resolve_us",
            burst.service_us_sum / burst.queue_us.len() as f64 - reference_us - execute_us,
        ),
        ("serve.attempts_per_batch", attempts / batches_f),
        ("serve.degraded_share", degraded / oks),
        (
            "serve.attempt_timeouts",
            (stats.timeouts - stats_before.timeouts) as f64,
        ),
        ("serve.rtt_p99_us", solo.latency_us(0.99)),
        ("serve.open_p50_us", open.p50_us),
        ("serve.open_p99_us", open.p99_us),
        ("bench.generator_lag_p99_us", open.lag_p99_us),
        (
            "bench.trace_overhead_pct",
            100.0 * (1.0 - burst.goodput_rps() / base.goodput_rps()),
        ),
    ]);

    // --- ladder: own calls with spans, then the harness --------------------
    let pass = ladder.traced_pass(rec);
    values.extend(RUNG_METRICS.into_iter().zip(pass.ns_per_elem));
    values.push(("kernels.make_s", pass.make_s));
    values.push(("kernels.validate_s", pass.validate_s));
    values.push(("kernels.run_s", pass.run_s));
    values.push(("core.harness_self_s", pass.harness_self_s));
    values.push(("parallel.steal_ratio", pass.pool.steal_ratio()));
    values.push(("parallel.idle_fraction", pass.pool.idle_fraction()));
    values.push(("parallel.imbalance", pass.pool.imbalance_ratio()));
    values.push(("parallel.parked_fraction", pass.pool.parked_fraction()));
    let report = pass
        .report
        .as_ref()
        .expect("the traced pass ran the harness");
    // The averages panic on a report with no measurable kernel.
    let measurable = !report.has_failures();
    let average = |of: fn(&SuiteReport) -> f64| if measurable { of(report) } else { f64::NAN };
    values.push(("core.gap_x", average(SuiteReport::average_gap)));
    values.push(("core.residual_x", average(SuiteReport::average_residual)));

    // --- model: the roofline, measured in the same run ---------------------
    let calibration = {
        let _span = rec.span("model.measure_host");
        let start = Instant::now();
        let cal = measure_host();
        values.push(("model.calibrate_s", start.elapsed().as_secs_f64()));
        cal
    };
    let machine = machine_from(calibration, pool_threads());
    values.push(("model.peak_gflops", machine.peak_gflops()));
    values.push(("model.stream_gbs", calibration.bandwidth_gbs));
    let pct: Vec<f64> = ladder
        .work()
        .iter()
        .zip(&pass.ninja_s)
        .map(|(work, s)| Attribution::new(work.flops, work.bytes, *s, &machine).roofline_pct)
        .collect();
    values.push(("model.ninja_pct_roofline", geomean(&pct)));

    // --- the layer probes --------------------------------------------------
    let repo_root = benchmark_dir().join("..");
    values.extend(probes::run_all(
        rec,
        pool_threads(),
        report,
        &repo_root,
        &out_dir(),
    )?);
    let spans = recorder.spans();
    values.push(("bench.spans", spans.len() as f64));

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(f64::NAN, |(_, v)| *v);
            (def.name, value, def.unit)
        })
        .collect();
    let notes = vec![
        format!(
            "ladder {:?}: two rounds of own calls beside the harness, {} reps, {} cells, {} not ok",
            ladder.kernels(),
            plan.reps,
            pass.cells,
            pass.failed
        ),
        phase_note("solo", plan.solo, &solo),
        phase_note("burst", plan.burst, &burst),
        phase_note("burst (untraced base)", plan.burst, &base),
        format!(
            "open: {} requests at {} req/s, {} not ok",
            open.attempted, workload.open_rps, open.failed
        ),
    ];
    let phases = [&solo, &burst, &base];
    let wrong = pass.failed
        + phases
            .iter()
            .map(|p| p.incorrect + p.unresolved)
            .sum::<u64>();
    Ok(Output {
        workload: workload.name,
        traced: true,
        correct: wrong == 0 && metrics.iter().all(|m| m.1.is_finite()),
        attempted: pass.cells + phases.iter().map(|p| p.attempted).sum::<u64>() + open.attempted,
        failed: pass.failed + phases.iter().map(|p| p.failed()).sum::<u64>() + open.failed,
        metrics,
        notes,
        spans,
    })
}

/// Writes `text` to `out/<name>` under the benchmark's directory.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
