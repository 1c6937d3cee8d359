//! What the benchmark runs and what it reports: the four workloads and
//! the two metric tables. `BENCHMARK.json` restates these tables for the
//! driver; `tests/contract.rs` keeps the two in step.

use ninja_kernels::ProblemSize;

use Better::{Higher, Lower};

/// The kernel a workload serves through `ninja-serve`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Served {
    /// `BlackScholesServe`: the math is ~1% of a batch cycle.
    BlackScholes,
    /// `LiborServe`: the `f64` reference is about half of a batch cycle.
    Libor,
    /// `TreeSearchServe` over a resident tree of the given size.
    TreeSearch(ProblemSize),
}

/// One workload: the kernels its ladder phase measures and the kernel its
/// serving phases drive. Every workload runs the same pipeline, so every
/// metric exists on every workload.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Registry names of the ladder kernels.
    pub ladder: &'static [&'static str],
    /// The served kernel.
    pub served: Served,
    /// A response later than this does not count towards `goodput_rps`.
    pub latency_limit_us: u64,
    /// Fixed offered rate of the traced run's open-loop phase.
    pub open_rps: f64,
    /// Why the workload exists (restated in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads. Treesearch is served but not laddered: one Quick
/// rung set of it costs 1.9 s, three times the other nine kernels' 0.6 s
/// mean, and would leave its workload a single pass per run.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compute-light",
        ladder: &["conv1d", "blackscholes", "conv2d"],
        served: Served::BlackScholes,
        latency_limit_us: 2_000,
        open_rps: 20_000.0,
        why: "dense FMA/transcendental ladder, and a served kernel whose math is ~1% of a batch: SIMD width shows in the ladder, queue/ticket/thread-hop cost in serving",
    },
    Workload {
        name: "compute-heavy",
        ladder: &["nbody", "libor"],
        served: Served::Libor,
        latency_limit_us: 5_000,
        open_rps: 10_000.0,
        why: "compute-bound ladder with the largest residuals, and a served kernel whose f64 reference is half of a batch: validation cost bounds served throughput here",
    },
    Workload {
        name: "memory-gather",
        ladder: &["backprojection", "volumerender"],
        served: Served::TreeSearch(ProblemSize::Quick),
        latency_limit_us: 2_000,
        open_rps: 20_000.0,
        why: "gather-bound ladder and lookups in a 1M-key tree beyond L2: a layout or blocking change should move it, a wider FMA should not",
    },
    Workload {
        name: "memory-stream",
        ladder: &["mergesort", "lbm"],
        served: Served::TreeSearch(ProblemSize::Test),
        latency_limit_us: 2_000,
        open_rps: 20_000.0,
        why: "streaming/merge ladder (bandwidth, join recursion) and lookups in an L1-resident tree: the control for memory-gather, where a tree layout change predicts no movement",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is better.
    Lower,
    /// A larger value is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, from the untraced run.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("naive_ns_per_elem", "ns", Lower, 0.20),
    e2e("algorithmic_ns_per_elem", "ns", Lower, 0.20),
    e2e("ninja_ns_per_elem", "ns", Lower, 0.20),
    e2e("suite_wall_s", "s", Lower, 0.20),
    e2e("rtt_p50_us", "us", Lower, 0.25),
    e2e("goodput_rps", "1/s", Higher, 0.25),
    e2e("burst_p99_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, from the traced run. Layers are crate names.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("kernels.naive.ns_per_elem", "ns", Lower),
    layer("kernels.parallel.ns_per_elem", "ns", Lower),
    layer("kernels.simd.ns_per_elem", "ns", Lower),
    layer("kernels.algorithmic.ns_per_elem", "ns", Lower),
    layer("kernels.ninja.ns_per_elem", "ns", Lower),
    layer("kernels.make_s", "s", Lower),
    layer("kernels.validate_s", "s", Lower),
    layer("kernels.run_s", "s", Lower),
    layer("simd.dispatch_ns", "ns", Lower),
    layer("simd.fma_gelem_s", "Gelem/s", Higher),
    layer("simd.exp_gelem_s", "Gelem/s", Higher),
    layer("simd.gather_gelem_s", "Gelem/s", Higher),
    layer("simd.width_bits", "bits", Higher),
    layer("parallel.region_cold_us", "us", Lower),
    layer("parallel.join_us", "us", Lower),
    layer("parallel.steal_ratio", "ratio", Higher),
    layer("parallel.idle_fraction", "ratio", Lower),
    layer("parallel.imbalance", "ratio", Lower),
    layer("parallel.parked_fraction", "ratio", Lower),
    layer("core.harness_self_s", "s", Lower),
    layer("core.noop_cell_us", "us", Lower),
    layer("core.noop_cell_watchdog_us", "us", Lower),
    layer("core.report_ms", "ms", Lower),
    layer("core.gap_x", "x", Higher),
    layer("core.residual_x", "x", Lower),
    layer("model.calibrate_s", "s", Lower),
    layer("model.peak_gflops", "GFLOP/s", Higher),
    layer("model.stream_gbs", "GB/s", Higher),
    layer("model.ninja_pct_roofline", "%", Higher),
    layer("probe.span_off_ns", "ns", Lower),
    layer("probe.span_on_ns", "ns", Lower),
    layer("counters.available", "count", Higher),
    layer("counters.window_ns", "ns", Lower),
    layer("perfdb.append_ms", "ms", Lower),
    layer("perfdb.load_ms", "ms", Lower),
    layer("perfdb.compare_ms", "ms", Lower),
    layer("lint.scan_ms", "ms", Lower),
    layer("serve.admit_ns", "ns", Lower),
    layer("serve.queue_p50_us", "us", Lower),
    layer("serve.queue_p99_us", "us", Lower),
    layer("serve.batches", "count", Higher),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.reference_us_per_batch", "us", Lower),
    layer("serve.execute_us_per_batch", "us", Lower),
    layer("serve.matches_ns_per_req", "ns", Lower),
    layer("serve.reference_share", "ratio", Lower),
    layer("serve.execute_share", "ratio", Lower),
    layer("serve.resolve_us", "us", Lower),
    layer("serve.attempts_per_batch", "ratio", Lower),
    layer("serve.degraded_share", "ratio", Lower),
    layer("serve.attempt_timeouts", "count", Lower),
    layer("serve.rtt_p99_us", "us", Lower),
    layer("serve.open_p50_us", "us", Lower),
    layer("serve.open_p99_us", "us", Lower),
    layer("bench.generator_lag_p99_us", "us", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.spans", "count", Higher),
];

/// Default `--seconds`; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;
