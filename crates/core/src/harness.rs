//! The measurement driver: runs (kernel × variant) pairs with validation,
//! per-variant fault isolation, and an optional wall-clock watchdog.
//!
//! # Failure semantics
//!
//! A suite run is a grid of (kernel, variant) cells, and one bad cell must
//! not cost the rest of the grid. Each variant's validate+measure step is
//! isolated: panics are caught ([`std::panic::catch_unwind`]) and recorded
//! as [`VariantOutcome::Panicked`] with the original payload's message;
//! validation mismatches become [`VariantOutcome::ValidationFailed`];
//! non-finite checksums become [`VariantOutcome::NonFinite`]. With a
//! [`timeout`](Harness::timeout) budget set, the step runs on a watchdog
//! thread — if the budget elapses the thread is abandoned, the variant is
//! recorded as [`VariantOutcome::TimedOut`], the pool is replaced with a
//! fresh one (the abandoned step may still hold the old pool hostage), and
//! the suite moves on. After a panic or timeout the kernel instance is
//! considered tainted and is rebuilt from its spec before the next variant.

use crate::measure::measure_with_samples;
use crate::report::{KernelReport, SuiteReport, VariantOutcome, VariantResult};
use crate::Measurement;
use ninja_kernels::{registry, Instance, KernelSpec, ProblemSize, Variant};
use ninja_model::{nominal_host, Attribution, Machine};
use ninja_parallel::ThreadPool;
use ninja_probe::counters::{CounterSample, ThreadCounters};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Turns a caught panic payload into the message the report records.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

/// What one isolated validate+measure attempt produced.
enum Attempt {
    Measured {
        timing: Measurement,
        checksum: f64,
        /// Hardware-counter totals over the timed reps (warmup windows
        /// dropped), `None` when counters were off or unavailable.
        counters: Option<CounterSample>,
    },
    Invalid {
        reason: String,
    },
}

/// Runs validation (when enabled) and measurement for one variant. This is
/// the code that executes inside the isolation boundary — inline under
/// `catch_unwind`, or on a watchdog thread when a budget is set. Counter
/// windows open on *this* thread, which is the thread that calls
/// `instance.run` (the caller thread, or the watchdog thread when a
/// budget is set) — pool workers carry their own per-thread groups.
fn exec_variant(
    instance: &mut dyn Instance,
    v: Variant,
    pool: &ThreadPool,
    validate: bool,
    warmup: u32,
    runs: u32,
) -> Attempt {
    if validate {
        let _validate_span = ninja_probe::span("validate");
        if let Err(e) = instance.validate(v, pool) {
            return Attempt::Invalid { reason: e.detail };
        }
    }
    let mut checksum = 0.0;
    let keep_samples = ninja_probe::metrics_enabled();
    let mut counters = ninja_probe::counters_enabled().then(ThreadCounters::open);
    // One delta per `measure` body call, in call order: `warmup` untimed
    // windows first, then `runs` timed ones. Sliced apart after the fact
    // so the totals cover exactly the reps the median covers.
    let mut windows: Vec<Option<CounterSample>> = Vec::new();
    let timing = measure_with_samples(warmup, runs, keep_samples, || match counters.as_mut() {
        Some(c) => {
            let (sum, delta) = c.window(|| instance.run(v, pool));
            checksum = sum;
            if let Some(d) = &delta {
                if ninja_probe::tracing_enabled() {
                    if let Some(ipc) = d.ipc() {
                        ninja_probe::counter("cell ipc", &[("ipc", ipc)]);
                    }
                }
            }
            windows.push(delta);
        }
        None => checksum = instance.run(v, pool),
    });
    let counters = counters.and_then(|c| {
        if !c.status().is_available() {
            return None;
        }
        let mut total = CounterSample::default();
        for delta in windows.iter().skip(warmup as usize).flatten() {
            total.add(delta);
        }
        total.any_counted().then_some(total)
    });
    Attempt::Measured {
        timing,
        checksum,
        counters,
    }
}

/// Configures and runs Ninja-gap measurements.
///
/// Non-consuming builder: configure with [`size`](Harness::size),
/// [`seed`](Harness::seed), [`repetitions`](Harness::repetitions),
/// [`threads`](Harness::threads), [`timeout`](Harness::timeout),
/// [`fail_fast`](Harness::fail_fast), then call
/// [`run_suite`](Harness::run_suite) or [`run_kernel`](Harness::run_kernel).
#[derive(Debug)]
pub struct Harness {
    size: ProblemSize,
    seed: u64,
    warmup: u32,
    runs: u32,
    /// Interior mutability: a timed-out variant may leave its (abandoned)
    /// watchdog thread using the pool, so the harness swaps in a fresh one.
    /// The abandoned thread's `Arc` clone keeps the old pool alive, which
    /// is exactly what makes the swap non-blocking: `ThreadPool::drop`
    /// (which joins workers) never runs while a thread is stuck in it.
    pool: Mutex<Arc<ThreadPool>>,
    threads: usize,
    validate: bool,
    timeout: Option<Duration>,
    fail_fast: bool,
    /// Roofline denominator for per-cell attribution. `None` means "use a
    /// [`nominal_host`] sized to the current thread count" — resolved
    /// lazily so `threads()` never clobbers an explicitly supplied
    /// (e.g. calibrated) machine.
    attribution_machine: Option<Machine>,
}

impl Harness {
    /// Creates a harness with default settings: `Quick` size, seed 42, one
    /// warmup plus three timed runs, a hardware-sized pool, validation on,
    /// no watchdog, keep-going on failures.
    pub fn new() -> Self {
        let threads = ninja_parallel::hardware_threads();
        Self {
            size: ProblemSize::Quick,
            seed: 42,
            warmup: 1,
            runs: 3,
            pool: Mutex::new(Arc::new(ThreadPool::new())),
            threads,
            validate: true,
            timeout: None,
            fail_fast: false,
            attribution_machine: None,
        }
    }

    /// Sets the problem-size preset.
    pub fn size(mut self, size: ProblemSize) -> Self {
        self.size = size;
        self
    }

    /// Sets the input-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of timed repetitions (median is reported).
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn repetitions(mut self, runs: u32) -> Self {
        assert!(runs > 0, "need at least one repetition");
        self.runs = runs;
        self
    }

    /// Sets the number of pool threads used by parallel variants.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self.pool = Mutex::new(self.make_pool());
        self
    }

    /// Disables output validation (measurement only). Validation is on by
    /// default and strongly recommended.
    pub fn skip_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Sets a per-variant wall-clock budget covering validate+measure.
    ///
    /// Off by default (benchmarks should never eat a watchdog-thread
    /// context switch); the `reproduce` binary turns it on so a hung
    /// variant cannot stall the full reproduction. A variant exceeding the
    /// budget is recorded as [`VariantOutcome::TimedOut`] and its thread
    /// abandoned; the pool is rebuilt so later variants run on healthy
    /// workers.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Removes the per-variant budget (the default).
    pub fn no_timeout(mut self) -> Self {
        self.timeout = None;
        self
    }

    /// Stops the run at the first failed variant (remaining variants and
    /// kernels are simply absent from the report). Default is keep-going:
    /// record the failure and continue.
    pub fn fail_fast(mut self, enabled: bool) -> Self {
        self.fail_fast = enabled;
        self
    }

    /// Sets the machine description used as the roofline denominator when
    /// attributing measured cells (achieved GFLOP/s, percent-of-roofline,
    /// bound classification). Defaults to an uncalibrated
    /// [`nominal_host`] sized to the thread count; pass a machine built by
    /// `ninja_model::calibrate::machine_from` from a
    /// [`ninja_model::measure_host`] calibration for absolute numbers worth
    /// quoting.
    pub fn attribution_machine(mut self, machine: Machine) -> Self {
        self.attribution_machine = Some(machine);
        self
    }

    /// The machine cells are attributed against (explicit or nominal).
    fn machine(&self) -> Machine {
        self.attribution_machine
            .clone()
            .unwrap_or_else(|| nominal_host(self.threads))
    }

    /// Number of threads parallel variants will use.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The current pool handle (test hook; the handle changes after a
    /// timeout rebuilds the pool).
    fn pool_handle(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool.lock())
    }

    /// Builds a pool of the harness's thread count.
    fn make_pool(&self) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::with_threads(self.threads))
    }

    /// Cumulative scheduler counters from the current pool (all zeros
    /// unless [`ninja_probe::set_metrics`] was on while work ran; the
    /// handle resets after a timeout rebuilds the pool).
    pub fn pool_metrics(&self) -> ninja_probe::PoolMetrics {
        self.pool_handle().metrics()
    }

    /// Replaces the pool after a timeout abandoned a thread that may still
    /// be using (or blocking) the old one.
    fn rebuild_pool(&self) {
        *self.pool.lock() = self.make_pool();
    }

    /// Runs one variant inside the isolation boundary, returning the
    /// instance for reuse when it survived untainted.
    fn run_variant(
        &self,
        spec: &KernelSpec,
        v: Variant,
        mut instance: Box<dyn Instance>,
        work: ninja_kernels::Work,
    ) -> (Option<Box<dyn Instance>>, VariantResult) {
        let _variant_span = if ninja_probe::tracing_enabled() {
            Some(ninja_probe::span(&format!("variant:{}/{}", spec.name, v)))
        } else {
            None
        };
        let pool = self.pool_handle();
        // A second handle for metrics snapshots: `pool` is moved into the
        // watchdog thread when a budget is set, but the Arc it clones from
        // stays ours to inspect after the attempt returns.
        let metrics_pool = Arc::clone(&pool);
        let pool_before = ninja_probe::metrics_enabled().then(|| metrics_pool.metrics());
        let (validate, warmup, runs) = (self.validate, self.warmup, self.runs);

        let (instance, attempt) = match self.timeout {
            None => {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    exec_variant(instance.as_mut(), v, &pool, validate, warmup, runs)
                }));
                match attempt {
                    Ok(a) => (Some(instance), Ok(a)),
                    Err(payload) => (None, Err(panic_message(payload.as_ref()))),
                }
            }
            Some(budget) => {
                let (tx, rx) = mpsc::channel();
                let builder =
                    std::thread::Builder::new().name(format!("watchdog-{}-{}", spec.name, v));
                let handle = builder
                    .spawn(move || {
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            exec_variant(instance.as_mut(), v, &pool, validate, warmup, runs)
                        }));
                        // The receiver may have given up (timeout); a send
                        // error just drops the instance with this thread.
                        let _ = tx.send((instance, attempt));
                    })
                    .expect("spawn watchdog thread");
                match rx.recv_timeout(budget) {
                    Ok((instance, Ok(a))) => {
                        let _ = handle.join();
                        (Some(instance), Ok(a))
                    }
                    Ok((_tainted, Err(payload))) => {
                        let _ = handle.join();
                        (None, Err(panic_message(payload.as_ref())))
                    }
                    Err(_) => {
                        // The variant is stuck; abandon its thread (it holds
                        // an Arc to the old pool, keeping it alive) and give
                        // later variants a fresh pool. The abandoned thread
                        // may hold an open trace span that will never close;
                        // tag it so span validation knows the unpaired B
                        // event is abandonment, not a tracer bug.
                        ninja_probe::mark_thread_abandoned(&format!(
                            "watchdog-{}-{}",
                            spec.name, v
                        ));
                        drop(handle);
                        self.rebuild_pool();
                        let outcome = VariantOutcome::TimedOut {
                            budget_s: budget.as_secs_f64(),
                        };
                        return (None, VariantResult::failed(v, validate, outcome));
                    }
                }
            }
        };

        let result = match attempt {
            Err(message) => {
                VariantResult::failed(v, validate, VariantOutcome::Panicked { message })
            }
            Ok(Attempt::Invalid { reason }) => {
                VariantResult::failed(v, validate, VariantOutcome::ValidationFailed { reason })
            }
            Ok(Attempt::Measured { checksum, .. }) if !checksum.is_finite() => {
                VariantResult::failed(v, validate, VariantOutcome::NonFinite)
            }
            Ok(Attempt::Measured {
                timing,
                checksum,
                counters,
            }) => {
                let median = timing.median_s;
                let machine = self.machine();
                let mut attribution = Attribution::new(work.flops, work.bytes, median, &machine);
                if let Some(before) = pool_before {
                    let window = metrics_pool.metrics().delta(&before);
                    if window.total_busy_ns() > 0 {
                        attribution = attribution.with_pool(
                            window.imbalance_ratio(),
                            window.idle_fraction(),
                            window.steal_ratio(),
                        );
                    }
                }
                if let Some(sample) = &counters {
                    attribution = attribution.with_counters(
                        &machine,
                        sample.ipc(),
                        sample.llc_miss_rate(),
                        sample.dram_gbs(),
                    );
                }
                VariantResult {
                    variant: v.name().to_owned(),
                    timing: Some(timing),
                    checksum,
                    gflops: work.flops / median / 1e9,
                    gbs: work.bytes / median / 1e9,
                    validated: validate,
                    outcome: VariantOutcome::Ok,
                    attribution: Some(attribution),
                }
            }
        };
        (instance, result)
    }

    /// Builds a fresh instance for `spec`, converting a panicking factory
    /// into a recorded failure instead of a crashed suite.
    fn make_instance(&self, spec: &KernelSpec) -> Result<Box<dyn Instance>, String> {
        catch_unwind(AssertUnwindSafe(|| (spec.make)(self.size, self.seed)))
            .map_err(|payload| panic_message(payload.as_ref()))
    }

    /// Runs every variant of one kernel.
    ///
    /// Never panics on a misbehaving variant: each variant's outcome
    /// (including panics, validation failures, timeouts, and non-finite
    /// checksums) is recorded in the report.
    pub fn run_kernel(&self, spec: &KernelSpec) -> KernelReport {
        let _kernel_span = if ninja_probe::tracing_enabled() {
            Some(ninja_probe::span(&format!("kernel:{}", spec.name)))
        } else {
            None
        };
        let mut variants = Vec::with_capacity(Variant::ALL.len());
        let mut instance = match self.make_instance(spec) {
            Ok(i) => Some(i),
            Err(message) => {
                // The factory itself died: every variant inherits the failure.
                for v in Variant::ALL {
                    variants.push(VariantResult::failed(
                        v,
                        self.validate,
                        VariantOutcome::Panicked {
                            message: message.clone(),
                        },
                    ));
                }
                return KernelReport {
                    kernel: spec.name.to_owned(),
                    bound: spec.bound.to_owned(),
                    variants,
                };
            }
        };
        let work = instance.as_ref().map(|i| i.work()).unwrap_or_default();
        for v in Variant::ALL {
            // Rebuild the instance if the previous variant tainted it
            // (panic or timeout); inputs are seed-deterministic, so the
            // rebuilt instance measures the same problem.
            let inst = match instance.take() {
                Some(i) => i,
                None => match self.make_instance(spec) {
                    Ok(i) => i,
                    Err(message) => {
                        variants.push(VariantResult::failed(
                            v,
                            self.validate,
                            VariantOutcome::Panicked { message },
                        ));
                        continue;
                    }
                },
            };
            let (back, result) = self.run_variant(spec, v, inst, work);
            instance = back;
            let failed = !result.is_ok();
            variants.push(result);
            if failed && self.fail_fast {
                break;
            }
        }
        KernelReport {
            kernel: spec.name.to_owned(),
            bound: spec.bound.to_owned(),
            variants,
        }
    }

    /// Runs an explicit list of kernel specs (the full registry plus any
    /// injected extras — e.g. the chaos kernel in fault-injection tests).
    ///
    /// With [`fail_fast`](Harness::fail_fast) the run stops after the
    /// first kernel that records a failure; otherwise every spec runs and
    /// failures are recorded per variant.
    pub fn run_specs(&self, specs: &[KernelSpec]) -> SuiteReport {
        let _suite_span = ninja_probe::span("suite");
        let mut report = SuiteReport::new_empty(self.size, self.seed, self.threads);
        for spec in specs {
            let kernel_report = self.run_kernel(spec);
            let failed = kernel_report.failures().next().is_some();
            report.kernels.push(kernel_report);
            if failed && self.fail_fast {
                break;
            }
        }
        report
    }

    /// Runs the full ten-kernel suite.
    pub fn run_suite(&self) -> SuiteReport {
        self.run_specs(&registry())
    }

    /// Runs a named subset of the suite (names as in the registry).
    pub fn run_kernels(&self, names: &[&str]) -> SuiteReport {
        let specs: Vec<KernelSpec> = registry()
            .into_iter()
            .filter(|s| names.contains(&s.name))
            .collect();
        self.run_specs(&specs)
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_kernels::chaos::{self, FailureMode};

    fn test_harness() -> Harness {
        Harness::new()
            .size(ProblemSize::Test)
            .threads(2)
            .repetitions(1)
    }

    fn outcome_of(r: &KernelReport, v: Variant) -> &VariantOutcome {
        &r.variants
            .iter()
            .find(|x| x.variant == v.name())
            .expect("variant present")
            .outcome
    }

    #[test]
    fn runs_one_kernel_with_all_variants() {
        let h = test_harness();
        let spec = &registry()[0];
        let r = h.run_kernel(spec);
        assert_eq!(r.kernel, spec.name);
        assert_eq!(r.variants.len(), 5);
        assert!(r.variants.iter().all(|v| v.validated));
        assert!(r.variants.iter().all(|v| v.is_ok()));
        assert!(r.measured_gap().unwrap() > 0.0);
    }

    #[test]
    fn subset_run_filters_by_name() {
        let h = test_harness();
        let r = h.run_kernels(&["nbody", "lbm"]);
        let names: Vec<_> = r.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(names, ["nbody", "lbm"]);
    }

    #[test]
    fn checksums_are_consistent_across_variants() {
        let h = test_harness();
        let r = h.run_kernel(&registry()[2]); // conv1d
        let naive = r.variants[0].checksum;
        for v in &r.variants {
            let rel = (v.checksum - naive).abs() / naive.abs().max(1.0);
            assert!(rel < 1e-2, "{}: {} vs {}", v.variant, v.checksum, naive);
        }
    }

    #[test]
    fn skip_validation_still_measures() {
        let h = Harness::new()
            .size(ProblemSize::Test)
            .threads(1)
            .repetitions(1)
            .skip_validation();
        let r = h.run_kernel(&registry()[3]); // blackscholes
        assert!(r.variants.iter().all(|v| !v.validated));
        assert!(r.variants.iter().all(|v| v.timing.is_some()));
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        let _ = Harness::new().repetitions(0);
    }

    #[test]
    fn chaos_panic_is_isolated_and_named() {
        // Victim = simd (seed 2); the other four variants still measure.
        let h = test_harness().seed(2);
        let r = h.run_kernel(&chaos::spec(FailureMode::Panic));
        match outcome_of(&r, Variant::Simd) {
            VariantOutcome::Panicked { message } => {
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        for v in [
            Variant::Naive,
            Variant::Parallel,
            Variant::Algorithmic,
            Variant::Ninja,
        ] {
            assert!(outcome_of(&r, v).is_ok(), "{v} should have measured");
        }
    }

    #[test]
    fn chaos_wrong_output_records_validation_failure() {
        let h = test_harness().seed(4);
        let r = h.run_kernel(&chaos::spec(FailureMode::WrongOutput));
        match outcome_of(&r, Variant::Ninja) {
            VariantOutcome::ValidationFailed { reason } => {
                assert!(reason.contains("injected corruption"), "{reason}");
            }
            other => panic!("expected ValidationFailed, got {other:?}"),
        }
        assert_eq!(r.failures().count(), 1);
    }

    #[test]
    fn chaos_nan_records_non_finite() {
        let h = test_harness().seed(0);
        let r = h.run_kernel(&chaos::spec(FailureMode::NonFinite));
        assert_eq!(*outcome_of(&r, Variant::Naive), VariantOutcome::NonFinite);
        // The naive failure must not poison the other variants.
        assert_eq!(r.failures().count(), 1);
    }

    #[test]
    fn chaos_hang_times_out_and_pool_recovers() {
        let h = test_harness().timeout(Duration::from_millis(200)).seed(1);
        let r = h.run_kernel(&chaos::spec(FailureMode::Hang));
        match outcome_of(&r, Variant::Parallel) {
            VariantOutcome::TimedOut { budget_s } => {
                assert!((*budget_s - 0.2).abs() < 1e-9);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        // Variants after the hang still measure on the rebuilt pool.
        for v in [Variant::Simd, Variant::Algorithmic, Variant::Ninja] {
            assert!(outcome_of(&r, v).is_ok(), "{v} should have measured");
        }
        // And a real kernel still runs end-to-end afterwards.
        let real = h.run_kernel(&registry()[0]);
        assert!(real.variants.iter().all(|v| v.is_ok()));
    }

    #[test]
    fn suite_completes_with_chaos_injected() {
        let h = test_harness().timeout(Duration::from_millis(200)).seed(0);
        let mut specs = vec![chaos::spec(FailureMode::Panic)];
        specs.extend(registry().into_iter().take(2));
        let r = h.run_specs(&specs);
        assert_eq!(r.kernels.len(), 3);
        assert!(r.has_failures());
        // Both real kernels after the chaos one measured cleanly.
        for k in &r.kernels[1..] {
            assert!(k.failures().next().is_none(), "{} had failures", k.kernel);
        }
    }

    #[test]
    fn fail_fast_stops_after_first_failure() {
        let h = test_harness().fail_fast(true).seed(0);
        let mut specs = vec![chaos::spec(FailureMode::WrongOutput)];
        specs.extend(registry().into_iter().take(2));
        let r = h.run_specs(&specs);
        // The chaos kernel stops mid-ladder and no further kernel runs.
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].variants.len(), 1);
        assert!(!r.kernels[0].variants[0].is_ok());
    }

    /// The probe's metrics switch is process-global: the test that turns
    /// it on and the test that asserts it is off take turns.
    static METRICS_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn measured_cells_carry_attribution() {
        let _off = METRICS_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let h = test_harness();
        let r = h.run_kernel(&registry()[0]);
        for v in &r.variants {
            let a = v.attribution.as_ref().expect("measured cell attributed");
            assert!(a.achieved_gflops > 0.0, "{}: {a:?}", v.variant);
            assert!(a.roofline_pct > 0.0, "{}: {a:?}", v.variant);
            assert!(!a.bound.is_empty());
            // Probe metrics are off, so no pool window was recorded.
            assert!(!a.has_pool_data(), "{}: {a:?}", v.variant);
        }
    }

    #[test]
    fn metrics_flag_adds_pool_attribution_and_raw_samples() {
        let _on = METRICS_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        ninja_probe::set_metrics(true);
        let h = test_harness();
        let r = h.run_kernel(&registry()[0]);
        ninja_probe::set_metrics(false);
        let par = r
            .variants
            .iter()
            .find(|x| x.variant == Variant::Parallel.name())
            .expect("parallel variant present");
        let a = par.attribution.as_ref().expect("attributed");
        assert!(a.has_pool_data(), "pool window should be recorded: {a:?}");
        assert!(a.pool_idle_pct >= 0.0 && a.pool_idle_pct <= 100.0);
        let t = par.timing.as_ref().expect("measured");
        assert_eq!(
            t.samples.len(),
            t.runs as usize,
            "metrics flag opts into raw per-rep samples"
        );
    }

    /// Serializes the tests that toggle the global counters flag or the
    /// force-unavailable env var (the test harness runs tests in threads).
    static COUNTER_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_flag_attaches_measured_attribution_or_degrades_cleanly() {
        let _guard = COUNTER_TEST_LOCK.lock();
        ninja_probe::set_counters(true);
        let h = test_harness();
        let r = h.run_kernel(&registry()[3]); // blackscholes
        ninja_probe::set_counters(false);
        // Counter trouble must never fail a measurement.
        assert!(r.variants.iter().all(|v| v.is_ok()));
        let available = ninja_probe::counters::availability().is_available();
        for v in &r.variants {
            let a = v.attribution.as_ref().expect("attributed");
            if available {
                assert!(a.has_counter_data(), "{}: {a:?}", v.variant);
                assert!(a.measured_ipc.expect("ipc measured") > 0.0);
                assert!(a.measured_bound.is_some());
                assert!(a.agreement.is_some());
            } else {
                // Degradation contract: unchanged analytical attribution,
                // no fabricated measured fields.
                assert!(!a.has_counter_data(), "{}: {a:?}", v.variant);
                assert!(a.roofline_pct > 0.0);
            }
        }
    }

    #[test]
    fn forced_unavailable_counters_never_fail_measurement() {
        let _guard = COUNTER_TEST_LOCK.lock();
        std::env::set_var(ninja_probe::counters::FORCE_UNAVAILABLE_ENV, "1");
        ninja_probe::set_counters(true);
        let h = test_harness();
        let r = h.run_kernel(&registry()[0]);
        ninja_probe::set_counters(false);
        std::env::remove_var(ninja_probe::counters::FORCE_UNAVAILABLE_ENV);
        assert!(r.variants.iter().all(|v| v.is_ok()));
        for v in &r.variants {
            let a = v.attribution.as_ref().expect("attributed");
            assert!(!a.has_counter_data(), "{}: {a:?}", v.variant);
            assert_eq!(a.agreement, None);
        }
    }

    #[test]
    fn pool_metrics_snapshot_tracks_the_configured_pool() {
        let h = test_harness();
        // Metrics flag is off here, so counters are zero — but the
        // snapshot's shape tracks the configured pool.
        let m = h.pool_metrics();
        assert_eq!(m.threads, h.num_threads());
        assert_eq!(m.workers.len(), h.num_threads());
    }

    #[test]
    fn explicit_attribution_machine_survives_thread_changes() {
        let h = Harness::new()
            .attribution_machine(ninja_model::machines::westmere())
            .threads(2);
        assert_eq!(h.machine().name, "Core i7 X980 (Westmere)");
        // Without an explicit machine the nominal host tracks threads.
        let h = Harness::new().threads(3);
        assert_eq!(h.machine().cores, 3);
        assert_eq!(h.machine().year, 0, "nominal host is marked synthetic");
    }

    #[test]
    fn timeout_on_healthy_kernel_changes_nothing() {
        let h = test_harness().timeout(Duration::from_secs(120));
        let r = h.run_kernel(&registry()[3]); // blackscholes
        assert!(r.variants.iter().all(|v| v.is_ok()));
        assert!(r.measured_gap().is_some());
    }
}
