//! The ladder phase: the workload's kernels at all five rungs.
//!
//! The untraced run drives `Harness::run_specs` as `reproduce` does
//! (validation on, watchdog on) and repeats whole passes until its share
//! of `--seconds` is spent. The traced run makes the same calls itself,
//! one span each, beside one `Harness` pass, so the harness's own cost is
//! what its spans have over the calls they wrap.

use std::time::{Duration, Instant};

use ninja_core::{Harness, KernelReport, SuiteReport};
use ninja_kernels::{registry, Instance, KernelSpec, ProblemSize, Variant, Work};
use ninja_parallel::ThreadPool;
use ninja_probe::PoolMetrics;

use crate::spec::Workload;
use crate::stats::{fastest, geomean};
use crate::trace::{total_seconds, Recorder};

/// Pool threads of the ladder phase: the two cores `nproc` reports here,
/// never more than the host has.
pub fn pool_threads() -> usize {
    ninja_parallel::hardware_threads().min(2)
}

/// Timed repetitions per cell and pass.
pub const REPS: u32 = 3;
/// Rounds of the traced pass. This guest's scheduler now and then keeps a
/// pool's caller and worker on one core for a second or two while the
/// other idles (threaded rungs then read naive speed); the untraced run's
/// many passes ride that out, the traced run takes the faster of two.
pub const TRACED_ROUNDS: usize = 2;
/// Per-variant watchdog, as `reproduce` sets it.
pub const WATCHDOG: Duration = Duration::from_secs(30);

/// The rungs reported end to end; `parallel` and `simd` are per-layer only.
pub const END_TO_END_RUNGS: [Variant; 3] = [Variant::Naive, Variant::Algorithmic, Variant::Ninja];

/// The ladder phase's set-up: a configured harness, the workload's specs,
/// and each kernel's work accounting (read off one generated instance).
pub struct Ladder {
    harness: Harness,
    specs: Vec<KernelSpec>,
    work: Vec<Work>,
    size: ProblemSize,
    seed: u64,
    reps: u32,
}

/// Per-pass results of the untraced ladder phase.
#[derive(Debug, Default)]
pub struct Passes {
    /// `[kernel][rung]`: the fastest repetition of each pass, seconds.
    pub fastest: Vec<[Vec<f64>; 5]>,
    /// Wall seconds of each pass, validation and instance generation included.
    pub walls: Vec<f64>,
    /// Cells run.
    pub cells: u64,
    /// Cells whose `VariantOutcome` was not `Ok`.
    pub failed: u64,
}

impl Ladder {
    /// Builds the harness and generates one instance per kernel.
    pub fn set_up(workload: &Workload, size: ProblemSize, seed: u64, reps: u32) -> Self {
        let mut all = registry();
        let specs: Vec<KernelSpec> = workload
            .ladder
            .iter()
            .map(|name| {
                let at = all
                    .iter()
                    .position(|s| s.name == *name)
                    .expect("workload names a registry kernel");
                all.swap_remove(at)
            })
            .collect();
        let work = specs.iter().map(|s| (s.make)(size, seed).work()).collect();
        let harness = Harness::new()
            .size(size)
            .seed(seed)
            .repetitions(reps)
            .threads(pool_threads())
            .timeout(WATCHDOG);
        Self {
            harness,
            specs,
            work,
            size,
            seed,
            reps,
        }
    }

    /// Names of the ladder kernels, in run order.
    pub fn kernels(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Runs whole `Harness::run_specs` passes until another would overrun
    /// `budget`; always at least one.
    pub fn run_passes(&self, budget: Duration) -> Passes {
        let mut passes = Passes {
            fastest: vec![Default::default(); self.specs.len()],
            ..Passes::default()
        };
        let start = Instant::now();
        loop {
            let pass_start = Instant::now();
            let report = self.harness.run_specs(&self.specs);
            let wall = pass_start.elapsed();
            passes.walls.push(wall.as_secs_f64());
            passes.record(&report);
            if start.elapsed() + wall > budget {
                return passes;
            }
        }
    }

    /// Geomean over kernels of `rung`'s ns per output element, each cell
    /// its fastest repetition of the whole phase.
    pub fn ns_per_elem(&self, passes: &Passes, rung: Variant) -> f64 {
        let r = rung_index(rung);
        let cells: Vec<f64> = passes
            .fastest
            .iter()
            .zip(&self.work)
            .map(|(k, work)| fastest(&k[r]) / work.elems as f64 * 1e9)
            .collect();
        geomean(&cells)
    }

    /// The traced pass, `TRACED_ROUNDS` times over. Per kernel, every call
    /// the harness makes is made here with a span each (`make`, then per
    /// rung `validate`, one warm-up `run` and `REPS` timed `run`s), and then
    /// the harness runs the same kernel under one `harness` span.
    pub fn traced_pass(&self, recorder: &Recorder) -> TracedPass {
        let pool = ThreadPool::with_threads(pool_threads());
        let mut out = TracedPass::default();
        let mut cells = vec![[f64::NAN; 5]; self.specs.len()];
        let mut harness_cells = Passes {
            fastest: vec![Default::default(); self.specs.len()],
            ..Passes::default()
        };
        ninja_probe::set_metrics(true);
        let before = self.harness.pool_metrics();
        let rounds = (0..TRACED_ROUNDS).flat_map(|_| self.specs.iter().enumerate());
        for (k, spec) in rounds {
            let _kernel = recorder.span(format!("kernel:{}", spec.name));
            let mut instance = {
                let _make = recorder.span("make");
                (spec.make)(self.size, self.seed)
            };
            for (r, rung) in Variant::ALL.into_iter().enumerate() {
                out.cells += 1;
                // A thread per cell, as the harness's watchdog gives each.
                let cell = std::thread::scope(|s| {
                    let cell = s.spawn(|| {
                        self.traced_cell(recorder, spec.name, &mut *instance, rung, &pool)
                    });
                    cell.join().expect("a kernel panicked in the traced pass")
                });
                match cell {
                    Some(seconds) => cells[k][r] = seconds.min(cells[k][r]),
                    None => out.failed += 1,
                }
            }
            drop(instance);

            let report = {
                let _harness = recorder.span("harness");
                self.harness.run_specs(std::slice::from_ref(spec))
            };
            harness_cells.record_kernel(k, &report.kernels[0]);
            match &mut out.report {
                Some(all) if k > 0 => all.kernels.extend(report.kernels),
                _ => out.report = Some(report),
            }
        }
        out.pool = self.harness.pool_metrics().delta(&before);
        ninja_probe::set_metrics(false);
        out.cells += harness_cells.cells;
        out.failed += harness_cells.failed;

        for (r, slot) in out.ns_per_elem.iter_mut().enumerate() {
            let per_kernel: Vec<f64> = cells
                .iter()
                .zip(&self.work)
                .map(|(k, work)| k[r] / work.elems as f64 * 1e9)
                .collect();
            *slot = geomean(&per_kernel);
        }
        out.ninja_s = cells
            .iter()
            .map(|k| k[rung_index(Variant::Ninja)])
            .collect();
        let spans = recorder.spans();
        out.make_s = total_seconds(&spans, "make");
        out.validate_s = total_seconds(&spans, "validate");
        out.run_s = total_seconds(&spans, "run");
        out.harness_self_s =
            total_seconds(&spans, "harness") - (out.make_s + out.validate_s + out.run_s);
        out
    }

    /// One cell of the traced pass: `validate`, a warm-up `run` and `REPS`
    /// timed `run`s; the fastest timed run, or `None` if validation failed.
    fn traced_cell(
        &self,
        recorder: &Recorder,
        kernel: &str,
        instance: &mut dyn Instance,
        rung: Variant,
        pool: &ThreadPool,
    ) -> Option<f64> {
        let _cell = recorder.span(format!("cell:{kernel}/{rung}"));
        {
            let _validate = recorder.span("validate");
            instance.validate(rung, pool).ok()?;
        }
        let mut times = Vec::with_capacity(self.reps as usize);
        for rep in 0..=self.reps {
            let _run = recorder.span("run");
            let t = Instant::now();
            std::hint::black_box(instance.run(rung, pool));
            if rep > 0 {
                times.push(t.elapsed().as_secs_f64());
            }
        }
        Some(fastest(&times))
    }

    /// Work accounting per kernel, in run order.
    pub fn work(&self) -> &[Work] {
        &self.work
    }
}

impl Passes {
    fn record(&mut self, report: &SuiteReport) {
        for (k, kernel) in report.kernels.iter().enumerate() {
            self.record_kernel(k, kernel);
        }
    }

    fn record_kernel(&mut self, k: usize, kernel: &KernelReport) {
        for (r, rung) in Variant::ALL.into_iter().enumerate() {
            self.cells += 1;
            let cell = kernel
                .variants
                .iter()
                .find(|v| v.variant == rung.name())
                .filter(|v| v.is_ok());
            match cell.and_then(|v| v.timing.as_ref()) {
                Some(timing) => self.fastest[k][r].push(timing.min_s),
                None => self.failed += 1,
            }
        }
    }
}

fn rung_index(rung: Variant) -> usize {
    Variant::ALL
        .iter()
        .position(|v| *v == rung)
        .expect("rung is on the ladder")
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Geomean ns per element of each rung, `Variant::ALL` order, from
    /// the benchmark's own `Instance::run` calls.
    pub ns_per_elem: [f64; 5],
    /// Fastest repetition of each kernel's ninja rung, seconds.
    pub ninja_s: Vec<f64>,
    /// Total seconds in `(spec.make)`.
    pub make_s: f64,
    /// Total seconds in `Instance::validate`.
    pub validate_s: f64,
    /// Total seconds in `Instance::run`.
    pub run_s: f64,
    /// The harness pass's span minus the calls it wraps.
    pub harness_self_s: f64,
    /// Pool counters over the harness pass.
    pub pool: PoolMetrics,
    /// The last round's harness report.
    pub report: Option<SuiteReport>,
    /// Cells run, by the benchmark's calls and by the harness.
    pub cells: u64,
    /// Cells that failed validation or were not `Ok`.
    pub failed: u64,
}
