//! Layer probes of the traced run: a few seconds of timing calls into
//! each layer's public functions. None of these layers except `simd` and
//! `parallel` is on a timed path of the untraced run, so their numbers
//! guard the cost of looking rather than predict an end-to-end change.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ninja_core::{Harness, SuiteReport};
use ninja_kernels::{
    Characterization, Instance, KernelSpec, ProblemSize, ValidationError, Variant, VariantInfo,
    Work,
};
use ninja_parallel::ThreadPool;
use ninja_perfdb::{compare_records, CompareConfig, RecordMeta, Store};
use ninja_simd::isa::{self, dispatch, Isa, IsaOp, SimdF32, SimdI32};

use crate::stats::median;
use crate::trace::Recorder;

/// Name, value.
pub type Reading = (&'static str, f64);

fn seconds_per_call(calls: u32, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        body();
    }
    start.elapsed().as_secs_f64() / calls as f64
}

fn median_us(samples: u32, mut body: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

// --- simd ------------------------------------------------------------------

/// Elements per array: three `f32` arrays of this length fit L1.
const L1_ELEMS: usize = 2048;
const SIMD_SWEEPS: usize = 20_000;

struct Empty;

impl IsaOp for Empty {
    type Output = usize;
    fn run<I: Isa>(self) -> usize {
        I::WIDTH_BITS
    }
}

enum Sweep {
    Fma,
    Exp,
    Gather,
}

struct SweepOp<'a> {
    kind: Sweep,
    a: &'a [f32],
    b: &'a [f32],
    index: &'a [i32],
    out: &'a mut [f32],
}

impl IsaOp for SweepOp<'_> {
    type Output = ();
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        for _ in 0..SIMD_SWEEPS {
            let (a, b) = (black_box(self.a), black_box(self.b));
            for at in (0..L1_ELEMS).step_by(lanes) {
                let x = I::F32::load(&a[at..]);
                let y = match self.kind {
                    Sweep::Fma => x.mul_add(I::F32::load(&b[at..]), x),
                    Sweep::Exp => isa::math::exp::<I>(x),
                    Sweep::Gather => I::F32::gather(b, I::I32::load(&self.index[at..])),
                };
                y.store(&mut self.out[at..]);
            }
            black_box(&mut *self.out);
        }
    }
}

fn simd(out: &mut Vec<Reading>) {
    let per_call = seconds_per_call(2_000_000, || {
        black_box(dispatch(black_box(Empty)));
    });
    out.push(("simd.dispatch_ns", per_call * 1e9));

    let a: Vec<f32> = (0..L1_ELEMS)
        .map(|i| (i % 97) as f32 * 0.01 - 0.4)
        .collect();
    let b: Vec<f32> = (0..L1_ELEMS).map(|i| (i % 89) as f32 * 0.02).collect();
    // A fixed odd stride visits every slot once per sweep, out of order.
    let index: Vec<i32> = (0..L1_ELEMS)
        .map(|i| ((i * 389) % L1_ELEMS) as i32)
        .collect();
    let mut result = vec![0.0f32; L1_ELEMS];
    for (name, kind) in [
        ("simd.fma_gelem_s", Sweep::Fma),
        ("simd.exp_gelem_s", Sweep::Exp),
        ("simd.gather_gelem_s", Sweep::Gather),
    ] {
        let start = Instant::now();
        dispatch(SweepOp {
            kind,
            a: &a,
            b: &b,
            index: &index,
            out: &mut result,
        });
        let elems = (SIMD_SWEEPS * L1_ELEMS) as f64;
        out.push((name, elems / start.elapsed().as_secs_f64() / 1e9));
    }
    out.push(("simd.width_bits", isa::active().width_bits() as f64));
}

// --- parallel --------------------------------------------------------------

/// No back-to-back empty regions here, on purpose. `CountLatch::count_down`
/// locks the latch's mutex after the decrement that lets `wait` return, so
/// when a helper finishes just as the caller reaches `wait`, the helper
/// touches a latch whose stack frame `parallel_for` has already left. Four
/// thousand hot empty regions hit that window within a second or two: the
/// worker then blocks for ever on a garbage futex word or the process
/// takes a SIGSEGV (seen in 7 of 8 traced runs while this probe existed).
/// After a gap the workers are parked, the caller always reaches `wait`
/// first and leaves under the lock the helper releases last, so the cold
/// region is safe to measure; `join` shares its job through a refcounted
/// heap cell and is safe as well.
fn parallel(pool: &ThreadPool, out: &mut Vec<Reading>) {
    let cold: Vec<f64> = (0..1_000)
        .map(|_| {
            // Long enough for the workers to park.
            std::thread::sleep(Duration::from_micros(500));
            let start = Instant::now();
            pool.parallel_for(0..16, 1, |chunk| {
                black_box(chunk);
            });
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("parallel.region_cold_us", median(&cold)));
    let join = median_us(4_000, || {
        black_box(pool.join(|| black_box(1u32), || black_box(2u32)));
    });
    out.push(("parallel.join_us", join));
}

// --- core ------------------------------------------------------------------

struct Noop;

impl Instance for Noop {
    fn run(&mut self, _variant: Variant, _pool: &ThreadPool) -> f64 {
        1.0
    }
    fn validate(&mut self, _variant: Variant, _pool: &ThreadPool) -> Result<(), ValidationError> {
        Ok(())
    }
    fn work(&self) -> Work {
        Work {
            flops: 1.0,
            bytes: 1.0,
            elems: 1,
        }
    }
}

fn noop_spec() -> KernelSpec {
    let info = |variant, effort_loc| VariantInfo {
        variant,
        effort_loc,
        what_changed: "nothing: measures the harness around an empty cell",
    };
    KernelSpec {
        name: "bench-noop",
        description: "empty kernel defined by the benchmark",
        bound: "compute",
        variants: [
            info(Variant::Naive, 0),
            info(Variant::Parallel, 1),
            info(Variant::Simd, 2),
            info(Variant::Algorithmic, 3),
            info(Variant::Ninja, 4),
        ],
        character: Characterization {
            flops_per_elem: 1.0,
            bytes_per_elem: 1.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.0,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.0,
            simd_efficiency: 1.0,
        },
        make: |_, _| Box::new(Noop),
    }
}

fn core(threads: usize, report: &SuiteReport, out: &mut Vec<Reading>) {
    let spec = noop_spec();
    let cells = Variant::ALL.len() as f64;
    let harness = || Harness::new().size(ProblemSize::Test).threads(threads);
    let plain = harness();
    let per_kernel = median_us(200, || drop(black_box(plain.run_kernel(&spec))));
    out.push(("core.noop_cell_us", per_kernel / cells));
    let watched = harness().timeout(Duration::from_secs(30));
    let per_kernel = median_us(200, || drop(black_box(watched.run_kernel(&spec))));
    out.push(("core.noop_cell_watchdog_us", per_kernel / cells));

    let meta = RecordMeta::synthetic("bench", &report.isa);
    let render = median_us(20, || {
        black_box(report.to_json());
        black_box(report.to_run_record(&meta));
    });
    out.push(("core.report_ms", render / 1e3));
}

// --- probe, counters ---------------------------------------------------------

fn probe_and_counters(out: &mut Vec<Reading>) {
    let span = || drop(black_box(ninja_probe::span("bench")));
    out.push(("probe.span_off_ns", seconds_per_call(1_000_000, span) * 1e9));
    ninja_probe::set_tracing(true);
    let on = seconds_per_call(100_000, span) * 1e9;
    ninja_probe::set_tracing(false);
    ninja_probe::clear_events();
    out.push(("probe.span_on_ns", on));

    // Missing evidence is reported as missing: 0 here means
    // `perf_event_open` is refused, and the window cost is the cost of
    // the refusal path the suite then takes.
    let mut counters = ninja_probe::counters::ThreadCounters::open();
    let available = counters.status().is_available();
    out.push(("counters.available", f64::from(u8::from(available))));
    let window = seconds_per_call(100_000, || {
        black_box(counters.window(|| black_box(0u32)));
    });
    out.push(("counters.window_ns", window * 1e9));
}

// --- perfdb, lint ------------------------------------------------------------

const STORE_RECORDS: usize = 200;

fn perfdb(report: &SuiteReport, scratch: &Path, out: &mut Vec<Reading>) -> Result<(), String> {
    let dir = scratch.join(format!("perfdb-{}", std::process::id()));
    let store = Store::open(&dir);
    let records: Vec<_> = (0..STORE_RECORDS)
        .map(|i| report.to_run_record(&RecordMeta::synthetic(&format!("r{i}"), &report.isa)))
        .collect();
    let start = Instant::now();
    for record in &records {
        store.append(record)?;
    }
    let append_ms = start.elapsed().as_secs_f64() * 1e3 / STORE_RECORDS as f64;
    let start = Instant::now();
    let loaded = store.load();
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let removed = std::fs::remove_dir_all(&dir);
    let loaded = loaded?;
    removed.map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    if loaded.len() != STORE_RECORDS {
        return Err(format!("store returned {} records", loaded.len()));
    }
    let compare = median_us(20, || {
        black_box(compare_records(
            &loaded[0],
            &loaded[1],
            &CompareConfig::default(),
        ));
    });
    out.push(("perfdb.append_ms", append_ms));
    out.push(("perfdb.load_ms", load_ms));
    out.push(("perfdb.compare_ms", compare / 1e3));
    Ok(())
}

fn lint(repo_root: &Path, out: &mut Vec<Reading>) -> Result<(), String> {
    let start = Instant::now();
    let report = ninja_lint::analyze_workspace(repo_root).map_err(|e| e.0)?;
    black_box(report);
    out.push(("lint.scan_ms", start.elapsed().as_secs_f64() * 1e3));
    Ok(())
}

/// Runs every probe, one span each. `report` is the traced harness pass's
/// report, the input of the report and store probes.
///
/// # Errors
///
/// Returns a message when the store or the workspace scan fails; a probe
/// that cannot run is a failed run, not a missing metric.
pub fn run_all(
    recorder: &Recorder,
    threads: usize,
    report: &SuiteReport,
    repo_root: &Path,
    scratch: &Path,
) -> Result<Vec<Reading>, String> {
    let mut out = Vec::new();
    {
        let _span = recorder.span("probe:simd");
        simd(&mut out);
    }
    {
        let _span = recorder.span("probe:parallel");
        parallel(&ThreadPool::with_threads(threads), &mut out);
    }
    {
        let _span = recorder.span("probe:core");
        core(threads, report, &mut out);
    }
    {
        let _span = recorder.span("probe:probe+counters");
        probe_and_counters(&mut out);
    }
    {
        let _span = recorder.span("probe:perfdb");
        perfdb(report, scratch, &mut out)?;
    }
    {
        let _span = recorder.span("probe:lint");
        lint(repo_root, &mut out)?;
    }
    Ok(out)
}
