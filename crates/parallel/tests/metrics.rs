//! Pool instrumentation tests: imbalance detection, counter semantics,
//! per-lane trace spans, and the disabled-path overhead contract.
//!
//! These tests flip the process-global probe flags, so every test takes
//! `FLAG_LOCK` and restores the flags before releasing it.

use ninja_parallel::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Burn wall-clock time without sleeping, so a lane's busy_ns reflects
/// genuinely occupied time even under scheduler jitter.
fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

struct MetricsOn;

impl MetricsOn {
    fn enable() -> Self {
        ninja_probe::set_metrics(true);
        MetricsOn
    }
}

impl Drop for MetricsOn {
    fn drop(&mut self) {
        ninja_probe::set_metrics(false);
    }
}

#[test]
fn balanced_parallel_for_reports_near_unit_imbalance() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let pool = ThreadPool::with_threads(4);
    let before = {
        let _on = MetricsOn::enable();
        let before = pool.metrics();
        // 64 equal 2 ms chunks over 4 lanes: dynamic scheduling should
        // keep every lane busy until the range is exhausted.
        pool.parallel_for(0..64, 1, |_r| spin_for(Duration::from_millis(2)));
        let after = pool.metrics();
        after.delta(&before)
    };
    let d = before;
    assert_eq!(d.regions, 1);
    assert_eq!(d.total_chunks(), 64);
    let ratio = d.imbalance_ratio();
    assert!(
        ratio < 1.35,
        "balanced loop should be ~1.0, got {ratio} ({d:?})"
    );
}

#[test]
fn straggler_parallel_for_reports_high_imbalance() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let pool = ThreadPool::with_threads(4);
    let _on = MetricsOn::enable();
    let before = pool.metrics();
    // Chunk 0 is 100x heavier than the other 19: whichever lane claims
    // it becomes a straggler that dominates the region.
    let unit = Duration::from_millis(1);
    pool.parallel_for(0..20, 1, |r| {
        spin_for(if r.start == 0 { 100 * unit } else { unit });
    });
    let d = pool.metrics().delta(&before);
    let ratio = d.imbalance_ratio();
    assert!(
        ratio > 1.5,
        "one 100x grain must show up as imbalance, got {ratio} ({d:?})"
    );
}

#[test]
fn counters_track_joins_and_inline_regions() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let pool = ThreadPool::with_threads(2);
    let _on = MetricsOn::enable();
    let before = pool.metrics();
    let (a, b) = pool.join(|| 2, || 3);
    assert_eq!((a, b), (2, 3));
    // A single-chunk range runs inline but still counts as a region.
    pool.parallel_for(0..4, 8, |r| {
        std::hint::black_box(r.len());
    });
    let d = pool.metrics().delta(&before);
    assert_eq!(d.joins, 1);
    assert_eq!(d.regions, 1);
    assert_eq!(d.total_chunks(), 1);

    // A fork the worker starts while the caller is still in `a` is a
    // steal — exactly one, whatever stale entries the queue still held.
    let before = pool.metrics();
    let started = AtomicBool::new(false);
    pool.join(
        || {
            // ORDERING: a bare start signal; the join orders everything else.
            while !started.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        },
        || {
            // ORDERING: as above.
            started.store(true, Ordering::Relaxed);
        },
    );
    let d = pool.metrics().delta(&before);
    assert_eq!(d.joins, 1);
    assert_eq!(d.steals, 1, "{d:?}");
    assert_eq!(d.workers[1].steals, 1, "the worker lane ran the fork");
}

#[test]
fn disabled_pool_records_nothing() {
    let _guard = FLAG_LOCK.lock().unwrap();
    ninja_probe::set_metrics(false);
    let pool = ThreadPool::with_threads(3);
    pool.parallel_for(0..1000, 10, |r| {
        std::hint::black_box(r.len());
    });
    let (_, _) = pool.join(|| 1, || 2);
    let m = pool.metrics();
    assert_eq!(m.regions, 0);
    assert_eq!(m.joins, 0);
    assert_eq!(m.total_chunks(), 0);
    assert_eq!(m.total_busy_ns(), 0);
}

#[test]
fn parallel_for_participants_emit_per_lane_spans() {
    let _guard = FLAG_LOCK.lock().unwrap();
    ninja_probe::clear_events();
    ninja_probe::set_tracing(true);
    let pool = ThreadPool::with_threads(4);
    // Enough sustained chunks that every lane joins in before exhaustion.
    pool.parallel_for(0..32, 1, |_r| spin_for(Duration::from_millis(1)));
    ninja_probe::set_tracing(false);
    let events = ninja_probe::take_events();
    ninja_probe::validate_events(&events).expect("spans must nest cleanly");
    let begins: Vec<_> = events
        .iter()
        .filter(|e| e.ph == ninja_probe::Phase::Begin && e.name == "parallel_for")
        .collect();
    assert!(
        begins.len() >= 2,
        "expected several participants, got {}",
        begins.len()
    );
    let mut tids: Vec<u32> = begins.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= 2,
        "participants must trace on distinct lanes, got {tids:?}"
    );
}

/// The overhead contract from the DESIGN "Observability" section: an
/// instrumented-but-disabled `parallel_for` costs one relaxed boolean
/// load per region, so it must not be measurably slower than the same
/// loop with metrics enabled (whose extra clock reads and atomics bound
/// the noise floor from above), and its absolute per-region cost must
/// stay in scheduling-overhead territory.
#[test]
fn overhead_of_disabled_instrumentation_is_negligible() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let pool = ThreadPool::with_threads(4);

    fn regions(pool: &ThreadPool, iters: u32) -> Duration {
        let t0 = Instant::now();
        for _ in 0..iters {
            pool.parallel_for(0..1024, 32, |r| {
                std::hint::black_box(r.len());
            });
        }
        t0.elapsed()
    }

    // Warm the pool and code paths.
    regions(&pool, 50);

    const ITERS: u32 = 200;
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    // Interleave trials so frequency scaling and background load hit
    // both configurations symmetrically; compare best-of-5.
    for _ in 0..5 {
        ninja_probe::set_metrics(false);
        best_off = best_off.min(regions(&pool, ITERS));
        ninja_probe::set_metrics(true);
        best_on = best_on.min(regions(&pool, ITERS));
    }
    ninja_probe::set_metrics(false);

    let per_region_off = best_off / ITERS;
    assert!(
        per_region_off < Duration::from_millis(2),
        "disabled parallel_for costs {per_region_off:?} per region"
    );
    let budget = best_on.mul_f64(1.5) + Duration::from_millis(5);
    assert!(
        best_off <= budget,
        "disabled path ({best_off:?}) slower than enabled path ({best_on:?}) beyond noise"
    );
}
