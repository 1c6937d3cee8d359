//! Edge-of-the-envelope scheduling tests for `ThreadPool::parallel_for`
//! and `parallel_reduce`: degenerate grains, ranges smaller than one
//! chunk, more threads than chunks, and single-thread pools. These are
//! the corners the scaling sweep (`reproduce --scale`) actually hits
//! when it shrinks sizes and widens the thread grid.

use ninja_parallel::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Runs `parallel_for` over `0..n` and returns per-index visit counts.
fn visit_counts(pool: &ThreadPool, n: usize, grain: usize) -> Vec<usize> {
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(0..n, grain, |r| {
        for i in r {
            counts[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

#[test]
fn n_smaller_than_grain_runs_as_one_chunk() {
    let pool = ThreadPool::with_threads(4);
    let chunks = Mutex::new(Vec::new());
    pool.parallel_for(0..3, 100, |r| chunks.lock().unwrap().push(r));
    let chunks = chunks.into_inner().unwrap();
    assert_eq!(chunks, vec![0..3], "one undersized chunk, never padded");
}

#[test]
fn more_threads_than_chunks_still_covers_every_index_once() {
    // 8 participants, 3 chunks: the surplus threads must find no work
    // and the range must still be covered exactly once.
    let pool = ThreadPool::with_threads(8);
    assert!(visit_counts(&pool, 3, 1).iter().all(|&c| c == 1));
}

#[test]
fn grain_zero_is_clamped_to_one_everywhere() {
    let pool = ThreadPool::with_threads(3);
    assert!(visit_counts(&pool, 17, 0).iter().all(|&c| c == 1));
    let total = pool.parallel_reduce(0..17, 0, 0usize, |r| r.sum(), |a, b| a + b);
    assert_eq!(total, (0..17).sum());
}

#[test]
fn single_thread_pool_reduces_inline() {
    let pool = ThreadPool::with_threads(1);
    let total = pool.parallel_reduce(
        0..1_000,
        8,
        0u64,
        |r| r.map(|i| i as u64).sum(),
        |a, b| a + b,
    );
    assert_eq!(total, (0..1_000u64).sum());
}

#[test]
fn reduce_with_more_threads_than_chunks() {
    let pool = ThreadPool::with_threads(8);
    let total = pool.parallel_reduce(0..2, 1, 0usize, |r| r.sum(), |a, b| a + b);
    assert_eq!(total, 1);
}

#[test]
fn reduce_single_element_range_applies_identity_once() {
    // identity ⊕ map(0..1): a non-neutral "identity" must be folded in
    // exactly once, not once per participating thread.
    let pool = ThreadPool::with_threads(4);
    let total = pool.parallel_reduce(0..1, 5, 100usize, |r| r.sum(), |a, b| a + b);
    assert_eq!(total, 100);
}

#[test]
fn huge_grain_does_not_overflow_chunk_arithmetic() {
    let pool = ThreadPool::with_threads(2);
    assert!(visit_counts(&pool, 5, usize::MAX).iter().all(|&c| c == 1));
}

#[test]
fn empty_range_with_nonzero_start_is_a_noop() {
    let pool = ThreadPool::with_threads(2);
    pool.parallel_for(10..10, 3, |_| panic!("must not run"));
    let v = pool.parallel_reduce(10..10, 3, 7i32, |_| panic!("no chunks"), |a, b| a + b);
    assert_eq!(v, 7);
}

#[test]
fn for_each_with_grain_larger_than_slice() {
    let pool = ThreadPool::with_threads(4);
    let items = [10u32, 11, 12];
    let hits: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for_each(&items, 1_000, |i, &v| {
        assert_eq!(v as usize, i + 10);
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn exact_chunk_division_has_no_ragged_tail() {
    let pool = ThreadPool::with_threads(4);
    let chunks = Mutex::new(Vec::new());
    pool.parallel_for(0..12, 4, |r| chunks.lock().unwrap().push(r));
    let mut chunks = chunks.into_inner().unwrap();
    chunks.sort_by_key(|r| r.start);
    assert_eq!(chunks, vec![0..4, 4..8, 8..12]);
}

/// One two-chunk region in a frame of its own, so that the frame — and
/// the region's completion latch in it — is dead once this returns. The
/// caller's chunk spins for `busy`, which sets how the caller's arrival
/// at the latch lines up with the helper's.
#[inline(never)]
fn region_in_its_own_frame(pool: &ThreadPool, busy: Duration) {
    pool.parallel_for(0..2, 1, |r| {
        let start = Instant::now();
        while r.start == 0 && start.elapsed() < busy {
            std::hint::spin_loop();
        }
    });
}

/// Lays a canary over the stack area a just-returned callee's frame
/// occupied, gives a straggler a moment to touch it, and reports whether
/// it survived.
#[inline(never)]
fn dead_stack_stays_untouched() -> bool {
    let mut canary = [u64::MAX; 512];
    std::hint::black_box(&mut canary);
    for _ in 0..100 {
        std::hint::spin_loop();
    }
    std::hint::black_box(&mut canary);
    canary.iter().all(|&word| word == u64::MAX)
}

/// Regression: a region's completion latch lives in the `parallel_for`
/// frame, and its `count_down` used to take the latch's mutex *after* the
/// decrement that lets the caller's lock-free `wait` return — so a helper
/// finishing just as the caller arrived was still locking, notifying and
/// unlocking inside a frame the caller had left, and stored into whatever
/// the caller kept there next (SIGSEGV once that is a pointer; a worker
/// parked for ever on a garbage futex word, and the next region hanging,
/// when the word read as locked). Sweeping the caller's share of each
/// region from nothing to well past a worker wake-up makes the two
/// arrivals cross thousands of times; the joins in between vary where the
/// worker is when the next region starts.
#[test]
fn regions_never_outlive_their_latch() {
    let (done_tx, done_rx) = mpsc::channel();
    let hammer = std::thread::spawn(move || {
        let pool = ThreadPool::with_threads(2);
        for i in 0..20_000usize {
            region_in_its_own_frame(&pool, Duration::from_micros((i * 7 % 64) as u64));
            assert!(
                dead_stack_stays_untouched(),
                "region {i}: a helper wrote into its region's dead frame"
            );
            if i % 4 == 0 {
                let (a, b) = pool.join(|| i, || i + 1);
                assert_eq!(a + 1, b);
            }
        }
        done_tx.send(()).expect("the test thread is waiting");
    });
    // A wedged pool shows up as a hang: turn it into a failure. Otherwise
    // the hammer finished or panicked (dropping the sender); join says which.
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("the pool wedged: a helper outlived its region's latch");
    }
    if let Err(panic) = hammer.join() {
        std::panic::resume_unwind(panic);
    }
}
