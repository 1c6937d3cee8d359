//! Regression: a `ThreadPool::scope` frame dies the moment its task count
//! reads zero, so the worker that finishes the last task must not touch
//! the scope after its decrement.
//!
//! The scope latch used to lock a mutex and notify a condvar *after* the
//! `fetch_sub` that lets the scope's drain loop see zero and return, so a
//! worker finishing just as the caller polled was locking, notifying and
//! unlocking inside a frame the caller had already left — and stored into
//! whatever the caller kept there next (a stack-use-after-return; SIGSEGV
//! once that is a pointer, a worker parked for ever on a garbage futex word
//! when it read as locked). This test lays a canary over the dead frame
//! after every scope and fails if anything wrote into it.

use ninja_parallel::ThreadPool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn spin(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// One scope in a frame of its own, so that the frame — and the scope's
/// latch in it — is dead once this returns. Two tasks of different
/// lengths go to the pool; the caller runs one while draining and a worker
/// runs the other, and `busy` sets which of them finishes last.
#[inline(never)]
fn scope_in_its_own_frame(pool: &ThreadPool, busy: Duration) {
    pool.scope(|s| {
        s.spawn(move || spin(busy));
        s.spawn(|| spin(Duration::from_micros(16)));
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

/// Sweeping the first task's length from nothing to past the second's
/// makes the worker's last decrement and the caller's drain poll cross
/// thousands of times.
#[test]
fn scopes_never_outlive_their_latch() {
    let (done_tx, done_rx) = mpsc::channel();
    let hammer = std::thread::spawn(move || {
        let pool = ThreadPool::with_threads(2);
        for i in 0..10_000usize {
            scope_in_its_own_frame(&pool, Duration::from_micros((i * 7 % 40) as u64));
            assert!(
                dead_stack_stays_untouched(),
                "scope {i}: a worker wrote into its scope's dead frame"
            );
        }
        done_tx.send(()).expect("the test thread is waiting");
    });
    // A wedged pool shows up as a hang: turn it into a failure. Otherwise
    // the hammer finished or panicked (dropping the sender); join says which.
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("the pool wedged: a worker outlived its scope's latch");
    }
    if let Err(panic) = hammer.join() {
        std::panic::resume_unwind(panic);
    }
}
