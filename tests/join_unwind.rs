//! Regression: `ThreadPool::join` must not unwind out of its caller's
//! frame while a worker is still running the forked closure `b`, which
//! may borrow that frame.
//!
//! `join` used to run `a` bare, so a panic in `a` left the frame at once
//! while a worker that had already started `b` went on writing into it —
//! into whatever the caller kept there next (a stack-use-after-return;
//! SIGSEGV in a release build once that is a return address). This test
//! starts `b` on a worker, unwinds out of `a`, lays a canary over the
//! dead frame after every join and fails if anything wrote into it.

use ninja_parallel::ThreadPool;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One join in a frame of its own that holds a 4 KB array. `b` borrows
/// the array and writes it after `delay`; `a` waits until `b` has
/// started on a worker, then unwinds (`resume_unwind`, so no panic-hook
/// noise).
#[inline(never)]
fn join_in_its_own_frame(pool: &ThreadPool, delay: Duration) {
    let mut frame = [0u64; 512];
    std::hint::black_box(&mut frame);
    let started = AtomicBool::new(false);
    let array = &mut frame;
    pool.join(
        || {
            // ORDERING: a bare start signal; `b` publishes no data here.
            while !started.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            resume_unwind(Box::new("a unwinds while b runs"));
        },
        || {
            // ORDERING: as above.
            started.store(true, Ordering::Relaxed);
            std::thread::sleep(delay);
            array.fill(1);
            std::hint::black_box(array);
        },
    );
}

/// Lays a canary over the stack area a just-returned callee's frame
/// occupied, gives a straggling `b` time to touch it, and reports whether
/// it survived.
#[inline(never)]
fn dead_stack_stays_untouched() -> bool {
    let mut canary = [u64::MAX; 512];
    std::hint::black_box(&mut canary);
    let start = Instant::now();
    while start.elapsed() < Duration::from_micros(250) {
        std::hint::spin_loop();
    }
    std::hint::black_box(&mut canary);
    canary.iter().all(|&word| word == u64::MAX)
}

/// Sweeping `b`'s delay over 0–200 µs makes its write land at every
/// point of the caller's unwind and of the canary's life.
#[test]
fn joins_never_unwind_past_a_running_fork() {
    let (done_tx, done_rx) = mpsc::channel();
    let hammer = std::thread::spawn(move || {
        let pool = ThreadPool::with_threads(2);
        for i in 0..2_000usize {
            let delay = Duration::from_micros((i * 37 % 201) as u64);
            let unwound = catch_unwind(AssertUnwindSafe(|| join_in_its_own_frame(&pool, delay)));
            assert!(unwound.is_err(), "join {i}: a's unwind was swallowed");
            assert!(
                dead_stack_stays_untouched(),
                "join {i}: b wrote into its caller's dead frame"
            );
        }
        done_tx.send(()).expect("the test thread is waiting");
    });
    // A wedged pool shows up as a hang: turn it into a failure. Otherwise
    // the hammer finished or panicked (dropping the sender); join says which.
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("the pool wedged: join never got its fork back");
    }
    if let Err(panic) = hammer.join() {
        resume_unwind(panic);
    }
}
