//! The work-stealing scheduler on a skewed task mix.
//!
//! The workload is the classic LIFO-vs-FIFO discriminator: a task running
//! on a pool worker spawns many tiny tasks and then one huge one. A
//! single shared FIFO queue would start the huge task only after every
//! tiny task ahead of it drained — it runs alone at the end and its lane
//! dominates the region (a straggler). Under the work-stealing scheduler
//! the spawns land on the spawning worker's own deque: the owner pops
//! LIFO and starts the huge task immediately, while idle peers steal the
//! tiny tasks FIFO from the top — the huge task overlaps with the tiny
//! drain and the busy-time spread stays flat.
//!
//! Tasks occupy their lane by *sleeping*, not spinning: sleeping lanes
//! overlap even when the host has a single hardware thread (CI containers
//! often do), so per-lane busy time reflects the scheduler's placement
//! decisions rather than OS timeslicing noise.
//!
//! These tests flip the process-global probe metrics flag, so every test
//! takes `FLAG_LOCK` and restores the flag before releasing it.

use ninja_parallel::ThreadPoolBuilder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

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

const TINY_TASKS: u64 = 48;
const TINY: Duration = Duration::from_millis(2);
// Sized near one lane's fair share of the tiny work, so a scheduler that
// overlaps it with the tiny drain can be near-perfectly balanced (120 ms
// of work, 30 ms per lane, ratio 1.0), while a FIFO ordering — tiny drain
// first, huge alone at the end — would leave one lane with 48 ms against
// the 30 ms mean (ratio 1.6).
const HUGE: Duration = Duration::from_millis(24);
/// 0.2 under the straggler's 1.6: room for one lane to oversleep by a
/// scheduling hiccup (measured on a quiet host: 1.02-1.12).
const IMBALANCE_BOUND: f64 = 1.4;

/// Runs the skewed spawn burst on a 4-lane pool. Returns the region's
/// metrics delta plus how many tiny tasks had already started when the
/// huge task began. The caller must hold `FLAG_LOCK` with metrics enabled.
fn skewed_burst() -> (ninja_probe::PoolMetrics, u64) {
    let pool = ThreadPoolBuilder::new().num_threads(4).build();
    let started = AtomicU64::new(0);
    let huge_started_after = AtomicU64::new(0);
    let root_claimed = AtomicBool::new(false);
    let before = pool.metrics();
    pool.scope(|s| {
        let (started, huge_started_after) = (&started, &huge_started_after);
        let root_claimed = &root_claimed;
        // The burst must come from a pool worker (external spawns go to
        // the injector): nest it in a root task, and hold the scope caller
        // in `body` until a worker has claimed the root — never the
        // caller's own post-body drain loop.
        s.spawn_nested(move |s| {
            root_claimed.store(true, Ordering::Release);
            for _ in 0..TINY_TASKS {
                s.spawn(move || {
                    // ORDERING: a monotonic progress counter; the order
                    // probe below tolerates increments still in flight.
                    started.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(TINY);
                });
            }
            s.spawn(move || {
                // ORDERING: a snapshot for a coarse order assertion;
                // exactness doesn't matter, only early-vs-late scale.
                huge_started_after.store(started.load(Ordering::Relaxed), Ordering::Relaxed);
                std::thread::sleep(HUGE);
            });
        });
        // ORDERING: pairs with the Release store at the top of the root.
        while !root_claimed.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    let after = pool.metrics().delta(&before);
    // ORDERING: read after the scope drained; no writers left.
    (after, huge_started_after.load(Ordering::Relaxed))
}

#[test]
fn stealing_flattens_a_skewed_task_burst() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let _on = MetricsOn::enable();

    let (burst, huge_started_after) = skewed_burst();

    // Every task executed and is accounted: the root, the tiny burst, and
    // the huge task.
    assert_eq!(burst.total_tasks(), TINY_TASKS + 2, "{burst:?}");

    // The burst is served from the spawning worker's deque by its peers.
    assert!(burst.steals > 0, "peers must steal the burst: {burst:?}");
    assert!(burst.steal_ratio() > 0.0, "{burst:?}");

    // Scheduling order, the deterministic discriminator: the owner pops
    // the huge task LIFO right after the spawn loop, while peers have
    // stolen at most a handful of tiny tasks off the top. (Queued FIFO
    // behind the burst it could not start before all but three of them.)
    assert!(
        huge_started_after <= TINY_TASKS / 2,
        "LIFO pop must start the huge task while the tiny drain is young: \
         started={huge_started_after}\n{burst:?}"
    );

    // The headline claim: the huge task overlaps with the tiny drain, so
    // the busy-time spread stays well under the 1.6 a serialized huge
    // task would leave (see `HUGE`).
    let ratio = burst.imbalance_ratio();
    assert!(
        ratio < IMBALANCE_BOUND,
        "stealing should flatten the skewed burst: imbalance={ratio:.3}\n{burst:?}"
    );
}
