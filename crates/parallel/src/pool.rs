//! The thread pool and its scheduling primitives.
//!
//! Scheduling architecture (the "runtime scheduler" of DESIGN.md): each
//! worker owns a lock-free Chase–Lev deque and pops it LIFO (depth-first,
//! cache-warm); idle workers steal FIFO from randomized victims; the
//! mutex-backed injector is demoted to overflow/external submission. A
//! bounded spin→yield→park backoff keeps idle workers cheap, and a
//! Dekker-style sleeper handshake makes the park/notify race lossless.

use crate::latch::CountLatch;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A captured panic payload in transit between a worker and the caller
/// that will re-raise it.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Stores `payload` unless a previous panic already claimed the slot
/// (the first panic wins; later ones are dropped, mirroring what a
/// sequential loop would have surfaced).
fn store_first_panic(slot: &Mutex<Option<PanicPayload>>, payload: PanicPayload) {
    let mut guard = slot.lock();
    if guard.is_none() {
        *guard = Some(payload);
    }
}

/// A type-erased pointer to a job living on some waiting caller's stack.
///
/// Safety protocol: the frame that created the job blocks (via
/// [`CountLatch`] or a state flag) until every pushed `JobRef` has been
/// executed, so the pointer never dangles.
struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
    /// Whether the executor should account this job's runtime to the
    /// executing lane's `busy_ns`. Heap jobs (join/scope tasks) are timed
    /// at the execution boundary; `parallel_for` helper jobs are not —
    /// their harness accounts its own busy time per participant, and
    /// timing them again here would double-count every worker.
    timed: bool,
}

// SAFETY: the pointed-to job types are Sync (shared-call jobs) or carry
// Send payloads (once jobs); the lifetime protocol above keeps them alive.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    ///
    /// `data` must still point at the live job it was created from; the
    /// frame-blocking protocol in the struct docs guarantees this.
    #[inline]
    unsafe fn execute(self) {
        (self.exec)(self.data)
    }
}

/// A job executed by several threads concurrently through a shared `Fn`.
struct SharedJob<'a> {
    func: &'a (dyn Fn() + Sync),
    latch: &'a CountLatch,
    panic: &'a Mutex<Option<PanicPayload>>,
}

/// # Safety
///
/// `ptr` must come from a `JobRef` built over a live `SharedJob`.
unsafe fn exec_shared(ptr: *const ()) {
    // SAFETY: ptr was created from a live SharedJob per the JobRef protocol.
    let job = unsafe { &*(ptr as *const SharedJob<'_>) };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job.func)) {
        store_first_panic(job.panic, payload);
    }
    job.latch.count_down();
}

const ONCE_PENDING: u8 = 0;
const ONCE_RUNNING: u8 = 1;
const ONCE_DONE: u8 = 2;

/// A run-exactly-once job with a return value, used by [`ThreadPool::join`].
struct OnceJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<R>>,
    state: AtomicU8,
    panic: UnsafeCell<Option<PanicPayload>>,
}

// SAFETY: access to func/result is serialized by the `state` machine:
// exactly one thread wins the PENDING->RUNNING transition and touches the
// cells; readers wait for DONE (Acquire) before reading `result`.
unsafe impl<F: Send, R: Send> Sync for OnceJob<F, R> {}

impl<F: FnOnce() -> R, R> OnceJob<F, R> {
    fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            state: AtomicU8::new(ONCE_PENDING),
            panic: UnsafeCell::new(None),
        }
    }

    /// Attempts to claim and run the job; returns false if already claimed.
    fn try_run(&self) -> bool {
        if self
            .state
            .compare_exchange(
                ONCE_PENDING,
                ONCE_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return false;
        }
        // SAFETY: we won the CAS, so we are the only thread touching the cells.
        let func = unsafe { (*self.func.get()).take().expect("once job claimed twice") };
        match catch_unwind(AssertUnwindSafe(func)) {
            // SAFETY: still the sole owner of the cells until the DONE store.
            Ok(r) => unsafe { *self.result.get() = Some(r) },
            // SAFETY: same exclusive access as `result` above; readers wait
            // for the DONE store (Release/Acquire pair) before looking.
            Err(payload) => unsafe { *self.panic.get() = Some(payload) },
        }
        self.state.store(ONCE_DONE, Ordering::Release);
        true
    }

    fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == ONCE_DONE
    }

    /// Takes the result after `is_done` returned true.
    ///
    /// # Panics
    ///
    /// Re-raises the job's own panic payload if the job panicked, so
    /// callers of [`ThreadPool::join`] observe the original message.
    fn take_result(&self) -> R {
        assert!(self.is_done());
        // SAFETY: state is DONE, the runner has released the cells.
        if let Some(payload) = unsafe { (*self.panic.get()).take() } {
            resume_unwind(payload);
        }
        // SAFETY: as above.
        unsafe {
            (*self.result.get())
                .take()
                .expect("once job result taken twice")
        }
    }
}

/// A heap-allocated `OnceJob` shared between the queue entry and the
/// waiting caller.
///
/// Two owners exist after `join` pushes the job: the queued [`JobRef`] and
/// the caller. Either may run the job (exactly one wins the state CAS);
/// **both** must release their reference, and the last one frees the
/// allocation. Keeping the queue entry as a real owner is what makes
/// claim-back sound: a stale queued `JobRef` popped after the `join`
/// returned still points at live memory and its `try_run` is a no-op.
struct SharedOnce<F, R> {
    job: OnceJob<F, R>,
    refs: AtomicUsize,
}

/// Drops one reference to a `SharedOnce`, freeing it when it was the last.
///
/// # Safety
///
/// `ptr` must be a `SharedOnce<F, R>` allocation on which the caller holds
/// one outstanding reference, surrendered by this call.
unsafe fn release_shared_once<F: FnOnce() -> R + Send, R: Send>(ptr: *const ()) {
    let shared = ptr as *mut SharedOnce<F, R>;
    // SAFETY: caller holds one of the outstanding references.
    if unsafe { (*shared).refs.fetch_sub(1, Ordering::AcqRel) } == 1 {
        // SAFETY: last reference; no other thread can touch the job now.
        drop(unsafe { Box::from_raw(shared) });
    }
}

/// # Safety
///
/// `ptr` must be a live `SharedOnce<F, R>` for which the queue entry holds
/// the reference this call releases.
unsafe fn exec_once<F: FnOnce() -> R + Send, R: Send>(ptr: *const ()) {
    {
        // SAFETY: the queue entry owns a reference (released below).
        let shared = unsafe { &*(ptr as *const SharedOnce<F, R>) };
        shared.job.try_run();
    }
    // SAFETY: releasing the queue entry's reference.
    unsafe { release_shared_once::<F, R>(ptr) };
}

/// Per-participant instrumentation counters, cache-line padded so relaxed
/// increments from different lanes never contend on the same line.
#[derive(Default)]
#[repr(align(64))]
struct Lane {
    /// Jobs executed by this lane, from any source (own deque, injector,
    /// or theft).
    tasks: AtomicU64,
    /// `parallel_for` chunks claimed and run by this lane.
    chunks: AtomicU64,
    /// Nanoseconds spent inside pool work by this lane.
    busy_ns: AtomicU64,
    /// Jobs popped from this lane's own deque (LIFO fast path).
    local_pops: AtomicU64,
    /// Jobs taken from the shared overflow injector.
    injector_pops: AtomicU64,
    /// Jobs stolen from another worker's deque.
    steals: AtomicU64,
    /// Nanoseconds this lane spent parked on the idle condvar.
    parked_ns: AtomicU64,
    /// Hardware-counter totals over jobs by work source: `[0]` = popped
    /// from this lane's own deque, `[1]` = stolen from another worker.
    /// Written only while `ninja_probe::counters_enabled()` and a counter
    /// group is open on the executing thread; injector-sourced jobs are
    /// counted by neither bucket (they carry no locality story).
    windows: [LaneWindow; 2],
}

/// Relaxed-atomic accumulator for one work source's counter deltas.
#[derive(Default)]
struct LaneWindow {
    cycles: AtomicU64,
    instructions: AtomicU64,
    llc_refs: AtomicU64,
    llc_misses: AtomicU64,
}

impl LaneWindow {
    /// Folds one job's counter delta in. Saturation is not needed here:
    /// the deltas are small per-job windows and a snapshot reader only
    /// ever diffs monotonic totals.
    fn accumulate(&self, d: &ninja_probe::counters::CounterSample) {
        // ORDERING: monotonic stats counters, same racy-snapshot contract
        // as the rest of the lane's instrumentation.
        self.cycles.fetch_add(d.cycles, Ordering::Relaxed);
        self.instructions
            .fetch_add(d.instructions, Ordering::Relaxed);
        self.llc_refs.fetch_add(d.llc_refs, Ordering::Relaxed);
        self.llc_misses.fetch_add(d.llc_misses, Ordering::Relaxed);
    }

    /// Renders the totals as a snapshot sample (event counts only; the
    /// time fields stay zero by design — see `WorkerStats::local_window`).
    fn snapshot(&self) -> ninja_probe::counters::CounterSample {
        ninja_probe::counters::CounterSample {
            // ORDERING: racy snapshot by design, as in `ThreadPool::metrics`.
            cycles: self.cycles.load(Ordering::Relaxed),
            instructions: self.instructions.load(Ordering::Relaxed),
            llc_refs: self.llc_refs.load(Ordering::Relaxed),
            llc_misses: self.llc_misses.load(Ordering::Relaxed),
            ..Default::default()
        }
    }
}

/// All instrumentation state for one pool. Counters are only written while
/// `ninja_probe::metrics_enabled()` is on; the disabled path performs a
/// single relaxed boolean load per region (see the overhead test in
/// `tests/metrics.rs`).
struct Counters {
    /// Lane 0 is the calling thread; lanes `1..` are the pool's workers.
    lanes: Vec<Lane>,
    regions: AtomicU64,
    joins: AtomicU64,
    epoch: Instant,
}

impl Counters {
    fn new(num_threads: usize) -> Self {
        Self {
            lanes: (0..num_threads).map(|_| Lane::default()).collect(),
            regions: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

/// Where `find_work` got a job from, for per-lane accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WorkSource {
    /// Popped from the executing worker's own deque.
    Local,
    /// Taken from the shared overflow injector.
    Injector,
    /// Stolen from another worker's deque.
    Stolen,
}

/// The calling worker's identity, registered in TLS by `worker_loop` so
/// `Shared::push` can route jobs to the worker's own deque.
#[derive(Clone, Copy)]
struct WorkerCtx {
    /// The pool this worker belongs to (identity-compared, never deref'd
    /// through — methods are called on the pool's own `&Shared`).
    shared: *const Shared,
    /// The worker's own deque, owned by its `worker_loop` stack frame.
    deque: *const Worker<JobRef>,
}

thread_local! {
    /// This thread's lane index in the pool it belongs to. Worker threads
    /// set their index at startup; every other thread (in particular the
    /// caller driving `parallel_for`) reports on lane 0.
    static LANE: Cell<usize> = const { Cell::new(0) };

    /// This thread's `perf_event_open` counter group, opened lazily on the
    /// first counted job and reused for the thread's lifetime (fds close
    /// when the thread exits). The `RefCell` doubles as the re-entrancy
    /// guard: a job that nests pool work (`join` claim-back) finds the
    /// cell already borrowed by the enclosing window and executes
    /// unwindowed, so nested work is counted exactly once — by the
    /// outermost window.
    static THREAD_COUNTERS: std::cell::RefCell<Option<ninja_probe::counters::ThreadCounters>> =
        const { std::cell::RefCell::new(None) };

    /// Set for pool worker threads only: the worker's pool + own deque,
    /// consulted by `Shared::push` for local routing.
    static WORKER_CTX: Cell<Option<WorkerCtx>> = const { Cell::new(None) };
}

fn current_lane(num_lanes: usize) -> usize {
    LANE.with(|l| l.get()).min(num_lanes.saturating_sub(1))
}

/// Consecutive empty scans a worker burns in `spin_loop` before yielding.
const SPIN_ROUNDS: u32 = 32;
/// Consecutive `yield_now` rounds after spinning, before parking.
const YIELD_ROUNDS: u32 = 4;
/// `Steal::Retry` attempts per queue per scan before moving on.
const RETRY_BUDGET: u32 = 4;

/// Drives one steal source to a verdict: `Success` yields the value,
/// `Empty` yields `None`, and `Retry` (a lost CAS race) is retried with a
/// `spin_loop` pause up to `budget` times before giving up for this scan.
///
/// This is the pool's entire retry/backoff policy in one testable place —
/// the Chase–Lev deque really does return [`Steal::Retry`] under
/// contention, unlike the old mutex stand-in that made this path dead
/// code.
fn retry_loop<T>(mut attempt: impl FnMut() -> Steal<T>, budget: u32) -> Option<T> {
    let mut retries = 0u32;
    loop {
        match attempt() {
            Steal::Success(value) => return Some(value),
            Steal::Empty => return None,
            Steal::Retry => {
                retries += 1;
                if retries > budget {
                    return None;
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// One step of xorshift64*; `state` must be nonzero.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

struct Shared {
    /// Overflow/external submission queue; the slow path.
    injector: Injector<JobRef>,
    /// Thief handles onto the workers' deques, indexed by `lane - 1`.
    stealers: Vec<Stealer<JobRef>>,
    /// Number of workers currently inside `park` — the pusher side of the
    /// Dekker handshake reads this to decide whether to notify.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    /// Queues `job`: onto the calling worker's own deque when the caller
    /// is one of this pool's workers, else onto the shared injector.
    fn push(&self, job: JobRef) {
        if let Err(job) = self.try_push_local(job) {
            self.injector.push(job);
        }
        self.notify_sleepers();
    }

    /// Queues `job` on the shared injector unconditionally. Used for
    /// `parallel_for` helper jobs: every idle participant must be able to
    /// discover the region, and a nested region's helpers stranded on one
    /// blocked worker's deque could deadlock the region's latch wait.
    fn push_external(&self, job: JobRef) {
        self.injector.push(job);
        self.notify_sleepers();
    }

    /// Routes `job` to the calling worker's own deque, or hands it back.
    fn try_push_local(&self, job: JobRef) -> Result<(), JobRef> {
        WORKER_CTX.with(|c| match c.get() {
            Some(ctx) if std::ptr::eq(ctx.shared, self) => {
                // SAFETY: the deque pointer was registered by this very
                // thread's `worker_loop` frame, which is alive beneath us
                // (we are running on that thread), and only the owner
                // thread ever calls `push`/`pop` on it.
                unsafe { (*ctx.deque).push(job) };
                Ok(())
            }
            _ => Err(job),
        })
    }

    /// Pops from the calling worker's own deque, if the caller is one of
    /// this pool's workers. Lets `help_one` drain self-spawned work.
    fn pop_local(&self) -> Option<JobRef> {
        WORKER_CTX.with(|c| match c.get() {
            Some(ctx) if std::ptr::eq(ctx.shared, self) => {
                // SAFETY: as in `try_push_local` — owner thread, live frame.
                unsafe { (*ctx.deque).pop() }
            }
            _ => None,
        })
    }

    /// The pusher side of the park handshake. The caller has already made
    /// work visible (deque bottom store / injector push); the SeqCst fence
    /// orders that publication before the `sleepers` read, pairing with
    /// `park`'s increment-then-recheck. Either we observe the sleeper and
    /// notify under the lock, or the sleeper's recheck observes our work —
    /// a push can never slip between a worker's last scan and its wait.
    fn notify_sleepers(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep_lock.lock();
            self.sleep_cv.notify_all();
        }
    }

    fn notify_all(&self) {
        let _guard = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }

    /// Whether any queue in the pool has visible work.
    fn any_work_visible(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Executes `job`, accounting it to `lane` with its `source` and (for
    /// timed jobs) its runtime, plus — when hardware-counter windows are
    /// requested — the job's counter delta in the lane's per-source
    /// bucket. The all-flags-off path is two relaxed loads.
    fn execute_counted(&self, lane: usize, job: JobRef, source: WorkSource) {
        let l = &self.counters.lanes[lane];
        let t0 = if ninja_probe::metrics_enabled() {
            // ORDERING: monotonic stats counters; snapshots tolerate skew
            // and no control flow depends on them.
            l.tasks.fetch_add(1, Ordering::Relaxed);
            match source {
                // ORDERING: monotonic stats counters, same contract as
                // the `tasks` increment above.
                WorkSource::Local => l.local_pops.fetch_add(1, Ordering::Relaxed),
                WorkSource::Injector => l.injector_pops.fetch_add(1, Ordering::Relaxed),
                WorkSource::Stolen => l.steals.fetch_add(1, Ordering::Relaxed),
            };
            job.timed.then(Instant::now)
        } else {
            None
        };
        if ninja_probe::counters_enabled() {
            Self::execute_windowed(l, job, source);
        } else {
            // SAFETY: per the JobRef protocol the job outlives its queue
            // entry.
            unsafe { job.execute() };
        }
        if let Some(t0) = t0 {
            // ORDERING: per-lane stats counter, as above. With counter
            // windows on, busy time includes the window's ioctls — the
            // per-job cost of asking the PMU.
            l.busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Executes `job` inside this thread's counter window, folding the
    /// delta into `lane`'s bucket for `source`.
    fn execute_windowed(lane: &Lane, job: JobRef, source: WorkSource) {
        THREAD_COUNTERS.with(|tc| match tc.try_borrow_mut() {
            Ok(mut slot) => {
                let counters = slot.get_or_insert_with(ninja_probe::counters::ThreadCounters::open);
                // SAFETY: per the JobRef protocol the job outlives its
                // queue entry.
                let ((), delta) = counters.window(|| unsafe { job.execute() });
                if let Some(d) = delta {
                    match source {
                        WorkSource::Local => lane.windows[0].accumulate(&d),
                        WorkSource::Stolen => lane.windows[1].accumulate(&d),
                        WorkSource::Injector => {}
                    }
                    if ninja_probe::tracing_enabled() {
                        if let Some(ipc) = d.ipc() {
                            ninja_probe::counter("worker ipc", &[("ipc", ipc)]);
                        }
                    }
                }
            }
            // The cell is borrowed by an enclosing window on this thread
            // (a job that nested pool work): execute plain, the outer
            // window already counts this work.
            // SAFETY: as above — the job outlives its queue entry.
            Err(_) => unsafe { job.execute() },
        });
    }

    /// Scans for one job: own deque (LIFO), then the injector, then a
    /// randomized sweep over the other workers' deques.
    fn find_work(
        &self,
        deque: &Worker<JobRef>,
        lane: usize,
        rng: &mut u64,
    ) -> Option<(JobRef, WorkSource)> {
        if let Some(job) = deque.pop() {
            return Some((job, WorkSource::Local));
        }
        if let Some(job) = retry_loop(|| self.injector.steal(), RETRY_BUDGET) {
            return Some((job, WorkSource::Injector));
        }
        let n = self.stealers.len();
        if n == 0 {
            return None;
        }
        let me = lane.checked_sub(1);
        let start = (xorshift(rng) as usize) % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = retry_loop(|| self.stealers[victim].steal(), RETRY_BUDGET) {
                return Some((job, WorkSource::Stolen));
            }
        }
        None
    }

    /// Blocks on the idle condvar until notified (or a 2ms backstop).
    ///
    /// The missed-wakeup fix: the sleeper announces itself in `sleepers`
    /// *under the condvar lock*, then re-checks every work source (all
    /// deques and the injector) and the shutdown flag before waiting. A
    /// push between the worker's last failed scan and this wait either
    /// sees `sleepers > 0` (and its notify cannot be lost — the sleeper
    /// holds the lock from announce to wait) or happened early enough for
    /// the re-check to see the work. The worker's own deque cannot hold
    /// work here: only the owner pushes to it, and it drained it in
    /// `find_work`.
    fn park(&self, lane: usize) {
        let mut guard = self.sleep_lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !self.any_work_visible() && !self.shutdown.load(Ordering::Acquire) {
            let t0 = ninja_probe::metrics_enabled().then(Instant::now);
            // Timed wait as a backstop against anything the handshake
            // still misses (e.g. a thief re-exposing work it cannot run).
            self.sleep_cv.wait_for(&mut guard, Duration::from_millis(2));
            if let Some(t0) = t0 {
                // ORDERING: monotonic stats counter; snapshot-read only.
                self.counters.lanes[lane]
                    .parked_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, deque: Worker<JobRef>, lane: usize, pin_core: Option<usize>) {
    if let Some(core) = pin_core {
        pin_to_core(core);
    }
    LANE.with(|l| l.set(lane));
    WORKER_CTX.with(|c| {
        c.set(Some(WorkerCtx {
            shared: Arc::as_ptr(&shared),
            deque: &deque,
        }))
    });
    // Per-worker xorshift64* seed: lane-derived, deliberately not
    // time-derived so victim sequences are reproducible run to run.
    let mut rng: u64 =
        0x9E37_79B9_7F4A_7C15 ^ ((lane as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut idle_rounds = 0u32;
    loop {
        if let Some((job, source)) = shared.find_work(&deque, lane, &mut rng) {
            idle_rounds = 0;
            shared.execute_counted(lane, job, source);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Bounded backoff: spin (cheap, latency-optimal), then yield the
        // timeslice, then park on the condvar until new work is pushed.
        idle_rounds = idle_rounds.saturating_add(1);
        if idle_rounds <= SPIN_ROUNDS {
            std::hint::spin_loop();
        } else if idle_rounds <= SPIN_ROUNDS + YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            shared.park(lane);
            // Stay in the post-spin regime: a spurious 2ms wakeup with no
            // work should park again promptly, not burn a spin phase.
            idle_rounds = SPIN_ROUNDS + YIELD_ROUNDS;
        }
    }
}

/// Best-effort pin of the calling thread to `core` via a raw
/// `sched_setaffinity` syscall (the offline build has no libc binding).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) {
    const SYS_SCHED_SETAFFINITY: u64 = 203;
    // 1024-bit CPU mask, the kernel's canonical cpu_set_t width.
    let mut mask = [0u64; 16];
    mask[(core / 64) % 16] = 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(pid=0 = self, len, mask) only reads
    // `mask.len() * 8` bytes from `mask` and writes no userspace memory;
    // rcx/r11 are clobbered per the syscall ABI. A failure return is
    // ignored on purpose — affinity is a hint, the thread runs unpinned.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0u64,
            in("rsi") (mask.len() * 8) as u64,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    let _ = ret;
}

/// Affinity pinning is a Linux/x86-64 fast path; a no-op elsewhere.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_core(_core: usize) {}

/// Configures and builds a [`ThreadPool`].
///
/// ```
/// use ninja_parallel::ThreadPoolBuilder;
///
/// let pool = ThreadPoolBuilder::new().num_threads(2).build();
/// assert_eq!(pool.num_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    affinity: bool,
}

impl ThreadPoolBuilder {
    /// A builder with defaults: hardware-sized, no affinity.
    pub fn new() -> Self {
        Self {
            num_threads: None,
            affinity: false,
        }
    }

    /// Total participating threads (caller + workers). Default: one per
    /// hardware thread.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Round-robin-pin each worker to a core (`lane % hardware_threads`)
    /// via `sched_setaffinity`. Best effort: unsupported platforms and
    /// denied syscalls silently leave workers unpinned. The calling
    /// thread (lane 0) is never pinned. Default: off.
    pub fn affinity(mut self, on: bool) -> Self {
        self.affinity = on;
        self
    }

    /// Builds the pool, spawning `num_threads - 1` workers.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads(0)` was requested.
    pub fn build(self) -> ThreadPool {
        let num_threads = self.num_threads.unwrap_or_else(crate::hardware_threads);
        assert!(num_threads > 0, "a ThreadPool needs at least one thread");
        let deques: Vec<Worker<JobRef>> = (1..num_threads).map(|_| Worker::new()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers: deques.iter().map(Worker::stealer).collect(),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::new(num_threads),
        });
        let hw = crate::hardware_threads().max(1);
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let lane = i + 1;
                let s = Arc::clone(&shared);
                let pin = self.affinity.then_some(lane % hw);
                std::thread::Builder::new()
                    .name(format!("ninja-worker-{lane}"))
                    .spawn(move || worker_loop(s, deque, lane, pin))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            num_threads,
        }
    }
}

impl Default for ThreadPoolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A persistent pool of worker threads with OpenMP-style loop scheduling.
///
/// The pool is the reproduction's stand-in for the paper's OpenMP runtime:
/// kernels hand it index ranges and it distributes dynamically-sized chunks
/// over the workers (plus the calling thread, which always participates).
/// Task-shaped work (`join`, `scope`) schedules through per-worker
/// work-stealing deques — see the module docs.
///
/// Dropping the pool joins all workers.
///
/// ```
/// use ninja_parallel::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::with_threads(4);
/// let hits = AtomicUsize::new(0);
/// pool.parallel_for(0..100, 8, |range| {
///     hits.fetch_add(range.len(), Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Creates a pool with one thread per available hardware thread.
    pub fn new() -> Self {
        ThreadPoolBuilder::new().build()
    }

    /// Creates a pool with exactly `num_threads` participating threads
    /// (including the caller; `num_threads - 1` workers are spawned).
    ///
    /// A pool of 1 runs everything inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn with_threads(num_threads: usize) -> Self {
        ThreadPoolBuilder::new().num_threads(num_threads).build()
    }

    /// A builder for pools with non-default scheduling options.
    pub fn builder() -> ThreadPoolBuilder {
        ThreadPoolBuilder::new()
    }

    /// A process-wide pool sized to the hardware, created on first use.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(ThreadPool::new)
    }

    /// Number of threads that participate in parallel regions (workers plus
    /// the calling thread).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `body` over every index chunk of `range`, in parallel, with
    /// dynamic scheduling. Chunks have at most `grain` indices.
    ///
    /// Equivalent to `#pragma omp parallel for schedule(dynamic, grain)`.
    /// The calling thread participates. Returns when every chunk has run.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic with its original payload (after
    /// all other chunks finish), so `catch_unwind` around a parallel
    /// region sees the same message a sequential loop would have raised.
    /// The pool itself stays healthy and can run further regions.
    pub fn parallel_for<F>(&self, range: Range<usize>, grain: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        // One relaxed load per region; everything below only pays for
        // instrumentation when the probe flags are on.
        let metrics_on = ninja_probe::metrics_enabled();
        if metrics_on {
            // ORDERING: monotonic stats counter; read only in snapshots.
            self.shared.counters.regions.fetch_add(1, Ordering::Relaxed);
        }
        let grain = grain.max(1);
        let n_chunks = n.div_ceil(grain);
        let threads = self.num_threads.min(n_chunks);
        if threads <= 1 {
            let _region = ninja_probe::span("parallel_for");
            if metrics_on {
                let t0 = Instant::now();
                body(range);
                let lane = &self.shared.counters.lanes[current_lane(self.num_threads)];
                // ORDERING: per-lane stats counters; snapshot reads tolerate
                // skew between lanes.
                lane.chunks.fetch_add(1, Ordering::Relaxed);
                lane.busy_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            } else {
                body(range);
            }
            return;
        }

        let next_chunk = AtomicUsize::new(0);
        let start = range.start;
        let end = range.end;
        let counters = &self.shared.counters;
        let harness = move || {
            // Each participant (caller and any worker that picks up the
            // shared job) traces its own lane and accounts its own busy
            // time, so imbalance between lanes is visible.
            let _region = ninja_probe::span("parallel_for");
            let t0 = metrics_on.then(Instant::now);
            let mut my_chunks = 0u64;
            loop {
                // ORDERING: the chunk claim is an isolated counter — each
                // index is claimed exactly once by atomicity alone, and the
                // region's completion latch orders the loop body's writes.
                let i = next_chunk.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                my_chunks += 1;
                let lo = start + i * grain;
                let hi = (lo + grain).min(end);
                body(lo..hi);
            }
            if let Some(t0) = t0 {
                // A participant that arrived after the chunks ran out did
                // no work; recording its sliver of loop overhead as busy
                // time would pollute the imbalance statistics.
                if my_chunks > 0 {
                    let elapsed_ns = t0.elapsed().as_nanos() as u64;
                    let lane = &counters.lanes[current_lane(counters.lanes.len())];
                    // ORDERING: per-lane stats counters; snapshot reads
                    // tolerate skew between lanes.
                    lane.chunks.fetch_add(my_chunks, Ordering::Relaxed);
                    lane.busy_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
                    // Per-participant busy counter track ("ph":"C"), one
                    // point per region — Perfetto charts lane imbalance
                    // over time from these.
                    ninja_probe::counter("worker busy_ms", &[("busy_ms", elapsed_ns as f64 / 1e6)]);
                }
            }
        };

        let helpers = threads - 1;
        let latch = CountLatch::new(helpers);
        let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
        let job = SharedJob {
            func: &harness,
            latch: &latch,
            panic: &panic_slot,
        };
        for _ in 0..helpers {
            // Helper jobs bypass local-deque routing (`push_external`):
            // every idle worker must be able to discover the region, and
            // the harness accounts its own busy time (`timed: false`).
            self.shared.push_external(JobRef {
                data: &job as *const SharedJob<'_> as *const (),
                exec: exec_shared,
                timed: false,
            });
        }

        // Even if the inline harness panics we must wait for the workers
        // before unwinding, or they would reference a dead stack frame.
        struct WaitOnDrop<'a>(&'a CountLatch);
        impl Drop for WaitOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        {
            let _wait = WaitOnDrop(&latch);
            harness();
        }
        let worker_panic = panic_slot.lock().take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Parallel map-reduce over an index range.
    ///
    /// `map` produces a partial value for each chunk; partials are folded
    /// with `reduce` in a nondeterministic order (use associative,
    /// commutative reductions — for floating point this means results can
    /// differ across runs in the last bits).
    pub fn parallel_reduce<T, M, R>(
        &self,
        range: Range<usize>,
        grain: usize,
        identity: T,
        map: M,
        reduce: R,
    ) -> T
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
    {
        let acc: Mutex<Option<T>> = Mutex::new(None);
        self.parallel_for(range, grain, |chunk| {
            let part = map(chunk);
            let mut guard = acc.lock();
            *guard = Some(match guard.take() {
                Some(prev) => reduce(prev, part),
                None => part,
            });
        });
        match acc.into_inner() {
            Some(total) => reduce(identity, total),
            None => identity,
        }
    }

    /// Queues a type-erased heap job (used by [`crate::Scope`]). Routed to
    /// the calling worker's own deque when possible.
    pub(crate) fn push_heap_job(&self, data: *const (), exec: unsafe fn(*const ())) {
        self.shared.push(JobRef {
            data,
            exec,
            timed: true,
        });
    }

    /// Pops and executes one queued job if any; returns whether it did.
    /// Lets waiting threads contribute instead of spinning: own deque
    /// first (if the caller is a worker), then the injector, then theft.
    pub(crate) fn help_one(&self) -> bool {
        let lane = current_lane(self.num_threads);
        if let Some(job) = self.shared.pop_local() {
            self.shared.execute_counted(lane, job, WorkSource::Local);
            return true;
        }
        if let Some(job) = retry_loop(|| self.shared.injector.steal(), RETRY_BUDGET) {
            self.shared.execute_counted(lane, job, WorkSource::Injector);
            return true;
        }
        for stealer in &self.shared.stealers {
            if let Some(job) = retry_loop(|| stealer.steal(), RETRY_BUDGET) {
                self.shared.execute_counted(lane, job, WorkSource::Stolen);
                return true;
            }
        }
        false
    }

    /// A point-in-time snapshot of the pool's instrumentation counters.
    ///
    /// Counters only advance while [`ninja_probe::set_metrics`] is on, and
    /// accumulate from pool creation; diff two snapshots with
    /// [`ninja_probe::PoolMetrics::delta`] to isolate one region of
    /// interest (the harness brackets each measured variant this way).
    pub fn metrics(&self) -> ninja_probe::PoolMetrics {
        let c = &self.shared.counters;
        let workers: Vec<ninja_probe::WorkerStats> = c
            .lanes
            .iter()
            .map(|l| ninja_probe::WorkerStats {
                // ORDERING: a racy snapshot by design — callers diff
                // snapshots taken around a quiescent point (after a
                // region's join).
                tasks: l.tasks.load(Ordering::Relaxed),
                chunks: l.chunks.load(Ordering::Relaxed),
                busy_ns: l.busy_ns.load(Ordering::Relaxed),
                local_pops: l.local_pops.load(Ordering::Relaxed),
                injector_pops: l.injector_pops.load(Ordering::Relaxed),
                steals: l.steals.load(Ordering::Relaxed),
                parked_ns: l.parked_ns.load(Ordering::Relaxed),
                local_window: l.windows[0].snapshot(),
                steal_window: l.windows[1].snapshot(),
            })
            .collect();
        ninja_probe::PoolMetrics {
            threads: self.num_threads,
            at_ns: c.epoch.elapsed().as_nanos() as u64,
            // ORDERING: same racy-snapshot contract as above.
            regions: c.regions.load(Ordering::Relaxed),
            joins: c.joins.load(Ordering::Relaxed),
            steals: workers.iter().map(|w| w.steals).sum(),
            workers,
        }
    }

    /// Calls `body` on every element of `items`, in parallel, with dynamic
    /// chunk scheduling (`grain` elements per chunk).
    ///
    /// Convenience wrapper over [`ThreadPool::parallel_for`] for read-only
    /// sweeps (use [`crate::par_chunks_mut`] to write).
    pub fn parallel_for_each<T, F>(&self, items: &[T], grain: usize, body: F)
    where
        T: Sync,
        F: Fn(usize, &T) + Sync,
    {
        self.parallel_for(0..items.len(), grain, |range| {
            for i in range {
                body(i, &items[i]);
            }
        });
    }

    /// Runs two closures, potentially in parallel, returning both results.
    ///
    /// The second closure is offered to the pool (the calling worker's own
    /// deque when possible — a thief takes it FIFO); the caller runs the
    /// first and then claims the second back if nobody started it (the
    /// common case on an idle pool), or waits for the thief to finish.
    ///
    /// The waiter deliberately does **not** execute unrelated queued jobs:
    /// executing an arbitrary job while blocked nests that job's entire
    /// subtree on the current stack, and the nesting depth would be
    /// bounded only by the number of outstanding jobs — deeply recursive
    /// `join` trees (e.g. parallel merge sort) overflow the stack.
    /// Claim-back already guarantees progress without helping.
    ///
    /// # Panics
    ///
    /// Propagates a panic from either closure.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if ninja_probe::metrics_enabled() {
            // ORDERING: monotonic stats counter; read only in snapshots.
            self.shared.counters.joins.fetch_add(1, Ordering::Relaxed);
        }
        if self.num_threads <= 1 {
            return (a(), b());
        }
        // Two references: one for the queue entry, one for this frame.
        let shared = Box::into_raw(Box::new(SharedOnce {
            job: OnceJob::new(b),
            refs: AtomicUsize::new(2),
        }));
        self.shared.push(JobRef {
            data: shared as *const (),
            exec: exec_once::<B, RB>,
            timed: true,
        });
        let ra = a();
        // SAFETY: we hold one reference until release below.
        let job = unsafe { &(*shared).job };
        // Claim b back if nobody started it; otherwise wait for the thief.
        if !job.try_run() {
            let mut spins = 0u32;
            while !job.is_done() {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        let rb = job.take_result();
        // SAFETY: releasing this frame's reference.
        unsafe { release_shared_once::<B, RB>(shared as *const ()) };
        (ra, rb)
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.num_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::with_threads(1);
        let mut hits = vec![false; 50];
        let cell = Mutex::new(&mut hits);
        pool.parallel_for(0..50, 7, |r| {
            let mut guard = cell.lock();
            for i in r {
                guard[i] = true;
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::with_threads(4);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..1000, 13, |r| {
            for i in r {
                // ORDERING: parallel_for's join orders these test counters.
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        // ORDERING: read after the region's join; no concurrent writers left.
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        let pool = ThreadPool::with_threads(2);
        pool.parallel_for(5..5, 4, |_| panic!("must not run"));
    }

    #[test]
    fn parallel_for_grain_zero_treated_as_one() {
        let pool = ThreadPool::with_threads(2);
        let n = AtomicUsize::new(0);
        pool.parallel_for(0..10, 0, |r| {
            assert_eq!(r.len(), 1);
            // ORDERING: parallel_for's join orders this test counter.
            n.fetch_add(1, Ordering::Relaxed);
        });
        // ORDERING: read after the region's join; no concurrent writers left.
        assert_eq!(n.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn reduce_sums_correctly() {
        let pool = ThreadPool::with_threads(3);
        let total = pool.parallel_reduce(
            0..10_000,
            97,
            0u64,
            |r| r.map(|i| i as u64).sum(),
            |a, b| a + b,
        );
        assert_eq!(total, (0..10_000u64).sum());
    }

    #[test]
    fn reduce_empty_range_yields_identity() {
        let pool = ThreadPool::with_threads(2);
        let v = pool.parallel_reduce(3..3, 8, 42i32, |_| panic!("no chunks"), |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let pool = ThreadPool::with_threads(3);
        let items: Vec<u32> = (0..500).collect();
        let hits: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_each(&items, 17, |i, &v| {
            assert_eq!(v as usize, i);
            // ORDERING: parallel_for's join orders this test counter.
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        // ORDERING: read after the region's join; no concurrent writers left.
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::with_threads(2);
        let (a, b) = pool.join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn join_single_thread() {
        let pool = ThreadPool::with_threads(1);
        let (a, b) = pool.join(|| 5, || 6);
        assert_eq!((a, b), (5, 6));
    }

    #[test]
    fn claimed_back_join_refs_are_harmless() {
        // Regression: a claimed-back join leaves its JobRef in the queue;
        // the entry must stay valid (refcounted) until a worker pops it,
        // even long after the join frame returned.
        let pool = ThreadPool::with_threads(2);
        for i in 0..2_000u64 {
            let (a, b) = pool.join(move || i, move || i + 1);
            assert_eq!((a, b), (i, i + 1));
        }
        // Force the workers to drain any stale queued refs.
        let n = AtomicUsize::new(0);
        pool.parallel_for(0..256, 1, |_| {
            // ORDERING: parallel_for's join orders this test counter.
            n.fetch_add(1, Ordering::Relaxed);
        });
        // ORDERING: read after the region's join; no concurrent writers left.
        assert_eq!(n.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn nested_joins_recursive_fib() {
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = ThreadPool::with_threads(4);
        assert_eq!(fib(&pool, 16), 987);
    }

    #[test]
    fn panic_in_parallel_for_propagates() {
        let pool = ThreadPool::with_threads(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0..8, 1, |r| {
                if r.start == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        pool.parallel_for(0..4, 1, |_| {
            // ORDERING: parallel_for's join orders this test counter.
            n.fetch_add(1, Ordering::Relaxed);
        });
        // ORDERING: read after the region's join; no concurrent writers left.
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_in_join_propagates() {
        let pool = ThreadPool::with_threads(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("boom") })
        }));
        assert!(result.is_err());
    }

    /// Extracts the human-readable message from a caught panic payload.
    fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn parallel_for_preserves_panic_payload() {
        let pool = ThreadPool::with_threads(4);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0..64, 1, |r| {
                if r.start == 17 {
                    panic!("chunk {} exploded", r.start);
                }
            });
        }))
        .unwrap_err();
        assert_eq!(payload_message(err.as_ref()), "chunk 17 exploded");
    }

    #[test]
    fn join_preserves_panic_payload_from_stolen_task() {
        let pool = ThreadPool::with_threads(2);
        for _ in 0..50 {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || std::thread::sleep(Duration::from_micros(50)),
                    || -> i32 { panic!("task b failed: code 42") },
                )
            }))
            .unwrap_err();
            assert_eq!(payload_message(err.as_ref()), "task b failed: code 42");
        }
    }

    #[test]
    fn pool_runs_correctly_after_many_panics() {
        let pool = ThreadPool::with_threads(3);
        for round in 0..20 {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for(0..32, 1, |r| {
                    if r.start % 5 == round % 5 {
                        panic!("round {round}");
                    }
                });
            }));
            let n = AtomicUsize::new(0);
            pool.parallel_for(0..100, 7, |r| {
                // ORDERING: parallel_for's join orders this test counter.
                n.fetch_add(r.len(), Ordering::Relaxed);
            });
            // ORDERING: read after the region's join.
            assert_eq!(n.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn concurrent_joins_reraise_panics_to_their_own_callers() {
        // Several OS threads share one pool; panicking joins must re-raise
        // in the caller that submitted them, never a bystander, and clean
        // joins interleaved on the same pool must keep returning correct
        // values.
        let pool = Arc::new(ThreadPool::with_threads(4));
        let mut handles = Vec::new();
        for t in 0..6usize {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for round in 0..40usize {
                    if (t + round) % 2 == 0 {
                        let (a, b) = pool.join(|| t * 1000 + round, || round * 7);
                        assert_eq!(a, t * 1000 + round);
                        assert_eq!(b, round * 7);
                    } else {
                        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            pool.join(std::thread::yield_now, || -> usize {
                                panic!("caller {t} round {round}")
                            })
                        }))
                        .unwrap_err();
                        assert_eq!(
                            payload_message(err.as_ref()),
                            format!("caller {t} round {round}")
                        );
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pool_usable_immediately_after_panicked_parallel_for_under_load() {
        // A panicked parallel_for must leave the pool ready for the very
        // next region with no settling delay, even while another thread
        // keeps clean work flowing through the same workers.
        let pool = Arc::new(ThreadPool::with_threads(4));
        let stop = Arc::new(AtomicBool::new(false));
        let bg = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                // ORDERING: advisory stop flag; the thread join below is the
                // real synchronization point.
                while !stop.load(Ordering::Relaxed) {
                    let sum = pool.parallel_reduce(
                        0..256,
                        16,
                        0usize,
                        |r| r.sum::<usize>(),
                        |a, b| a + b,
                    );
                    assert_eq!(sum, (0..256).sum());
                    rounds += 1;
                }
                rounds
            })
        };
        for round in 0..25 {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for(0..64, 1, |r| {
                    if r.start == 31 {
                        panic!("round {round}");
                    }
                });
            }))
            .unwrap_err();
            assert_eq!(payload_message(err.as_ref()), format!("round {round}"));
            // Immediately reuse the pool — no sleep, no settling.
            let n = AtomicUsize::new(0);
            pool.parallel_for(0..64, 3, |r| {
                // ORDERING: parallel_for's join orders this test counter.
                n.fetch_add(r.len(), Ordering::Relaxed);
            });
            // ORDERING: read after the region's join.
            assert_eq!(n.load(Ordering::Relaxed), 64);
        }
        // ORDERING: advisory stop flag; the join below synchronizes.
        stop.store(true, Ordering::Relaxed);
        let bg_rounds = bg.join().unwrap();
        assert!(bg_rounds > 0, "background load never ran");
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = ThreadPool::global() as *const _;
        let b = ThreadPool::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn many_sequential_regions_reuse_workers() {
        let pool = ThreadPool::with_threads(3);
        for round in 0..100 {
            let sum = pool.parallel_reduce(
                0..128,
                16,
                0usize,
                |r| r.sum::<usize>() + round - round,
                |a, b| a + b,
            );
            assert_eq!(sum, (0..128).sum());
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::with_threads(0);
    }

    #[test]
    fn debug_format_mentions_threads() {
        let pool = ThreadPool::with_threads(2);
        assert!(format!("{pool:?}").contains("num_threads"));
    }

    // --- work-stealing runtime tests ---

    #[test]
    fn retry_loop_returns_success_immediately() {
        let calls = Cell::new(0u32);
        let got = retry_loop(
            || {
                calls.set(calls.get() + 1);
                Steal::Success(7)
            },
            4,
        );
        assert_eq!(got, Some(7));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn retry_loop_retries_through_lost_races_then_succeeds() {
        // The direct unit test of the pool's retry/backoff path: a source
        // that loses the CAS race a few times must be re-attempted, not
        // treated as empty.
        let calls = Cell::new(0u32);
        let got = retry_loop(
            || {
                calls.set(calls.get() + 1);
                if calls.get() <= 3 {
                    Steal::Retry
                } else {
                    Steal::Success(99)
                }
            },
            4,
        );
        assert_eq!(got, Some(99));
        assert_eq!(calls.get(), 4, "three retries then the winning attempt");
    }

    #[test]
    fn retry_loop_gives_up_after_budget_and_on_empty() {
        let calls = Cell::new(0u32);
        let got: Option<()> = retry_loop(
            || {
                calls.set(calls.get() + 1);
                Steal::Retry
            },
            4,
        );
        assert_eq!(got, None, "a persistently-contended source is skipped");
        assert_eq!(calls.get(), 5, "initial attempt + budget retries");

        let got: Option<()> = retry_loop(|| Steal::Empty, 4);
        assert_eq!(got, None);
    }

    #[test]
    fn builder_gives_every_worker_a_stealable_deque() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build();
        assert_eq!(pool.num_threads(), 3);
        assert_eq!(pool.shared.stealers.len(), 2);
    }

    #[test]
    fn affinity_pool_computes_correctly() {
        // Pinning is best-effort; whatever the platform does with the
        // syscall, the pool must behave identically.
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .affinity(true)
            .build();
        let total = pool.parallel_reduce(
            0..1024,
            16,
            0u64,
            |r| r.map(|i| i as u64).sum(),
            |a, b| a + b,
        );
        assert_eq!(total, (0..1024u64).sum());
    }

    #[test]
    fn workers_park_and_wake_across_idle_gaps() {
        // Liveness hammer for the park/notify handshake: force the workers
        // through many park cycles (3ms idle gaps > the 2ms backstop) with
        // a small region after each; a lost wakeup would show up as the
        // region stalling until the backstop fires — or forever, were the
        // backstop removed. The assertion is completion, not timing.
        let pool = ThreadPool::with_threads(4);
        for round in 0..40 {
            std::thread::sleep(Duration::from_millis(3));
            let n = AtomicUsize::new(0);
            pool.parallel_for(0..64, 4, |r| {
                // ORDERING: parallel_for's join orders this test counter.
                n.fetch_add(r.len(), Ordering::Relaxed);
            });
            // ORDERING: read after the region's join.
            assert_eq!(n.load(Ordering::Relaxed), 64, "round {round}");
        }
    }

    #[test]
    fn counter_windows_attach_per_source_and_never_break_scheduling() {
        // Counter windows ride along on the deque execution path; whether
        // the host grants a PMU or not, scheduling must be untouched and
        // the per-source buckets must stay internally consistent.
        ninja_probe::set_counters(true);
        let pool = ThreadPool::with_threads(4);
        fn sum_range(pool: &ThreadPool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = pool.join(|| sum_range(pool, lo, mid), || sum_range(pool, mid, hi));
            a + b
        }
        assert_eq!(sum_range(&pool, 0, 50_000), (0..50_000u64).sum());
        let m = pool.metrics();
        ninja_probe::set_counters(false);
        let available = ninja_probe::counters::availability().is_available();
        for w in &m.workers {
            if !available {
                // Degradation contract: no fabricated counts.
                assert!(!w.local_window.any_counted(), "{w:?}");
                assert!(!w.steal_window.any_counted(), "{w:?}");
            }
            // Whatever was counted, derived ratios stay in range.
            if let Some(rate) = w.steal_window.llc_miss_rate() {
                assert!((0.0..=1.0).contains(&rate));
            }
        }
        if available {
            let counted: u64 = m
                .workers
                .iter()
                .map(|w| w.local_window.cycles + w.steal_window.cycles)
                .sum();
            assert!(counted > 0, "a PMU-capable host should have counted jobs");
        }
    }

    #[test]
    fn deep_join_tree_is_correct_under_stealing() {
        // A deeper recursion than fib(16): exercises local push, LIFO pop,
        // claim-back, and cross-worker theft all at once.
        fn sum_range(pool: &ThreadPool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 32 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = pool.join(|| sum_range(pool, lo, mid), || sum_range(pool, mid, hi));
            a + b
        }
        let pool = ThreadPool::with_threads(4);
        assert_eq!(sum_range(&pool, 0, 100_000), (0..100_000u64).sum());
    }
}
