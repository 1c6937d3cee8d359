//! The serving phases: one generator thread drives an `Engine` through
//! its public `submit`/`Ticket::wait` surface, closed loop (`solo`: one
//! request in flight, `burst`: one `max_batch` of callers) and, in the
//! traced run only, open loop at a fixed rate.
//!
//! Serving is measured closed loop because its callers are in-process
//! threads that each wait on a `Ticket`, and per core (see `affinity`).
//! The served kernel's pool has one thread, so a batch executes inline on
//! the executor: with two, `parallel_for`'s latch is hit after its frame
//! is gone often enough to wedge or crash a run (see the README).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninja_kernels::black_scholes::OptionContract;
use ninja_kernels::chaos::FailureMode;
use ninja_kernels::libor::NMAT;
use ninja_parallel::ThreadPool;
use ninja_serve::{BatchKernel, Engine, Response, Rung, ServeConfig, TreeSearchServe};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{better_quartile, percentile, window_percentiles};
use crate::trace::Recorder;

/// Requests generated per workload; phases cycle through them.
pub const REQUESTS: usize = 65_536;
/// Callers in the `burst` phase: one default `max_batch`.
pub const BURST_IN_FLIGHT: usize = 64;
/// Pause of the `solo` caller between requests. A lone caller that sends
/// back to back is bimodal: 6-8 us while batcher and executor are still
/// spinning on their channels, 15-30 us once one of them has parked, and
/// which mode a window falls into is chance. With the pause every request
/// finds the engine's threads parked, which is what a lone caller meets.
pub const SOLO_THINK: Duration = Duration::from_micros(300);
/// Length of the windows a phase is cut into; see `stats::better_quartile`.
pub const WINDOW: Duration = Duration::from_millis(500);
/// One request in this many gets `submit`/`wait` spans in the traced run;
/// recording all of them would make the trace the workload.
const REQUEST_SPAN_EVERY: u64 = 64;

/// Black-Scholes contracts over the ranges `reproduce --serve` uses.
pub fn blackscholes_requests(seed: u64, n: usize) -> Vec<OptionContract> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| OptionContract {
            spot: rng.gen_range(5.0..120.0),
            strike: rng.gen_range(10.0..100.0),
            years: rng.gen_range(0.1..5.0),
            rate: rng.gen_range(0.01..0.08),
            vol: rng.gen_range(0.05..0.6),
        })
        .collect()
}

/// Libor paths: `NMAT` draws each, uniform in ±3 as in `reproduce --serve`.
pub fn libor_requests(seed: u64, n: usize) -> Vec<[f32; NMAT]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-3.0..3.0)))
        .collect()
}

/// Tree queries covering hits, misses and out-of-range probes.
pub fn treesearch_requests(kernel: &TreeSearchServe, seed: u64, n: usize) -> Vec<f32> {
    let hi = kernel.tree().num_keys() as f32 * 1.3;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..hi)).collect()
}

/// Delegates to the real kernel and times every `run`: on the batcher
/// thread `run(Rung::Scalar)` is the validate-reference stage, on the
/// executor thread `run(Ninja | Simd)` is execute. Every call adds to the
/// stage totals; one call in `BATCH_SPAN_EVERY` also records a span, so
/// the trace shows the stages without growing by 200k spans a second.
pub struct Traced<K> {
    inner: K,
    recorder: Arc<Recorder>,
    totals: [AtomicU64; 4],
}

/// Calls and nanoseconds of the two serving stages so far.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// `run(Rung::Scalar)` calls: one per batch.
    pub references: u64,
    /// Nanoseconds inside them.
    pub reference_ns: u64,
    /// `run(Ninja | Simd)` calls: one per attempt above the scalar floor.
    pub executes: u64,
    /// Nanoseconds inside them.
    pub execute_ns: u64,
}

impl StageTotals {
    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &StageTotals) -> StageTotals {
        StageTotals {
            references: self.references - earlier.references,
            reference_ns: self.reference_ns - earlier.reference_ns,
            executes: self.executes - earlier.executes,
            execute_ns: self.execute_ns - earlier.execute_ns,
        }
    }
}

/// One `run` call in this many records a span.
const BATCH_SPAN_EVERY: u64 = 16;

impl<K> Traced<K> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: K, recorder: Arc<Recorder>) -> Self {
        Self {
            inner,
            recorder,
            totals: Default::default(),
        }
    }

    /// The stage totals so far.
    pub fn totals(&self) -> StageTotals {
        // Relaxed: statistics that publish no other data.
        let [references, reference_ns, executes, execute_ns] =
            [0, 1, 2, 3].map(|i| self.totals[i].load(Ordering::Relaxed));
        StageTotals {
            references,
            reference_ns,
            executes,
            execute_ns,
        }
    }
}

/// Span name of the reference stage.
const SPAN_REFERENCE: &str = "serve.reference";
/// Span name prefix of the execute stage; the rung name follows.
const SPAN_EXECUTE: &str = "serve.execute.";

impl<K: BatchKernel> BatchKernel for Traced<K> {
    type Req = K::Req;
    type Resp = K::Resp;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, rung: Rung, reqs: &[K::Req]) -> Vec<K::Resp> {
        let (calls, ns) = match rung {
            Rung::Scalar => (&self.totals[0], &self.totals[1]),
            _ => (&self.totals[2], &self.totals[3]),
        };
        let nth = calls.fetch_add(1, Ordering::Relaxed);
        let _span = nth.is_multiple_of(BATCH_SPAN_EVERY).then(|| match rung {
            Rung::Scalar => self.recorder.span(SPAN_REFERENCE),
            other => self.recorder.span(format!("{SPAN_EXECUTE}{other}")),
        });
        let start = Instant::now();
        let out = self.inner.run(rung, reqs);
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn matches(&self, got: &K::Resp, reference: &K::Resp) -> bool {
        self.inner.matches(got, reference)
    }

    fn corrupt(&self, resp: &mut K::Resp, mode: FailureMode) {
        self.inner.corrupt(resp, mode)
    }
}

/// A started engine with its pre-generated requests and the answers the
/// generator re-verifies every `Ok` against.
pub struct Serving<K: BatchKernel> {
    /// The engine under test.
    pub engine: Engine<K>,
    /// The requests, cycled by every phase.
    pub requests: Vec<K::Req>,
    /// `run(Rung::Scalar)` of each request, computed during set-up.
    pub expected: Vec<K::Resp>,
}

impl<K: BatchKernel> Serving<K> {
    /// Computes the expected answers and starts an engine with no chaos.
    pub fn start(kernel: K, requests: Vec<K::Req>) -> Self {
        let expected = kernel.run(Rung::Scalar, &requests);
        Self::with_expected(kernel, requests, expected)
    }

    /// [`Serving::start`] with answers already computed, for a second
    /// engine over the same requests.
    pub fn with_expected(kernel: K, requests: Vec<K::Req>, expected: Vec<K::Resp>) -> Self {
        // The default config but for the deadline. On a shared host a
        // thread can lose its core for longer than the default 50 ms; such
        // a stall should make responses late (they then miss the latency
        // limit and goodput), not make the engine expire them, because a
        // benchmark workload is one on which no operation fails.
        let config = ServeConfig {
            deadline: Duration::from_secs(1),
            ..ServeConfig::default()
        };
        Self {
            engine: Engine::new(kernel, config, None),
            requests,
            expected,
        }
    }
}

/// The one-thread pool a served kernel executes its ninja rung on.
pub fn serving_pool() -> Arc<ThreadPool> {
    Arc::new(ThreadPool::with_threads(1))
}

/// What one phase saw. Latencies are the generator's own submit-to-`wait`
/// return times.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Per window: latencies (us) of the good responses that completed in it.
    pub windows: Vec<Vec<f64>>,
    /// Requests whose response completed inside a measured window.
    pub attempted: u64,
    /// `Ok`, client-verified and within the latency limit.
    pub good: u64,
    /// `Ok` and verified but later than the limit.
    pub late: u64,
    /// `Ok` whose value failed the generator's `matches`.
    pub incorrect: u64,
    /// Shed at admission.
    pub rejected: u64,
    /// Ran out of deadline.
    pub expired: u64,
    /// Ticket not resolved within deadline + grace + one backoff.
    pub unresolved: u64,
    /// `Ok` served below the ninja rung.
    pub degraded: u64,
    /// Total time inside `submit` calls, and their number.
    pub submit_ns: u64,
    /// Number of `submit` calls timed.
    pub submits: u64,
    /// `queue_us` of the measured `Ok` responses.
    pub queue_us: Vec<f64>,
    /// Sum of `total_us - queue_us` over the measured `Ok` responses.
    pub service_us_sum: f64,
}

impl PhaseStats {
    /// Responses that broke the serving contract (late ones did not).
    pub fn failed(&self) -> u64 {
        self.incorrect + self.rejected + self.expired + self.unresolved
    }

    /// First quartile over windows of the per-window `q` percentile latency.
    pub fn latency_us(&self, q: f64) -> f64 {
        better_quartile(&window_percentiles(&self.windows, q), true)
    }

    /// Third quartile over windows of good responses per second.
    pub fn goodput_rps(&self) -> f64 {
        let mut per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.len() as f64 / WINDOW.as_secs_f64())
            .collect();
        per_window.sort_by(f64::total_cmp);
        better_quartile(&per_window, false)
    }
}

fn resolve_budget(cfg: &ServeConfig) -> Duration {
    cfg.deadline + cfg.attempt_grace + cfg.backoff_cap + Duration::from_millis(250)
}

/// The shape of one closed-loop phase.
#[derive(Copy, Clone, Debug)]
pub struct Phase {
    /// Requests kept outstanding.
    pub in_flight: usize,
    /// Each caller's pause between a response and its next request.
    pub think: Duration,
    /// Discarded lead-in.
    pub warm: Duration,
    /// Whole windows measured after it.
    pub windows: usize,
}

impl Phase {
    /// One caller with [`SOLO_THINK`] between requests.
    pub fn solo(warm: Duration, windows: usize) -> Self {
        Self {
            in_flight: 1,
            think: SOLO_THINK,
            warm,
            windows,
        }
    }

    /// [`BURST_IN_FLIGHT`] callers sending back to back.
    pub fn burst(warm: Duration, windows: usize) -> Self {
        Self {
            in_flight: BURST_IN_FLIGHT,
            think: Duration::ZERO,
            warm,
            windows,
        }
    }
}

/// Runs one closed-loop phase. `first` is the index of the first request,
/// so phases continue through the request set instead of replaying its
/// head; a response later than `limit_us` does not count as good.
pub fn closed_loop<K: BatchKernel>(
    serving: &Serving<K>,
    phase: Phase,
    limit_us: u64,
    first: u64,
    recorder: Option<&Recorder>,
) -> PhaseStats {
    let Phase {
        in_flight,
        think,
        warm,
        windows,
    } = phase;
    let engine = &serving.engine;
    let budget = resolve_budget(&engine.config());
    let n = serving.requests.len() as u64;
    let mut stats = PhaseStats {
        windows: vec![Vec::new(); windows],
        ..PhaseStats::default()
    };
    let mut next = first;
    let mut ring = VecDeque::with_capacity(in_flight);
    let mut submit = |ring: &mut VecDeque<_>, stats: &mut PhaseStats| {
        let index = next;
        next += 1;
        let req = serving.requests[(index % n) as usize].clone();
        let traced = recorder.filter(|_| index.is_multiple_of(REQUEST_SPAN_EVERY));
        let _span = traced.map(|r| r.request_span("submit", index));
        let sent = Instant::now();
        let ticket = engine.submit(req);
        stats.submit_ns += sent.elapsed().as_nanos() as u64;
        stats.submits += 1;
        ring.push_back((ticket, sent, index));
    };

    let measure_from = Instant::now() + warm;
    let measure_to = measure_from + WINDOW * windows as u32;
    for _ in 0..in_flight {
        submit(&mut ring, &mut stats);
    }
    while let Some((ticket, sent, index)) = ring.pop_front() {
        let response = {
            let traced = recorder.filter(|_| index.is_multiple_of(REQUEST_SPAN_EVERY));
            let _span = traced.map(|r| r.request_span("wait", index));
            ticket.wait(budget)
        };
        let done = Instant::now();
        if done < measure_to {
            if !think.is_zero() {
                std::thread::sleep(think);
            }
            submit(&mut ring, &mut stats);
        }
        if done < measure_from || done >= measure_to {
            continue;
        }
        let window = ((done - measure_from).as_nanos() / WINDOW.as_nanos()) as usize;
        stats.attempted += 1;
        match response {
            Some(Response::Ok {
                value,
                rung,
                queue_us,
                total_us,
            }) => {
                let expected = &serving.expected[(index % n) as usize];
                if !engine.kernel().matches(&value, expected) {
                    stats.incorrect += 1;
                    continue;
                }
                if rung != Rung::Ninja {
                    stats.degraded += 1;
                }
                stats.queue_us.push(queue_us as f64);
                stats.service_us_sum += total_us.saturating_sub(queue_us) as f64;
                let latency_us = (done - sent).as_nanos() as f64 / 1e3;
                if latency_us <= limit_us as f64 {
                    stats.good += 1;
                    stats.windows[window].push(latency_us);
                } else {
                    stats.late += 1;
                }
            }
            Some(Response::Rejected) => stats.rejected += 1,
            Some(Response::Expired) => stats.expired += 1,
            None => stats.unresolved += 1,
        }
    }
    stats
}

/// What the open-loop phase saw.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Median latency (us) from each request's due instant.
    pub p50_us: f64,
    /// 99th percentile of the same.
    pub p99_us: f64,
    /// 99th percentile of how late the generator sent (us).
    pub lag_p99_us: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests not resolved `Ok` and correct.
    pub failed: u64,
}

/// Open loop at a fixed `rps` for `length`: requests go out on schedule
/// whatever the engine is doing, and each is timed from the instant it
/// was due, so a stall counts against the requests queued behind it.
pub fn open_loop<K: BatchKernel>(
    serving: &Serving<K>,
    rps: f64,
    length: Duration,
    first: u64,
) -> OpenStats {
    let engine = &serving.engine;
    let budget = resolve_budget(&engine.config());
    let n = serving.requests.len() as u64;
    let count = (rps * length.as_secs_f64()) as u64;
    let interval = Duration::from_secs_f64(1.0 / rps);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(count as usize);
    let mut lag_us = Vec::with_capacity(count as usize);
    for i in 0..count {
        let due = start + interval.mul_f64(i as f64);
        // Sleep, not spin: the generator shares the engine's core, and a
        // spinning generator would hold it until its timeslice ran out.
        // A sleep overshoots the interval at these rates, so the requests
        // that fell due meanwhile go out together, each timed from its own
        // due instant.
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        let index = first + i;
        let req = serving.requests[(index % n) as usize].clone();
        lag_us.push((Instant::now() - due).as_nanos() as f64 / 1e3);
        tickets.push((engine.submit(req), index));
    }
    let mut stats = OpenStats {
        attempted: count,
        ..OpenStats::default()
    };
    let mut latency_us = Vec::with_capacity(count as usize);
    for ((ticket, index), lag) in tickets.iter().zip(&lag_us) {
        match ticket.wait(budget) {
            Some(Response::Ok {
                value, total_us, ..
            }) if engine
                .kernel()
                .matches(&value, &serving.expected[(index % n) as usize]) =>
            {
                latency_us.push(lag + total_us as f64);
            }
            _ => stats.failed += 1,
        }
    }
    latency_us.sort_by(f64::total_cmp);
    lag_us.sort_by(f64::total_cmp);
    stats.p50_us = percentile(&latency_us, 0.50);
    stats.p99_us = percentile(&latency_us, 0.99);
    stats.lag_p99_us = percentile(&lag_us, 0.99);
    stats
}
