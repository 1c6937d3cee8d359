//! ninja-probe: the observability layer for the Ninja-gap reproduction.
//!
//! Everything in this crate is std-only and safe to link from the lowest
//! layers of the workspace (`ninja-parallel` instruments its worker loop
//! with it). Two independent facilities live here, each behind its own
//! runtime flag so the disabled path costs one relaxed atomic load:
//!
//! * **Span tracing** ([`span`], [`instant`], [`take_events`]): a global
//!   event sink recording `B`/`E` begin/end pairs with microsecond
//!   timestamps and small per-thread lane ids, exportable as Chrome
//!   `trace_event` JSON ([`chrome_trace_json`]) that loads directly in
//!   Perfetto or `chrome://tracing`.
//! * **Pool metrics** ([`PoolMetrics`], [`WorkerStats`]): the snapshot
//!   vocabulary the thread pool aggregates its relaxed-atomic per-worker
//!   counters into. The types live here (not in `ninja-parallel`) so that
//!   `ninja-core` can attach them to measured cells without depending on
//!   pool internals.
//! * **Hardware counters** ([`counters`], re-exported from
//!   `ninja-counters`, behind [`counters_enabled`]): per-thread
//!   `perf_event_open` groups windowed around measured reps, degrading
//!   to `CounterStatus::Unavailable(reason)` wherever perf is not
//!   permitted.
//!
//! ## Overhead contract
//!
//! With both flags off (the default), instrumented code paths perform a
//! single `Relaxed` boolean load and branch — no allocation, no locking,
//! no time sampling. `crates/parallel/tests/metrics.rs` enforces this
//! with an overhead test comparing instrumented-but-disabled
//! `parallel_for` against its own baseline.

mod metrics;
mod trace;

/// Hardware performance-counter windows (`ninja-counters`), re-exported
/// so the rest of the stack reaches them as `ninja_probe::counters::*`
/// without a separate dependency edge.
pub use ninja_counters as counters;

pub use metrics::{PoolMetrics, WorkerStats};
pub use trace::{
    chrome_trace_json, clear_abandoned_threads, clear_events, counter, instant,
    mark_thread_abandoned, span, take_events, thread_id, validate_events, Phase, Span, TraceEvent,
};

use std::sync::atomic::{AtomicBool, Ordering};

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);
static COUNTERS: AtomicBool = AtomicBool::new(false);

/// Is the span tracer recording? Relaxed load; safe to call on hot paths.
#[inline]
pub fn tracing_enabled() -> bool {
    // ORDERING: advisory on/off flag; a stale read merely records or skips
    // one extra event, and callers toggle it only at measurement boundaries.
    TRACING.load(Ordering::Relaxed)
}

/// Switch the span tracer on or off at runtime.
pub fn set_tracing(on: bool) {
    // ORDERING: advisory flag, see `tracing_enabled`.
    TRACING.store(on, Ordering::Relaxed);
}

/// Are pool metrics counters active? Relaxed load; safe on hot paths.
#[inline]
pub fn metrics_enabled() -> bool {
    // ORDERING: advisory on/off flag; a stale read merely counts or skips
    // one extra sample, and callers toggle it only at measurement boundaries.
    METRICS.load(Ordering::Relaxed)
}

/// Switch pool metrics collection on or off at runtime.
pub fn set_metrics(on: bool) {
    // ORDERING: advisory flag, see `metrics_enabled`.
    METRICS.store(on, Ordering::Relaxed);
}

/// Are hardware-counter windows requested? Relaxed load; safe on hot
/// paths. The flag expresses *intent* — whether the host can actually
/// open counters is a per-thread [`counters::CounterStatus`].
#[inline]
pub fn counters_enabled() -> bool {
    // ORDERING: advisory on/off flag; a stale read merely opens or skips
    // one counter window, and callers toggle it only at startup.
    COUNTERS.load(Ordering::Relaxed)
}

/// Switch hardware-counter windows on or off at runtime.
pub fn set_counters(on: bool) {
    // ORDERING: advisory flag, see `counters_enabled`.
    COUNTERS.store(on, Ordering::Relaxed);
}

/// Unit tests in this binary share the process-global flags and sink;
/// the ones that touch them serialize on this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_default_off_and_toggle() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(true);
        set_metrics(true);
        set_counters(true);
        assert!(tracing_enabled());
        assert!(metrics_enabled());
        assert!(counters_enabled());
        set_tracing(false);
        set_metrics(false);
        set_counters(false);
        assert!(!counters_enabled());
    }
}
