//! Snapshot vocabulary for thread-pool utilization metrics.
//!
//! `ninja-parallel` maintains relaxed-atomic per-worker counters and
//! renders them into these plain structs on demand. Snapshots are
//! cumulative since pool creation; callers that want the cost of one
//! region (the harness measures one variant at a time) take a snapshot
//! before and after and call [`PoolMetrics::delta`].

/// Cumulative counters for one pool participant. Lane 0 is the thread
/// that calls into the pool (the harness thread); lanes `1..=N` are the
/// pool's worker threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Queue entries this lane executed: `parallel_for` helper jobs and
    /// `join` forks (stale fork entries whose caller claimed the work
    /// back included).
    pub tasks: u64,
    /// `parallel_for` chunks this participant claimed and ran.
    pub chunks: u64,
    /// Nanoseconds this participant spent inside pool work
    /// (`parallel_for` chunk loops, stolen forks).
    pub busy_ns: u64,
    /// `join` forks this lane ran for another lane's caller — the queue
    /// entry won the fork before its caller claimed it back.
    pub steals: u64,
    /// Nanoseconds this lane spent parked on the pool's idle condvar.
    pub parked_ns: u64,
}

/// A point-in-time aggregation of the pool's instrumentation counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolMetrics {
    /// Participant count: caller lane + worker threads.
    pub threads: usize,
    /// Monotonic nanoseconds since the pool's counters were created. In a
    /// [`delta`](Self::delta) this becomes the window's wall-clock length.
    pub at_ns: u64,
    /// `parallel_for` / `parallel_reduce` regions entered.
    pub regions: u64,
    /// `join` calls executed.
    pub joins: u64,
    /// `join` forks run by a lane other than their caller (sum of the
    /// per-lane [`WorkerStats::steals`]; claim-backs are not steals).
    pub steals: u64,
    /// Per-participant counters, indexed by lane.
    pub workers: Vec<WorkerStats>,
}

impl PoolMetrics {
    /// Counter-wise `self - earlier`, for isolating one measured window
    /// out of cumulative snapshots.
    ///
    /// **Counter-window semantics.** Every field is a *monotonic*
    /// counter over one pool's lifetime: within a single pool, a later
    /// snapshot is field-wise ≥ an earlier one, so the subtraction is
    /// exact for any correctly-ordered bracket. The counters only "reset"
    /// by belonging to a *different* pool (a rebuilt `ThreadPool` starts
    /// from zero); for that case, and for swapped operands, each field
    /// saturates to zero (`saturating_sub`, never a wrapping subtraction
    /// that would smuggle a near-`u64::MAX` garbage delta downstream).
    /// A window delta therefore can never report a negative (wrapped)
    /// value: the worst failure mode of a mismatched bracket is an
    /// empty window.
    pub fn delta(&self, earlier: &PoolMetrics) -> PoolMetrics {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let e = earlier.workers.get(i).cloned().unwrap_or_default();
                WorkerStats {
                    tasks: w.tasks.saturating_sub(e.tasks),
                    chunks: w.chunks.saturating_sub(e.chunks),
                    busy_ns: w.busy_ns.saturating_sub(e.busy_ns),
                    steals: w.steals.saturating_sub(e.steals),
                    parked_ns: w.parked_ns.saturating_sub(e.parked_ns),
                }
            })
            .collect();
        PoolMetrics {
            threads: self.threads,
            at_ns: self.at_ns.saturating_sub(earlier.at_ns),
            regions: self.regions.saturating_sub(earlier.regions),
            joins: self.joins.saturating_sub(earlier.joins),
            steals: self.steals.saturating_sub(earlier.steals),
            workers,
        }
    }

    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    pub fn total_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.chunks).sum()
    }

    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Load-imbalance ratio: max participant busy time over the mean busy
    /// time of participants that did any work. `1.0` is perfectly
    /// balanced; large values mean one straggler held the region open.
    /// Returns `1.0` when fewer than two participants were active.
    pub fn imbalance_ratio(&self) -> f64 {
        let active: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.busy_ns)
            .filter(|&b| b > 0)
            .collect();
        if active.len() < 2 {
            return 1.0;
        }
        let max = *active.iter().max().expect("non-empty") as f64;
        let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Fraction of the window's aggregate thread-time spent *not* doing
    /// pool work: `1 - total_busy / (threads * wall)`. Meaningful on a
    /// [`delta`](Self::delta) whose `at_ns` is the window length; clamped
    /// to `[0, 1]`. Returns `0.0` for an empty window.
    pub fn idle_fraction(&self) -> f64 {
        let capacity = self.threads as f64 * self.at_ns as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (1.0 - self.total_busy_ns() as f64 / capacity).clamp(0.0, 1.0)
    }

    /// Of the queue entries lanes executed, the fraction that were stolen
    /// `join` forks. `0.0` when no entries ran — either the window was
    /// pure inline `parallel_for` chunking or the pool was idle.
    pub fn steal_ratio(&self) -> f64 {
        let tasks = self.total_tasks();
        if tasks == 0 {
            return 0.0;
        }
        self.workers.iter().map(|w| w.steals).sum::<u64>() as f64 / tasks as f64
    }

    /// Fraction of the window's aggregate thread-time spent parked on the
    /// idle condvar. Like [`idle_fraction`](Self::idle_fraction) this is
    /// meaningful on a [`delta`](Self::delta); clamped to `[0, 1]`.
    /// Parked time is a subset of idle time — the difference is spent
    /// spinning, yielding, and polling the queue.
    pub fn parked_fraction(&self) -> f64 {
        let capacity = self.threads as f64 * self.at_ns as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let parked: u64 = self.workers.iter().map(|w| w.parked_ns).sum();
        (parked as f64 / capacity).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(busy: &[u64], wall: u64) -> PoolMetrics {
        PoolMetrics {
            threads: busy.len(),
            at_ns: wall,
            workers: busy
                .iter()
                .map(|&b| WorkerStats {
                    busy_ns: b,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn balanced_workers_have_unit_imbalance() {
        let m = metrics(&[100, 100, 100, 100], 100);
        assert!((m.imbalance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_dominates_imbalance() {
        // One worker 100x busier: max=10000, mean=(10000+300)/4=2575.
        let m = metrics(&[10_000, 100, 100, 100], 10_000);
        assert!(m.imbalance_ratio() > 3.0, "{}", m.imbalance_ratio());
    }

    #[test]
    fn inactive_workers_do_not_dilute_imbalance() {
        let m = metrics(&[500, 500, 0, 0], 500);
        assert!((m.imbalance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_counts_unused_capacity() {
        // 4 threads over 100ns = 400ns capacity, 100ns busy => 75% idle.
        let m = metrics(&[100, 0, 0, 0], 100);
        assert!((m.idle_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(metrics(&[], 0).idle_fraction(), 0.0);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let mut before = metrics(&[10, 20], 100);
        before.regions = 1;
        before.workers[0].steals = 2;
        before.workers[0].parked_ns = 40;
        let mut after = metrics(&[15, 45], 300);
        after.regions = 4;
        after.workers[0].steals = 7;
        after.workers[0].parked_ns = 100;
        let d = after.delta(&before);
        assert_eq!(d.at_ns, 200);
        assert_eq!(d.regions, 3);
        assert_eq!(d.workers[0].busy_ns, 5);
        assert_eq!(d.workers[1].busy_ns, 25);
        assert_eq!(d.workers[0].steals, 5);
        assert_eq!(d.workers[0].parked_ns, 60);
        // Swapped operands saturate instead of panicking.
        let swapped = before.delta(&after);
        assert_eq!(swapped.at_ns, 0);
    }

    #[test]
    fn delta_across_a_pool_reset_saturates_to_empty_not_wraps() {
        // A rebuilt pool restarts its monotonic counters from zero, so
        // "after" can be field-wise below "before". The window contract:
        // every such field saturates to an empty window — no wrapped
        // near-u64::MAX delta may ever reach the per-worker counter
        // attribution.
        let mut before = metrics(&[1_000, 2_000], 5_000);
        before.workers[0].tasks = 50;
        before.workers[0].steals = 9;
        before.steals = 9;
        let mut after = metrics(&[10, 0], 100); // fresh pool, tiny window
        after.workers[0].tasks = 1;
        let d = after.delta(&before);
        assert_eq!(d.workers[0].busy_ns, 0);
        assert_eq!(d.workers[0].tasks, 0);
        assert_eq!(d.workers[0].steals, 0);
        assert_eq!(d.steals, 0);
        assert_eq!(d.at_ns, 0);
        // The derived window statistics stay in range on the empty window.
        assert_eq!(d.steal_ratio(), 0.0);
        assert_eq!(d.idle_fraction(), 0.0);
    }

    #[test]
    fn delta_tolerates_worker_count_mismatch() {
        // Snapshots from pools with different lane counts (another
        // reset symptom): missing earlier lanes are treated as zero.
        let before = metrics(&[100], 50);
        let after = metrics(&[300, 40], 80);
        let d = after.delta(&before);
        assert_eq!(d.workers.len(), 2);
        assert_eq!(d.workers[0].busy_ns, 200);
        assert_eq!(d.workers[1].busy_ns, 40);
    }

    #[test]
    fn steal_ratio_is_stolen_share_of_executed_jobs() {
        let mut m = metrics(&[100, 100, 100], 100);
        assert_eq!(m.steal_ratio(), 0.0, "no jobs executed yet");
        m.workers[0].tasks = 6;
        m.workers[1].tasks = 2;
        m.workers[1].steals = 2;
        m.workers[2].tasks = 2;
        // 2 of 10 executed jobs were thefts.
        assert!((m.steal_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn parked_fraction_is_parked_share_of_capacity() {
        // 4 threads over 100ns = 400ns capacity; 100ns parked => 25%.
        let mut m = metrics(&[0, 0, 0, 0], 100);
        m.workers[1].parked_ns = 60;
        m.workers[2].parked_ns = 40;
        assert!((m.parked_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(metrics(&[], 0).parked_fraction(), 0.0);
    }
}
