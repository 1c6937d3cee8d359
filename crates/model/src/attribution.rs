//! Roofline attribution of measured cells.
//!
//! The paper's methodology is diagnostic: a measured time means little
//! until it is placed on the machine's roofline — how many of the
//! available GFLOP/s did the variant achieve, how much of the achievable
//! bandwidth, and which of the two actually limits it. This module joins
//! one measurement (seconds) with a kernel's work counts (flops, bytes)
//! and a [`Machine`] description to produce that placement, plus
//! (optionally) the thread-pool utilization observed while the cell was
//! measured.
//!
//! Formulas (documented in DESIGN.md "Observability"):
//!
//! * `achieved_gflops = flops / seconds / 1e9`
//! * `achieved_gbs    = bytes / seconds / 1e9`
//! * `roofline_pct    = 100 * max(achieved_gflops / peak_gflops,
//!   achieved_gbs / bandwidth_gbs)` — distance to the nearest roof
//! * `bound`: arithmetic intensity `flops/bytes` vs. the machine balance
//!   point `peak_gflops / bandwidth_gbs` picks `compute` or `bandwidth`;
//!   a cell below [`UTILIZATION_FLOOR_PCT`] of its roof is limited by
//!   neither roof and is classified `poorly-utilized` instead.

use crate::Machine;

/// `bound` value for cells limited by arithmetic throughput.
pub const BOUND_COMPUTE: &str = "compute";
/// `bound` value for cells limited by memory bandwidth.
pub const BOUND_BANDWIDTH: &str = "bandwidth";
/// `bound` value for cells far from both roofs (scalar code, scheduling
/// loss, stalls): the roofline does not explain their time.
pub const BOUND_POORLY_UTILIZED: &str = "poorly-utilized";

/// Below this percent-of-roofline a cell is classified
/// [`BOUND_POORLY_UTILIZED`] regardless of its arithmetic intensity.
pub const UTILIZATION_FLOOR_PCT: f64 = 10.0;

/// Where one measured cell sits on the machine's roofline, plus the pool
/// utilization observed while it was measured (zeros when pool metrics
/// were not collected), plus — when hardware counters were available —
/// the *measured* bound classification and whether it agrees with the
/// modeled one.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Attribution {
    /// Useful arithmetic throughput achieved, GFLOP/s.
    pub achieved_gflops: f64,
    /// Streaming throughput achieved, GB/s.
    pub achieved_gbs: f64,
    /// Percent of the nearest roof achieved (100 = at the roofline).
    pub roofline_pct: f64,
    /// `compute` / `bandwidth` / `poorly-utilized`.
    pub bound: String,
    /// Pool load-imbalance ratio during the measurement (max lane busy /
    /// mean active lane busy; 1.0 = balanced, 0.0 = not collected).
    pub pool_imbalance: f64,
    /// Percent of pool thread-time idle during the measurement
    /// (0.0 also when pool metrics were not collected).
    pub pool_idle_pct: f64,
    /// Fraction of executed pool jobs that arrived by work stealing
    /// during the measurement (0.0 when not collected, or when the region
    /// scheduled purely through `parallel_for` chunk claiming).
    pub pool_steal_ratio: f64,
    /// Measured instructions-per-cycle over the timed reps (`None` when
    /// hardware counters were unavailable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured_ipc: Option<f64>,
    /// Measured LLC miss rate over the timed reps, in `[0, 1]`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured_llc_miss_rate: Option<f64>,
    /// DRAM bandwidth estimated from LLC miss traffic (misses × 64 B ÷
    /// enabled time), GB/s. A lower bound on true traffic.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured_dram_gbs: Option<f64>,
    /// Bound classification derived from *measured* counters (same
    /// vocabulary as [`Attribution::bound`]): which roof the hardware
    /// says the cell ran into.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured_bound: Option<String>,
    /// Whether the measured and modeled bound classifications agree —
    /// the cross-check that catches a mis-calibrated roofline. `None`
    /// until counters were attached.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub agreement: Option<bool>,
}

impl Attribution {
    /// Places `seconds` of measured time for `flops`/`bytes` of work on
    /// `machine`'s roofline. Pool fields start at zero; fill them with
    /// [`Attribution::with_pool`].
    pub fn new(flops: f64, bytes: f64, seconds: f64, machine: &Machine) -> Self {
        if !(seconds.is_finite() && seconds > 0.0) {
            return Self {
                achieved_gflops: 0.0,
                achieved_gbs: 0.0,
                roofline_pct: 0.0,
                bound: BOUND_POORLY_UTILIZED.to_owned(),
                pool_imbalance: 0.0,
                pool_idle_pct: 0.0,
                pool_steal_ratio: 0.0,
                measured_ipc: None,
                measured_llc_miss_rate: None,
                measured_dram_gbs: None,
                measured_bound: None,
                agreement: None,
            };
        }
        let achieved_gflops = flops / seconds / 1e9;
        let achieved_gbs = bytes / seconds / 1e9;
        let compute_util = safe_div(achieved_gflops, machine.peak_gflops());
        let bw_util = safe_div(achieved_gbs, machine.bandwidth_gbs);
        let roofline_pct = 100.0 * compute_util.max(bw_util);
        let bound = if roofline_pct < UTILIZATION_FLOOR_PCT {
            BOUND_POORLY_UTILIZED
        } else {
            // Which roof the kernel's intensity runs into: intensity above
            // the machine's balance point means the compute roof is lower.
            let intensity = if bytes > 0.0 {
                flops / bytes
            } else {
                f64::INFINITY
            };
            let balance = safe_div(machine.peak_gflops(), machine.bandwidth_gbs);
            if intensity >= balance {
                BOUND_COMPUTE
            } else {
                BOUND_BANDWIDTH
            }
        };
        Self {
            achieved_gflops,
            achieved_gbs,
            roofline_pct,
            bound: bound.to_owned(),
            pool_imbalance: 0.0,
            pool_idle_pct: 0.0,
            pool_steal_ratio: 0.0,
            measured_ipc: None,
            measured_llc_miss_rate: None,
            measured_dram_gbs: None,
            measured_bound: None,
            agreement: None,
        }
    }

    /// Attaches the pool utilization observed during the measurement.
    /// `steal_ratio` is the stolen share of executed jobs
    /// ([`PoolMetrics::steal_ratio`] in `ninja-probe`); pass `0.0` when the
    /// region scheduled without deque traffic.
    #[must_use]
    pub fn with_pool(mut self, imbalance_ratio: f64, idle_fraction: f64, steal_ratio: f64) -> Self {
        self.pool_imbalance = imbalance_ratio;
        self.pool_idle_pct = 100.0 * idle_fraction.clamp(0.0, 1.0);
        self.pool_steal_ratio = steal_ratio.clamp(0.0, 1.0);
        self
    }

    /// Whether pool utilization was collected for this cell.
    pub fn has_pool_data(&self) -> bool {
        self.pool_imbalance > 0.0
    }

    /// Attaches hardware-counter-derived metrics and classifies the
    /// *measured* bound against `machine`'s roofs.
    ///
    /// The measured classification mirrors the modeled one but replaces
    /// the analytical byte count with DRAM traffic estimated from LLC
    /// misses: whichever roof utilization is higher —
    /// `measured_dram_gbs / bandwidth_gbs` or
    /// `achieved_gflops / peak_gflops` — names the binding roof, and a
    /// cell under [`UTILIZATION_FLOOR_PCT`] on both is
    /// [`BOUND_POORLY_UTILIZED`]. `agreement` is set iff the measured
    /// bound could be computed (requires `dram_gbs`); IPC and miss rate
    /// attach independently so partially-admitted counter groups still
    /// report what they saw.
    #[must_use]
    pub fn with_counters(
        mut self,
        machine: &Machine,
        ipc: Option<f64>,
        llc_miss_rate: Option<f64>,
        dram_gbs: Option<f64>,
    ) -> Self {
        self.measured_ipc = ipc.filter(|v| v.is_finite());
        self.measured_llc_miss_rate = llc_miss_rate
            .filter(|v| v.is_finite())
            .map(|v| v.clamp(0.0, 1.0));
        self.measured_dram_gbs = dram_gbs.filter(|v| v.is_finite() && *v >= 0.0);
        if let Some(gbs) = self.measured_dram_gbs {
            let measured_bw_util = safe_div(gbs, machine.bandwidth_gbs);
            let compute_util = safe_div(self.achieved_gflops, machine.peak_gflops());
            let measured = if 100.0 * measured_bw_util.max(compute_util) < UTILIZATION_FLOOR_PCT {
                BOUND_POORLY_UTILIZED
            } else if measured_bw_util >= compute_util {
                BOUND_BANDWIDTH
            } else {
                BOUND_COMPUTE
            };
            self.agreement = Some(measured == self.bound);
            self.measured_bound = Some(measured.to_owned());
        }
        self
    }

    /// Whether any hardware-counter metric was attached to this cell.
    pub fn has_counter_data(&self) -> bool {
        self.measured_ipc.is_some()
            || self.measured_llc_miss_rate.is_some()
            || self.measured_dram_gbs.is_some()
    }

    /// One-line human rendering, e.g.
    /// `"12.3 GFLOP/s, 4.5 GB/s, 31% of roofline (bandwidth-bound)"`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:.1} GFLOP/s, {:.1} GB/s, {:.0}% of roofline ({})",
            self.achieved_gflops,
            self.achieved_gbs,
            self.roofline_pct,
            match self.bound.as_str() {
                BOUND_COMPUTE => "compute-bound",
                BOUND_BANDWIDTH => "bandwidth-bound",
                _ => BOUND_POORLY_UTILIZED,
            }
        );
        if self.has_pool_data() {
            s.push_str(&format!(
                "; pool imbalance {:.2}, idle {:.0}%",
                self.pool_imbalance, self.pool_idle_pct
            ));
            if self.pool_steal_ratio > 0.0 {
                s.push_str(&format!(", steal {:.0}%", 100.0 * self.pool_steal_ratio));
            }
        }
        if self.has_counter_data() {
            s.push_str("; measured");
            if let Some(ipc) = self.measured_ipc {
                s.push_str(&format!(" ipc {ipc:.2}"));
            }
            if let Some(miss) = self.measured_llc_miss_rate {
                s.push_str(&format!(" llc-miss {:.0}%", 100.0 * miss));
            }
            if let Some(gbs) = self.measured_dram_gbs {
                s.push_str(&format!(" dram {gbs:.1} GB/s"));
            }
            match (&self.measured_bound, self.agreement) {
                (Some(bound), Some(true)) => {
                    s.push_str(&format!(" -> {bound} (model agrees)"));
                }
                (Some(bound), _) => {
                    s.push_str(&format!(" -> {bound} (model says {})", self.bound));
                }
                (None, _) => {}
            }
        }
        s
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn compute_bound_kernel_near_its_roof() {
        let m = machines::westmere(); // peak 158.4 GFLOP/s, 30 GB/s
                                      // High intensity (20 flops/byte), achieving half the compute roof.
        let flops = 1e9 * 79.2;
        let bytes = flops / 20.0;
        let a = Attribution::new(flops, bytes, 1.0, &m);
        assert!((a.achieved_gflops - 79.2).abs() < 1e-9);
        assert!((a.roofline_pct - 50.0).abs() < 1e-9);
        assert_eq!(a.bound, BOUND_COMPUTE);
    }

    #[test]
    fn bandwidth_bound_kernel_is_classified_by_intensity() {
        let m = machines::westmere();
        // Streaming kernel: 0.25 flops/byte, 24 GB/s of the 30 GB/s roof.
        let bytes = 24e9;
        let flops = bytes * 0.25;
        let a = Attribution::new(flops, bytes, 1.0, &m);
        assert!((a.achieved_gbs - 24.0).abs() < 1e-9);
        assert!((a.roofline_pct - 80.0).abs() < 1e-9);
        assert_eq!(a.bound, BOUND_BANDWIDTH);
    }

    #[test]
    fn far_from_both_roofs_is_poorly_utilized() {
        let m = machines::westmere();
        // Scalar-ish: 1 GFLOP/s and 1 GB/s on a 158/30 machine.
        let a = Attribution::new(1e9, 1e9, 1.0, &m);
        assert!(a.roofline_pct < UTILIZATION_FLOOR_PCT);
        assert_eq!(a.bound, BOUND_POORLY_UTILIZED);
    }

    #[test]
    fn degenerate_time_yields_zeroed_attribution() {
        let m = machines::westmere();
        for s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let a = Attribution::new(1e9, 1e9, s, &m);
            assert_eq!(a.achieved_gflops, 0.0);
            assert_eq!(a.bound, BOUND_POORLY_UTILIZED);
        }
    }

    #[test]
    fn zero_byte_work_counts_as_compute() {
        let m = machines::westmere();
        let a = Attribution::new(1e9 * 80.0, 0.0, 1.0, &m);
        assert_eq!(a.bound, BOUND_COMPUTE);
        assert_eq!(a.achieved_gbs, 0.0);
    }

    #[test]
    fn pool_fields_attach_and_render() {
        let m = machines::westmere();
        let a = Attribution::new(24e9 * 0.25, 24e9, 1.0, &m).with_pool(2.4, 0.41, 0.35);
        assert!(a.has_pool_data());
        assert!((a.pool_idle_pct - 41.0).abs() < 1e-9);
        assert!((a.pool_steal_ratio - 0.35).abs() < 1e-9);
        let s = a.summary();
        assert!(s.contains("bandwidth-bound"), "{s}");
        assert!(s.contains("imbalance 2.40"), "{s}");
        assert!(s.contains("steal 35%"), "{s}");
        // Zero steal ratio (pure chunk scheduling) stays out of the render.
        let chunked = Attribution::new(24e9 * 0.25, 24e9, 1.0, &m).with_pool(2.4, 0.41, 0.0);
        assert!(!chunked.summary().contains("steal"));
        let bare = Attribution::new(24e9 * 0.25, 24e9, 1.0, &m);
        assert!(!bare.has_pool_data());
        assert!(!bare.summary().contains("imbalance"));
    }

    #[test]
    fn serde_roundtrip() {
        let m = machines::westmere();
        let a = Attribution::new(5e9, 2e10, 0.5, &m).with_pool(1.2, 0.08, 0.22);
        let json = serde_json::to_string(&a).unwrap();
        let back: Attribution = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn measured_bandwidth_bound_agrees_with_model() {
        let m = machines::westmere(); // peak 158.4 GFLOP/s, 30 GB/s
        let bytes = 24e9;
        let flops = bytes * 0.25; // modeled: bandwidth-bound
        let a = Attribution::new(flops, bytes, 1.0, &m).with_counters(
            &m,
            Some(0.9),
            Some(0.35),
            Some(22.0), // hardware saw 22 of 30 GB/s: bandwidth roof
        );
        assert_eq!(a.measured_bound.as_deref(), Some(BOUND_BANDWIDTH));
        assert_eq!(a.agreement, Some(true));
        let s = a.summary();
        assert!(s.contains("ipc 0.90"), "{s}");
        assert!(s.contains("llc-miss 35%"), "{s}");
        assert!(s.contains("dram 22.0 GB/s"), "{s}");
        assert!(s.contains("model agrees"), "{s}");
    }

    #[test]
    fn measured_disagreement_is_flagged_not_hidden() {
        let m = machines::westmere();
        // Modeled compute-bound (high intensity, half the compute roof)...
        let flops = 1e9 * 79.2;
        let bytes = flops / 20.0;
        // ...but the hardware saw heavy DRAM traffic: 28 of 30 GB/s beats
        // the 50% compute utilization, so the measured bound is bandwidth.
        let a =
            Attribution::new(flops, bytes, 1.0, &m).with_counters(&m, Some(1.1), None, Some(28.0));
        assert_eq!(a.bound, BOUND_COMPUTE);
        assert_eq!(a.measured_bound.as_deref(), Some(BOUND_BANDWIDTH));
        assert_eq!(a.agreement, Some(false));
        let s = a.summary();
        assert!(s.contains("-> bandwidth (model says compute)"), "{s}");
    }

    #[test]
    fn measured_far_from_both_roofs_is_poorly_utilized() {
        let m = machines::westmere();
        let a =
            Attribution::new(1e9, 1e9, 1.0, &m).with_counters(&m, Some(0.3), Some(0.6), Some(1.0));
        assert_eq!(a.measured_bound.as_deref(), Some(BOUND_POORLY_UTILIZED));
        assert_eq!(a.agreement, Some(true));
    }

    #[test]
    fn partial_counters_attach_without_a_measured_bound() {
        // A counter group that admitted cycles+instructions but lost the
        // LLC events still reports IPC; no traffic estimate means no
        // measured bound and no agreement verdict.
        let m = machines::westmere();
        let a =
            Attribution::new(24e9 * 0.25, 24e9, 1.0, &m).with_counters(&m, Some(1.7), None, None);
        assert!(a.has_counter_data());
        assert_eq!(a.measured_bound, None);
        assert_eq!(a.agreement, None);
        let s = a.summary();
        assert!(s.contains("measured ipc 1.70"), "{s}");
        assert!(!s.contains("->"), "{s}");
        // Non-finite or negative derived values are dropped, not stored.
        let junk = Attribution::new(1e9, 1e9, 1.0, &m).with_counters(
            &m,
            Some(f64::NAN),
            Some(1.4),
            Some(-3.0),
        );
        assert_eq!(junk.measured_ipc, None);
        assert_eq!(junk.measured_llc_miss_rate, Some(1.0), "clamped to [0,1]");
        assert_eq!(junk.measured_dram_gbs, None);
    }

    #[test]
    fn counter_fields_roundtrip_and_stay_off_the_wire_when_absent() {
        let m = machines::westmere();
        let plain = Attribution::new(5e9, 2e10, 0.5, &m);
        let plain_json = serde_json::to_string(&plain).unwrap();
        assert!(!plain_json.contains("measured_"), "{plain_json}");
        assert!(!plain_json.contains("agreement"), "{plain_json}");

        let counted = plain
            .clone()
            .with_counters(&m, Some(1.4), Some(0.12), Some(25.0));
        let json = serde_json::to_string(&counted).unwrap();
        let back: Attribution = serde_json::from_str(&json).unwrap();
        assert_eq!(counted, back);
        assert!(json.contains("\"agreement\""), "{json}");
    }

    #[test]
    fn legacy_json_without_counter_fields_still_parses() {
        // Byte-for-byte the shape every record written before the counter
        // layer carried: all seven roofline/pool fields, nothing more.
        let legacy = r#"{"achieved_gflops":10.0,"achieved_gbs":20.0,
            "roofline_pct":66.7,"bound":"bandwidth","pool_imbalance":1.3,
            "pool_idle_pct":12.0,"pool_steal_ratio":0.05}"#;
        let a: Attribution = serde_json::from_str(legacy).unwrap();
        assert_eq!(a.bound, "bandwidth");
        assert_eq!(a.measured_ipc, None);
        assert_eq!(a.measured_bound, None);
        assert_eq!(a.agreement, None);
        assert!(!a.has_counter_data());
    }
}
