//! Descriptions of the machines the paper evaluates, plus hypothetical
//! future generations.

use serde::{Deserialize, Serialize};

/// A throughput-oriented machine description: the handful of parameters the
/// roofline model needs.
///
/// The numbers for the historical parts follow their public datasheets
/// (core counts, frequencies, SSE width, achievable stream bandwidth).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Marketing name.
    pub name: String,
    /// Introduction year (drives the gap-growth-over-time figure).
    pub year: u32,
    /// Physical cores.
    pub cores: u32,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// SIMD width in `f32` lanes (SSE = 4, AVX = 8, MIC = 16).
    pub simd_f32_lanes: u32,
    /// Peak arithmetic throughput per cycle per lane (2 = mul + add issue).
    pub flops_per_cycle_per_lane: f64,
    /// Achievable machine memory bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Achievable single-core streaming bandwidth, GB/s.
    pub core_bandwidth_gbs: f64,
    /// Whether the ISA has hardware gather (the paper's MIC does; the SSE
    /// CPUs do not).
    pub has_gather: bool,
}

impl Machine {
    /// Peak scalar GFLOP/s of one core.
    pub fn core_scalar_gflops(&self) -> f64 {
        self.freq_ghz * self.flops_per_cycle_per_lane
    }

    /// Peak SIMD GFLOP/s of the whole machine.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64
            * self.freq_ghz
            * self.flops_per_cycle_per_lane
            * self.simd_f32_lanes as f64
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}C x {:.1} GHz, {}-wide SIMD, {:.0} GB/s",
            self.name,
            self.year,
            self.cores,
            self.freq_ghz,
            self.simd_f32_lanes,
            self.bandwidth_gbs
        )
    }
}

/// The 2006 2-core Conroe-class part (Core 2 Duo E6600-class).
pub fn conroe() -> Machine {
    Machine {
        name: "Core 2 Duo (Conroe)".into(),
        year: 2006,
        cores: 2,
        freq_ghz: 2.4,
        simd_f32_lanes: 4,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: 8.5,
        core_bandwidth_gbs: 5.5,
        has_gather: false,
    }
}

/// The 2008 4-core Nehalem-class part (Core i7 960-class).
pub fn nehalem() -> Machine {
    Machine {
        name: "Core i7 (Nehalem)".into(),
        year: 2008,
        cores: 4,
        freq_ghz: 3.2,
        simd_f32_lanes: 4,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: 24.0,
        core_bandwidth_gbs: 10.0,
        has_gather: false,
    }
}

/// The paper's primary platform: the 6-core Core i7 X980 (Westmere).
pub fn westmere() -> Machine {
    Machine {
        name: "Core i7 X980 (Westmere)".into(),
        year: 2010,
        cores: 6,
        freq_ghz: 3.3,
        simd_f32_lanes: 4,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: 30.0,
        core_bandwidth_gbs: 11.0,
        has_gather: false,
    }
}

/// The paper's manycore platform: Intel MIC (Knights Ferry class) — many
/// simple cores, 16-wide SIMD, hardware gather support.
pub fn mic() -> Machine {
    Machine {
        name: "Intel MIC (Knights Ferry)".into(),
        year: 2011,
        cores: 32,
        freq_ghz: 1.2,
        simd_f32_lanes: 16,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: 115.0,
        core_bandwidth_gbs: 5.5,
        has_gather: true,
    }
}

/// A rough, uncalibrated description of the current host for use as an
/// attribution denominator when nobody paid for calibration.
///
/// [`crate::calibrate::measure_host`] measures the host (~1 s of
/// microbenchmarks), which is too expensive to run on every harness
/// construction. This placeholder assumes a ~3 GHz core with the suite's
/// 4-wide `f32` SIMD, FMA-class issue, and ~12 GB/s of per-core
/// bandwidth that scales sublinearly (`sqrt`) with threads — good enough
/// to rank cells against each other and classify their bound, not good
/// enough to quote absolute percent-of-peak. `year` 0 marks it as
/// synthetic. `reproduce --probe-metrics` upgrades to the calibrated
/// machine.
pub fn nominal_host(threads: usize) -> Machine {
    let threads = threads.max(1);
    let core_bandwidth_gbs = 12.0;
    Machine {
        name: format!("nominal host x{threads}"),
        year: 0,
        cores: threads as u32,
        freq_ghz: 3.0,
        simd_f32_lanes: 4,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: core_bandwidth_gbs * (threads as f64).sqrt(),
        core_bandwidth_gbs,
        has_gather: false,
    }
}

/// The three CPU generations of the gap-growth figure, oldest first.
pub fn cpu_generations() -> Vec<Machine> {
    vec![conroe(), nehalem(), westmere()]
}

/// A hypothetical machine `gens` generations after Westmere, following the
/// paper's "this gap will keep growing" extrapolation: ~1.4X cores per
/// generation, SIMD width doubling every other generation, bandwidth
/// growing ~1.25X per generation (slower than compute — the widening
/// compute/bandwidth scissors the paper warns about).
pub fn future(gens: u32) -> Machine {
    let base = westmere();
    let cores = ((base.cores as f64) * 1.4f64.powi(gens as i32)).round() as u32;
    let lanes = base.simd_f32_lanes * 2u32.pow(gens.div_ceil(2));
    Machine {
        name: format!("Hypothetical Westmere+{gens}"),
        year: base.year + 2 * gens,
        cores,
        freq_ghz: base.freq_ghz,
        simd_f32_lanes: lanes,
        flops_per_cycle_per_lane: base.flops_per_cycle_per_lane,
        bandwidth_gbs: base.bandwidth_gbs * 1.25f64.powi(gens as i32),
        core_bandwidth_gbs: base.core_bandwidth_gbs * 1.1f64.powi(gens as i32),
        has_gather: gens >= 2, // AVX2-style gather arrives eventually
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_ordered_and_growing() {
        let gens = cpu_generations();
        assert_eq!(gens.len(), 3);
        for w in gens.windows(2) {
            assert!(w[0].year < w[1].year);
            assert!(w[0].peak_gflops() < w[1].peak_gflops());
        }
    }

    #[test]
    fn westmere_matches_paper_platform() {
        let m = westmere();
        assert_eq!(m.cores, 6);
        assert_eq!(m.simd_f32_lanes, 4);
        // 6 cores * 3.3 GHz * 2 flops * 4 lanes = 158.4 GFLOP/s peak.
        assert!((m.peak_gflops() - 158.4).abs() < 0.1);
    }

    #[test]
    fn mic_is_wider_and_more_parallel() {
        let m = mic();
        assert!(m.peak_gflops() > westmere().peak_gflops() * 4.0);
        assert!(m.has_gather);
    }

    #[test]
    fn future_grows_compute_faster_than_bandwidth() {
        let f2 = future(2);
        let w = westmere();
        let compute_growth = f2.peak_gflops() / w.peak_gflops();
        let bw_growth = f2.bandwidth_gbs / w.bandwidth_gbs;
        assert!(
            compute_growth > bw_growth * 1.5,
            "{compute_growth} vs {bw_growth}"
        );
    }

    #[test]
    fn nominal_host_scales_with_threads() {
        let one = nominal_host(1);
        let four = nominal_host(4);
        assert_eq!(one.cores, 1);
        assert_eq!(four.cores, 4);
        assert!((four.peak_gflops() - 4.0 * one.peak_gflops()).abs() < 1e-9);
        assert!((four.bandwidth_gbs - 2.0 * one.bandwidth_gbs).abs() < 1e-9);
        // Degenerate input clamps instead of producing a zero-core machine.
        assert_eq!(nominal_host(0).cores, 1);
    }

    #[test]
    fn machine_serde_roundtrip() {
        let m = westmere();
        let json = serde_json::to_string(&m).unwrap();
        let back: Machine = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn display_mentions_cores_and_width() {
        let s = format!("{}", westmere());
        assert!(s.contains("6C") && s.contains("4-wide"));
    }
}
