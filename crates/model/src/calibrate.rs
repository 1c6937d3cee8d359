//! Host calibration: build a [`Machine`] description of *this* machine
//! from three microbenchmarks (scalar FLOP rate, SIMD FLOP rate, streaming
//! read bandwidth), so model projections can be anchored to measured
//! per-core capability instead of datasheet numbers.

use crate::Machine;
use ninja_simd::isa::{active, dispatch_on, Isa, IsaKind, IsaOp, SimdF32};
use std::hint::black_box;
use std::time::Instant;

/// Raw microbenchmark results backing a calibrated [`Machine`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HostCalibration {
    /// Sustained scalar multiply-add rate of one core, GFLOP/s.
    pub scalar_gflops: f64,
    /// Sustained SIMD multiply-add rate of one core at the dispatched
    /// vector width (fused where the backend has FMA), GFLOP/s.
    pub simd_gflops: f64,
    /// Sustained single-thread streaming read bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Backend the SIMD probe dispatched to.
    pub isa: IsaKind,
}

impl HostCalibration {
    /// Effective SIMD width: how much wider the vector pipeline actually is.
    pub fn effective_lanes(&self) -> f64 {
        self.simd_gflops / self.scalar_gflops
    }
}

/// Scalar multiply-add throughput: eight accumulator chains rotated by one
/// position per iteration. The rotation keeps the chains independent
/// (throughput-bound, not latency-bound) while the cross-chain data flow
/// stops the SLP vectorizer from turning the "scalar" measurement into a
/// SIMD one.
fn measure_scalar_gflops() -> f64 {
    const ITERS: u64 = 4_000_000;
    let (mut c0, mut c1, mut c2, mut c3) = (1.0f32, 1.1, 1.2, 1.3);
    let (mut c4, mut c5, mut c6, mut c7) = (1.4f32, 1.5, 1.6, 1.7);
    let a = black_box(1.000_000_1f32);
    let b = black_box(1e-9f32);
    let start = Instant::now();
    for _ in 0..ITERS {
        let t = c0;
        c0 = c1 * a + b;
        c1 = c2 * a + b;
        c2 = c3 * a + b;
        c3 = c4 * a + b;
        c4 = c5 * a + b;
        c5 = c6 * a + b;
        c6 = c7 * a + b;
        c7 = t * a + b;
    }
    let secs = start.elapsed().as_secs_f64();
    black_box((c0, c1, c2, c3, c4, c5, c6, c7));
    // 8 chains x (1 mul + 1 add) per iteration.
    (ITERS as f64 * 8.0 * 2.0) / secs / 1e9
}

/// SIMD multiply-add throughput with eight independent vector chains
/// (enough to cover a 4-cycle FMA latency on two ports), on the ISA
/// backend the kernels' ninja rungs dispatch to.
struct SimdFlops;

impl IsaOp for SimdFlops {
    /// GFLOP/s.
    type Output = f64;
    // `inline(always)` like every `IsaOp::run`: out of the dispatcher's
    // feature frame, each intrinsic would be an out-of-line call.
    #[inline(always)]
    fn run<I: Isa>(self) -> f64 {
        const ITERS: u64 = 4_000_000;
        let mut acc = [1.0f32, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7].map(I::F32::splat);
        let a = I::F32::splat(black_box(1.000_000_1f32));
        let b = I::F32::splat(black_box(1e-9f32));
        let start = Instant::now();
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = v.mul_add(a, b);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc.map(|v| v.reduce_sum()));
        // 8 chains x LANES x (1 mul + 1 add).
        let lanes = <I::F32 as SimdF32>::LANES as f64;
        (ITERS as f64 * acc.len() as f64 * lanes * 2.0) / secs / 1e9
    }
}

/// Streaming read bandwidth over a buffer far larger than the LLC.
fn measure_bandwidth_gbs() -> f64 {
    const BYTES: usize = 256 << 20;
    let buf: Vec<u64> = vec![3; BYTES / 8];
    // One warm pass, one timed pass.
    let mut sink = 0u64;
    for &x in &buf {
        sink = sink.wrapping_add(x);
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for chunk in buf.chunks_exact(8) {
        // Eight independent adds per iteration keep the loop load-bound.
        sum = sum
            .wrapping_add(chunk[0])
            .wrapping_add(chunk[1])
            .wrapping_add(chunk[2])
            .wrapping_add(chunk[3])
            .wrapping_add(chunk[4])
            .wrapping_add(chunk[5])
            .wrapping_add(chunk[6])
            .wrapping_add(chunk[7]);
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(sink.wrapping_add(sum));
    BYTES as f64 / secs / 1e9
}

/// Runs the three microbenchmarks (≈1 s total).
pub fn measure_host() -> HostCalibration {
    let isa = active();
    HostCalibration {
        scalar_gflops: measure_scalar_gflops(),
        simd_gflops: dispatch_on(isa, SimdFlops),
        bandwidth_gbs: measure_bandwidth_gbs(),
        isa,
    }
}

/// Builds a [`Machine`] description of this host from its calibration,
/// assuming `threads` participating cores each as capable as the measured
/// one.
///
/// The frequency field is derived from the measured scalar rate (the model
/// only ever uses their product), the SIMD width from the measured
/// vector/scalar ratio, machine bandwidth from the single-core number
/// with the mild per-core scaling typical of client parts, and hardware
/// gather from the probed backend: only AVX2 has a gather instruction
/// (`vgatherdps`); SSE2 and Scalar assemble lanes one by one.
pub fn machine_from(cal: HostCalibration, threads: usize) -> Machine {
    let lanes = cal.effective_lanes().round().clamp(1.0, 16.0) as u32;
    Machine {
        name: format!("calibrated host x{threads}"),
        year: 0,
        cores: threads.max(1) as u32,
        freq_ghz: cal.scalar_gflops / 2.0,
        simd_f32_lanes: lanes,
        flops_per_cycle_per_lane: 2.0,
        bandwidth_gbs: cal.bandwidth_gbs * (threads as f64).sqrt().max(1.0),
        core_bandwidth_gbs: cal.bandwidth_gbs,
        has_gather: cal.isa == IsaKind::Avx2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_kernels::{registry, Variant};
    use std::sync::OnceLock;

    /// One real (≈1 s) calibration shared by the tests that need it.
    fn host() -> HostCalibration {
        static HOST: OnceLock<HostCalibration> = OnceLock::new();
        *HOST.get_or_init(measure_host)
    }

    #[test]
    fn machine_from_is_sane() {
        let cal = HostCalibration {
            scalar_gflops: 4.0,
            simd_gflops: 14.0,
            bandwidth_gbs: 10.0,
            isa: IsaKind::Sse2,
        };
        let m = machine_from(cal, 4);
        assert_eq!(m.cores, 4);
        assert_eq!(m.simd_f32_lanes, 4); // 14/4 = 3.5 -> 4
        assert!((m.freq_ghz - 2.0).abs() < 1e-9);
        assert_eq!(m.core_bandwidth_gbs, 10.0);
        assert!(m.bandwidth_gbs >= m.core_bandwidth_gbs);
    }

    #[test]
    fn effective_lanes_ratio() {
        let cal = HostCalibration {
            scalar_gflops: 5.0,
            simd_gflops: 20.0,
            bandwidth_gbs: 8.0,
            isa: IsaKind::Sse2,
        };
        assert!((cal.effective_lanes() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_machine_works_with_the_model() {
        // Feed the real microbenchmarks through the prediction path end
        // to end.
        let cal = host();
        // A vector pipeline of 4+ lanes must not lose to one scalar lane,
        // as it does when the probe compiles outside the feature frame.
        // Unoptimised builds time call overhead, not the pipeline.
        if !cfg!(debug_assertions) && ninja_simd::isa::active().width_bits() >= 128 {
            assert!(cal.simd_gflops >= cal.scalar_gflops, "{cal:?}");
        }
        let m = machine_from(cal, 2);
        assert!(m.peak_gflops() > 0.1, "{m:?}");
        assert!(m.core_bandwidth_gbs > 0.05, "{m:?}");
        for spec in registry().iter().take(2) {
            let t = crate::time_per_elem(&spec.character, Variant::Ninja, &m);
            assert!(t.is_finite() && t > 0.0, "{}", spec.name);
            assert!(crate::predicted_gap(&spec.character, &m) >= 1.0);
        }
    }

    #[test]
    fn calibrated_gather_follows_the_dispatched_backend() {
        // `NINJA_ISA=sse2` (or scalar) must model software gather; the
        // AVX2 backend's `gather` is `vgatherdps`.
        let m = machine_from(host(), 1);
        assert_eq!(m.has_gather, active() == IsaKind::Avx2, "{:?}", host());
    }
}
