//! BackProjection: parallel-beam CT image reconstruction.
//!
//! The paper's medical-imaging benchmark: accumulate, into every pixel of a
//! `P×P` image, the linearly interpolated sinogram sample each projection
//! angle maps it to. Per (pixel, angle): a rotation (`x·cosθ + y·sinθ`),
//! a `floor`, and a two-tap interpolation — an irregular (gathered) load
//! stream, which is why this kernel anchors the paper's hardware
//! gather/scatter discussion.
//!
//! Optimization story:
//! * **naive** — pixel-major loops recomputing the rotation per (pixel,
//!   angle) with bounds-checked sampling;
//! * **simd** — loop interchange to angle-major with incremental detector
//!   coordinates (`t = t0 + x·cosθ` along a row), each angle's row staged
//!   in two passes: a branch-free pass computing every pixel's tap index
//!   and weight, which the compiler vectorizes inside the ISA frame, then
//!   a plain interpolation loop over the staged taps;
//! * **algorithmic** — the staged rows plus row parallelism;
//! * **Ninja** — one vector of pixels per instruction with explicit
//!   gathers for the interpolation taps.

use crate::framework::{
    lane_ramp, Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo,
    Work,
};
use crate::scalar_math::{floor_f32, int_of_integral};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32, SimdI32};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A CT backprojection problem instance.
pub struct BackProjection {
    image_dim: usize,
    angles: usize,
    bins: usize,
    /// Sinogram, `angles` rows of `bins` detector samples.
    sino: Vec<f32>,
    cos_t: Vec<f32>,
    sin_t: Vec<f32>,
}

impl BackProjection {
    /// Image edge and angle count per preset.
    pub fn shape_for(size: ProblemSize) -> (usize, usize) {
        match size {
            ProblemSize::Test => (32, 24),
            ProblemSize::Quick => (256, 180),
            ProblemSize::Paper => (512, 360),
        }
    }

    /// Generates a deterministic random sinogram.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        let (dim, angles) = Self::shape_for(size);
        Self::with_shape(dim, angles, seed)
    }

    fn with_shape(dim: usize, angles: usize, seed: u64) -> Self {
        let bins = dim * 3 / 2;
        let mut rng = SmallRng::seed_from_u64(seed);
        let sino = (0..angles * bins)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let cos_t = (0..angles)
            .map(|a| (std::f32::consts::PI * a as f32 / angles as f32).cos())
            .collect();
        let sin_t = (0..angles)
            .map(|a| (std::f32::consts::PI * a as f32 / angles as f32).sin())
            .collect();
        Self {
            image_dim: dim,
            angles,
            bins,
            sino,
            cos_t,
            sin_t,
        }
    }

    /// Reconstructed image edge length.
    pub fn image_dim(&self) -> usize {
        self.image_dim
    }

    /// Number of projection angles.
    pub fn angles(&self) -> usize {
        self.angles
    }

    /// Clamped linear interpolation into one sinogram row.
    #[inline(always)]
    // ninja-lint: effort(naive)
    fn sample(&self, angle: usize, t: f32) -> f32 {
        let max = (self.bins - 2) as f32;
        let t = t.clamp(0.0, max);
        let it = t as usize;
        let ft = t - it as f32;
        let row = angle * self.bins;
        let a = self.sino[row + it];
        let b = self.sino[row + it + 1];
        a + (b - a) * ft
    }

    /// Detector coordinate for pixel center (x, y) at `angle`.
    #[inline(always)]
    // ninja-lint: effort(naive)
    fn detector_t(&self, angle: usize, x: usize, y: usize) -> f32 {
        let c = self.cos_t[angle];
        let s = self.sin_t[angle];
        let half = self.image_dim as f32 * 0.5;
        let px = x as f32 + 0.5 - half;
        let py = y as f32 + 0.5 - half;
        px * c + py * s + self.bins as f32 * 0.5
    }

    /// Naive tier: pixel-major, rotation recomputed per (pixel, angle).
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let d = self.image_dim;
        let mut img = vec![0.0f32; d * d];
        for y in 0..d {
            for x in 0..d {
                let mut acc = 0.0f32;
                for a in 0..self.angles {
                    acc += self.sample(a, self.detector_t(a, x, y));
                }
                img[y * d + x] = acc;
            }
        }
        img
    }

    /// Parallel tier: the naive pixel loop behind a row-parallel loop.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let d = self.image_dim;
        let mut img = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut img, d, |y, row| {
            for (x, o) in row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for a in 0..self.angles {
                    acc += self.sample(a, self.detector_t(a, x, y));
                }
                *o = acc;
            }
        });
        img
    }

    /// One image row accumulated angle-by-angle with incremental `t`, in
    /// two passes per angle.
    ///
    /// `t(x) = t(0) + x·cosθ` — the strength-reduced form. Computed as
    /// `t0 + x*c` (not a running sum) so results match the naive rotation
    /// to rounding. The staging pass is branch-free — clamp by
    /// `min`/`max`, [`floor_f32`], the integer from its bits — so it
    /// vectorizes; only the interpolation pass loads from data-dependent
    /// addresses. `inline(always)` so it compiles inside its callers'
    /// feature frames (see `isa::with_active_features`).
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn accumulate_row(&self, y: usize, row: &mut [f32]) {
        let d = self.image_dim;
        let half = d as f32 * 0.5;
        let max = (self.bins - 2) as f32;
        let mut idx = vec![0i32; d];
        let mut w = vec![0.0f32; d];
        for a in 0..self.angles {
            let c = self.cos_t[a];
            let s = self.sin_t[a];
            let t0 = (0.5 - half) * c + (y as f32 + 0.5 - half) * s + self.bins as f32 * 0.5;
            for (x, (i, wx)) in idx.iter_mut().zip(w.iter_mut()).enumerate() {
                let t = (t0 + (x as i32 as f32) * c).min(max).max(0.0);
                let it = floor_f32(t);
                *i = int_of_integral(it);
                *wx = t - it;
            }
            let sino = &self.sino[a * self.bins..(a + 1) * self.bins];
            for ((o, &i), &wx) in row.iter_mut().zip(&idx).zip(&w) {
                let i = (i as usize).min(sino.len() - 2);
                let (lo, hi) = (sino[i], sino[i + 1]);
                *o += lo + (hi - lo) * wx;
            }
        }
    }

    /// Compiler tier: angle-major with incremental detector coordinates,
    /// the coordinate math staged into a vectorizable pass ahead of the
    /// gathered interpolation.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256)
    pub fn run_simd(&self) -> Vec<f32> {
        let d = self.image_dim;
        let mut img = vec![0.0f32; d * d];
        isa::with_active_features(
            #[inline(always)]
            |_| {
                for (y, row) in img.chunks_mut(d).enumerate() {
                    self.accumulate_row(y, row);
                }
            },
        );
        img
    }

    /// Low-effort endpoint: angle-major strength reduction, the staged
    /// row, and row parallelism.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let d = self.image_dim;
        let mut img = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut img, d, |y, row| {
            isa::with_active_features(
                #[inline(always)]
                |_| self.accumulate_row(y, row),
            );
        });
        img
    }

    /// Ninja tier: one vector of pixels per step with explicit
    /// interpolation gathers, row-parallel.
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    /// The ninja rung on a chosen backend, dispatched per row inside the
    /// worker closure (`#[target_feature]` trampolines do not cross
    /// thread boundaries).
    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        let d = self.image_dim;
        let mut img = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut img, d, |y, row| {
            dispatch_on(
                kind,
                ProjectRow {
                    kernel: self,
                    y,
                    row,
                },
            );
        });
        img
    }
}

/// One image row of the ninja rung, accumulated angle by angle.
struct ProjectRow<'a> {
    kernel: &'a BackProjection,
    y: usize,
    row: &'a mut [f32],
}

impl IsaOp for ProjectRow<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (k, y, row) = (self.kernel, self.y, self.row);
        let d = k.image_dim;
        let half = d as f32 * 0.5;
        let vec_d = d / lanes * lanes;
        let max_t = I::F32::splat((k.bins - 2) as f32);
        let zero = I::F32::zero();
        let ramp = lane_ramp::<I>();
        for a in 0..k.angles {
            let c = k.cos_t[a];
            let s = k.sin_t[a];
            let t0 = (0.5 - half) * c + (y as f32 + 0.5 - half) * s + k.bins as f32 * 0.5;
            let row_base = I::I32::splat((a * k.bins) as i32);
            let step = I::F32::splat(c);
            for x in (0..vec_d).step_by(lanes) {
                let xs = I::F32::splat(x as f32) + ramp;
                let t = (I::F32::splat(t0) + xs * step).min(max_t).max(zero);
                let it = t.floor();
                let ft = t - it;
                let idx = row_base + it.to_i32_trunc();
                let lo = I::F32::gather(&k.sino, idx);
                let hi = I::F32::gather(&k.sino, idx + I::I32::splat(1));
                let sample = lo + (hi - lo) * ft;
                (I::F32::load(&row[x..]) + sample).store(&mut row[x..]);
            }
            for (x, o) in row.iter_mut().enumerate().skip(vec_d) {
                *o += k.sample(a, t0 + x as f32 * c);
            }
        }
    }
}

fn run(k: &BackProjection, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &BackProjection) -> Work {
    let d = k.image_dim as f64;
    let a = k.angles as f64;
    Work {
        flops: d * d * a * 10.0,
        bytes: d * d * a * 8.0,
        elems: (k.image_dim * k.image_dim) as u64,
    }
}

/// Suite entry for the BackProjection kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "backprojection",
        description: "parallel-beam CT backprojection (compute bound, gather heavy)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "pixel-major, rotation per (pixel, angle)",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 5,
                what_changed: "parallel_for over image rows",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 25,
                what_changed: "angle-major loops, staged index/weight pass in the ISA frame",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 24,
                what_changed: "staged rows + row parallelism",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 40,
                what_changed: "vector-width pixel SIMD with explicit interpolation gathers",
            },
        ],
        character: Characterization {
            flops_per_elem: 10.0 * 360.0,
            bytes_per_elem: 12.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.3,
            simd_friendly_frac: 0.9,
            parallel_frac: 1.0,
            gather_per_elem: 2.0 * 360.0,
            algorithmic_factor: 1.5, // strength reduction saves the rotation
            simd_efficiency: 0.85,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: BackProjection::generate(size, seed),
                name: "backprojection",
                tolerance: 2e-3,
                run,
                work,
                reference: None,
            }) as Box<dyn Instance>
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sinogram_gives_uniform_image() {
        let mut k = BackProjection::generate(ProblemSize::Test, 1);
        k.sino.iter_mut().for_each(|v| *v = 1.0);
        let img = k.run_naive();
        for &p in img.iter() {
            assert!((p - k.angles as f32).abs() < 1e-3, "pixel {p}");
        }
    }

    #[test]
    fn detector_t_is_centered() {
        let k = BackProjection::generate(ProblemSize::Test, 2);
        // The image-center pixel projects to the detector center for every
        // angle (up to the half-pixel offset).
        let mid = k.image_dim / 2;
        for a in 0..k.angles {
            let t = k.detector_t(a, mid, mid);
            assert!((t - k.bins as f32 * 0.5).abs() < 1.0, "angle {a}: t={t}");
        }
    }

    #[test]
    fn sample_interpolates_linearly() {
        let mut k = BackProjection::generate(ProblemSize::Test, 3);
        let row = 2;
        k.sino[row * k.bins + 5] = 1.0;
        k.sino[row * k.bins + 6] = 3.0;
        assert!((k.sample(row, 5.0) - 1.0).abs() < 1e-6);
        assert!((k.sample(row, 5.5) - 2.0).abs() < 1e-6);
        assert!((k.sample(row, 6.0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn sample_clamps_out_of_range() {
        let k = BackProjection::generate(ProblemSize::Test, 4);
        let lo = k.sample(0, -100.0);
        let hi = k.sample(0, 1e9);
        assert_eq!(lo, k.sample(0, 0.0));
        assert_eq!(hi, k.sample(0, (k.bins - 2) as f32));
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = BackProjection::generate(ProblemSize::Test, 5);
        let pool = ThreadPool::with_threads(2);
        let reference = k.run_naive();
        for (label, out) in [
            ("parallel", k.run_parallel(&pool)),
            ("simd", k.run_simd()),
            ("algorithmic", k.run_algorithmic(&pool)),
            ("ninja", k.run_ninja(&pool)),
        ] {
            for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
                let err = (a - b).abs() / b.abs().max(1.0);
                assert!(err < 2e-3, "{label}[{i}]: {a} vs {b}");
            }
        }
    }

    /// Image widths at every residue of the widest lane count: each row
    /// ends in a scalar remainder of every length under each backend.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            16..16 + ninja_simd::isa::MAX_ISA_F32_LANES,
            2e-3,
            |dim| BackProjection::with_shape(dim, 9, 12),
            BackProjection::run_naive,
            BackProjection::run_ninja_on,
        );
    }

    fn assert_staged_rungs_match_naive(k: &BackProjection, pool: &ThreadPool, what: &str) {
        let reference = k.run_naive();
        for (label, out) in [
            ("simd", k.run_simd()),
            ("algorithmic", k.run_algorithmic(pool)),
        ] {
            for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
                let err = (a - b).abs() / b.abs().max(1.0);
                assert!(err < 2e-3, "{what} {label}[{i}]: {a} vs {b}");
            }
        }
    }

    /// The staging pass vectorizes with a scalar remainder: widths at
    /// every residue of the widest lane count cover every remainder.
    #[test]
    fn staged_rungs_conform_at_every_residue() {
        let pool = ThreadPool::with_threads(2);
        for dim in 16..16 + ninja_simd::isa::MAX_ISA_F32_LANES {
            let k = BackProjection::with_shape(dim, 9, 13);
            assert_staged_rungs_match_naive(&k, &pool, &format!("dim {dim}"));
        }
    }

    /// A detector narrower than the image: corner pixels project below 0
    /// and past `bins - 2`, so `t` clamps at both ends.
    #[test]
    fn staged_rungs_conform_where_t_clamps_at_both_ends() {
        let pool = ThreadPool::with_threads(2);
        let mut k = BackProjection::with_shape(21, 7, 14);
        k.bins = 8;
        k.sino.truncate(k.angles * k.bins);
        let t = |x, y| k.detector_t(0, x, y);
        assert!(t(0, 0) < 0.0 && t(20, 20) > (k.bins - 2) as f32);
        assert_staged_rungs_match_naive(&k, &pool, "narrow detector");
    }

    #[test]
    fn adapter_validates_all_variants() {
        let spec = spec();
        let pool = ThreadPool::with_threads(1);
        let mut inst = (spec.make)(ProblemSize::Test, 6);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
        }
    }

    #[test]
    fn backprojection_is_linear_in_the_sinogram() {
        let base = BackProjection::generate(ProblemSize::Test, 9);
        let mut scaled = BackProjection::generate(ProblemSize::Test, 9);
        scaled.sino.iter_mut().for_each(|v| *v *= 2.0);
        let a = base.run_naive();
        let b = scaled.run_naive();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((2.0 * x - y).abs() < 1e-3 * y.abs().max(1.0));
        }
    }
}
