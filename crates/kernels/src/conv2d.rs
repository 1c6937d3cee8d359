//! 2D convolution: a 5×5 stencil over a large single-channel image.
//!
//! The paper's image-processing representative. The naive version tests
//! image bounds inside the innermost tap loop, which blocks vectorization;
//! the **algorithmic change** is the classic interior/boundary split (peel
//! the 2-pixel border, run branch-free code on the interior), after which
//! the compiler vectorizes across `x` once each block of outputs keeps its
//! sums in registers while all 25 taps run over it (output-stationary).
//! Ninja code issues explicit vector-width loads into several independent
//! FMA chains.
//!
//! Boundary semantics: zero padding outside the image.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Stencil radius (5×5 kernel).
pub const R: usize = 2;
/// Stencil diameter.
pub const K: usize = 2 * R + 1;

/// Output pixels per accumulator block of the compiler rungs.
const BLOCK: usize = 64;

/// Independent vector groups per step of the ninja rung.
const GROUPS: usize = 8;

/// A 5×5 convolution problem instance.
pub struct Conv2d {
    width: usize,
    height: usize,
    image: Vec<f32>,
    taps: [[f32; K]; K],
}

impl Conv2d {
    /// Image edge length for each size preset (square images).
    pub fn dim_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 64,
            ProblemSize::Quick => 1024,
            ProblemSize::Paper => 2048,
        }
    }

    /// Generates a deterministic random image and kernel.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_dim(Self::dim_for(size), seed)
    }

    fn with_dim(dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let image = (0..dim * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut taps = [[0.0f32; K]; K];
        for row in taps.iter_mut() {
            for t in row.iter_mut() {
                *t = rng.gen_range(-0.5..0.5);
            }
        }
        Self {
            width: dim,
            height: dim,
            image,
            taps,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn pixel_checked(&self, x: isize, y: isize) -> f32 {
        if x < 0 || y < 0 || x >= self.width as isize || y >= self.height as isize {
            0.0
        } else {
            self.image[y as usize * self.width + x as usize]
        }
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn convolve_checked(&self, x: usize, y: usize) -> f32 {
        let mut acc = 0.0f32;
        for ky in 0..K {
            for kx in 0..K {
                let sx = x as isize + kx as isize - R as isize;
                let sy = y as isize + ky as isize - R as isize;
                acc += self.taps[ky][kx] * self.pixel_checked(sx, sy);
            }
        }
        acc
    }

    /// Naive tier: bounds check inside the innermost tap loop, serial.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.width * self.height];
        for y in 0..self.height {
            for x in 0..self.width {
                out[y * self.width + x] = self.convolve_checked(x, y);
            }
        }
        out
    }

    /// Parallel tier: naive per-pixel code behind a row-parallel loop.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let w = self.width;
        let mut out = vec![0.0f32; w * self.height];
        par_chunks_mut(pool, &mut out, w, |y, row| {
            for (x, o) in row.iter_mut().enumerate() {
                *o = self.convolve_checked(x, y);
            }
        });
        out
    }

    /// Computes row `y` into `row`. A border row, and the border pixels of
    /// an interior row, take the checked path; the interior pixels
    /// `[R, w-R)` are branch-free: whole blocks of [`BLOCK`] pixels, then
    /// one short block. The whole blocks come from `chunks_exact_mut`, so
    /// their length is a constant and their accumulators stay in registers.
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn compiler_row(&self, y: usize, row: &mut [f32]) {
        let w = self.width;
        if y < R || y >= self.height - R {
            for (x, o) in row.iter_mut().enumerate() {
                *o = self.convolve_checked(x, y);
            }
            return;
        }
        for x in 0..R {
            row[x] = self.convolve_checked(x, y);
            row[w - 1 - x] = self.convolve_checked(w - 1 - x, y);
        }
        let interior = &mut row[R..w - R];
        let full = interior.len() / BLOCK * BLOCK;
        let mut blocks = interior.chunks_exact_mut(BLOCK);
        for (b, block) in (&mut blocks).enumerate() {
            self.interior_block(y, R + b * BLOCK, block);
        }
        self.interior_block(y, R + full, blocks.into_remainder());
    }

    /// Output-stationary block of row `y` from pixel `x` on: every tap
    /// runs over a block of accumulators (`x` is the vector axis), in the
    /// naive rung's tap order per pixel, and the block is stored once.
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn interior_block(&self, y: usize, x: usize, out: &mut [f32]) {
        let n = out.len();
        let mut acc = [0.0f32; BLOCK];
        let acc = &mut acc[..n];
        for ky in 0..K {
            let base = (y + ky - R) * self.width + x - R;
            for kx in 0..K {
                let t = self.taps[ky][kx];
                for (a, &p) in acc.iter_mut().zip(&self.image[base + kx..][..n]) {
                    *a += t * p;
                }
            }
        }
        out.copy_from_slice(acc);
    }

    /// Compiler-vectorizable tier: interior/boundary split, serial, in the
    /// feature frame.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256)
    pub fn run_simd(&self) -> Vec<f32> {
        let w = self.width;
        let mut out = vec![0.0f32; w * self.height];
        isa::with_active_features(
            #[inline(always)]
            |_| {
                for (y, row) in out.chunks_exact_mut(w).enumerate() {
                    self.compiler_row(y, row);
                }
            },
        );
        out
    }

    /// Low-effort endpoint: interior/boundary split plus row parallelism,
    /// each row in the feature frame.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.width * self.height];
        par_chunks_mut(pool, &mut out, self.width, |y, row| {
            isa::with_active_features(
                #[inline(always)]
                |_| self.compiler_row(y, row),
            );
        });
        out
    }

    /// Ninja tier: explicit width-generic SIMD across `x`, [`GROUPS`]
    /// vectors of pixels summing all 25 taps in registers, row-parallel.
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256, fma)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    /// The ninja rung on a chosen backend, dispatched per row inside the
    /// worker closure (`#[target_feature]` trampolines do not cross
    /// thread boundaries).
    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        let w = self.width;
        let h = self.height;
        let mut out = vec![0.0f32; w * h];
        par_chunks_mut(pool, &mut out, w, |y, row| {
            if y < R || y >= h - R {
                for (x, o) in row.iter_mut().enumerate() {
                    *o = self.convolve_checked(x, y);
                }
            } else {
                dispatch_on(
                    kind,
                    InteriorRow {
                        kernel: self,
                        y,
                        row,
                    },
                );
            }
        });
        out
    }
}

/// One interior image row of the ninja rung.
struct InteriorRow<'a> {
    kernel: &'a Conv2d,
    y: usize,
    row: &'a mut [f32],
}

impl IsaOp for InteriorRow<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (k, y, row) = (self.kernel, self.y, self.row);
        let w = k.width;
        for x in 0..R {
            row[x] = k.convolve_checked(x, y);
            row[w - 1 - x] = k.convolve_checked(w - 1 - x, y);
        }
        let interior_end = w - R;
        let mut x = R;
        while x + GROUPS * lanes <= interior_end {
            row_groups::<I, GROUPS>(k, y, x, &mut row[x..]);
            x += GROUPS * lanes;
        }
        while x + lanes <= interior_end {
            row_groups::<I, 1>(k, y, x, &mut row[x..]);
            x += lanes;
        }
        // Fewer than one vector of interior pixels left.
        while x < interior_end {
            row[x] = k.convolve_checked(x, y);
            x += 1;
        }
    }
}

/// `G` vectors of row `y` from pixel `x` on, as `G` independent
/// accumulator chains over all 25 taps (the FMA latency is hidden by the
/// other chains), each stored once into `out`. Each tap row reads one
/// bounds-checked window, so the loads carry no checks.
#[inline(always)]
// ninja-lint: effort(ninja)
fn row_groups<I: Isa, const G: usize>(k: &Conv2d, y: usize, x: usize, out: &mut [f32]) {
    let lanes = <I::F32 as SimdF32>::LANES;
    let mut acc = [I::F32::zero(); G];
    for ky in 0..K {
        let line = &k.image[(y + ky - R) * k.width + x - R..][..G * lanes + K - 1];
        for kx in 0..K {
            let t = I::F32::splat(k.taps[ky][kx]);
            for (g, a) in acc.iter_mut().enumerate() {
                *a = t.mul_add(I::F32::load(&line[kx + g * lanes..]), *a);
            }
        }
    }
    for (g, a) in acc.into_iter().enumerate() {
        a.store(&mut out[g * lanes..]);
    }
}

fn run(k: &Conv2d, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &Conv2d) -> Work {
    let n = (k.width * k.height) as f64;
    Work {
        flops: n * (K * K) as f64 * 2.0,
        bytes: n * 8.0,
        elems: (k.width * k.height) as u64,
    }
}

/// Suite entry for the 2D convolution kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "conv2d",
        description: "5x5 image convolution (compute bound, boundary-split showcase)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "bounds check inside the tap loop, serial",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 7,
                what_changed: "parallel_for over rows",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 33,
                what_changed: "interior/boundary split, output-stationary blocks",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 31,
                what_changed: "interior split, output blocks + row parallelism",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 44,
                what_changed: "hand SIMD across x, 8 independent FMA chains",
            },
        ],
        character: Characterization {
            flops_per_elem: (K * K) as f64 * 2.0,
            bytes_per_elem: 8.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.98,
            simd_friendly_frac: 0.98,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.3, // hoisting the bounds checks also wins scalar time
            simd_efficiency: 1.0,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: Conv2d::generate(size, seed),
                name: "conv2d",
                tolerance: 1e-4,
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
    fn identity_kernel_is_identity_on_interior() {
        let mut k = Conv2d::generate(ProblemSize::Test, 1);
        k.taps = [[0.0; K]; K];
        k.taps[R][R] = 1.0;
        let out = k.run_naive();
        for y in R..k.height - R {
            for x in R..k.width - R {
                assert_eq!(out[y * k.width + x], k.image[y * k.width + x]);
            }
        }
    }

    #[test]
    fn zero_padding_at_corner() {
        let mut k = Conv2d::generate(ProblemSize::Test, 2);
        k.taps = [[1.0; K]; K];
        let out = k.run_naive();
        // Top-left pixel sees only the 3x3 in-bounds quadrant.
        let mut want = 0.0;
        for y in 0..=R {
            for x in 0..=R {
                want += k.image[y * k.width + x];
            }
        }
        assert!((out[0] - want).abs() < 1e-5);
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = Conv2d::generate(ProblemSize::Test, 3);
        let pool = ThreadPool::with_threads(2);
        let reference = k.run_naive();
        for (label, out) in [
            ("parallel", k.run_parallel(&pool)),
            ("simd", k.run_simd()),
            ("algorithmic", k.run_algorithmic(&pool)),
            ("ninja", k.run_ninja(&pool)),
        ] {
            assert_eq!(out.len(), reference.len(), "{label}");
            for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
                let err = (a - b).abs() / b.abs().max(1.0);
                assert!(err < 1e-4, "{label}[{i}]: {a} vs {b}");
            }
        }
    }

    /// Widths whose interior spans every residue of the ninja rung's
    /// grouped step, so the grouped loop, the one-vector loop and the
    /// scalar remainder each run at every length under each backend.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            20..20 + GROUPS * ninja_simd::isa::MAX_ISA_F32_LANES,
            1e-4,
            |dim| Conv2d::with_dim(dim, 11),
            Conv2d::run_naive,
            Conv2d::run_ninja_on,
        );
    }

    /// The compiler rungs' row body inside each backend's feature frame
    /// is bit-identical to the naive rung: each pixel sums its 25 taps in
    /// the naive order, and Rust never contracts `a * b + c`. Interior
    /// widths run over every residue of the accumulator block and of two
    /// 256-bit vectors (both powers of two), from one short block alone
    /// to full blocks plus a short one.
    #[test]
    fn compiler_rung_body_conforms_on_every_backend_at_every_residue() {
        let span = BLOCK.max(2 * ninja_simd::isa::MAX_ISA_F32_LANES);
        crate::framework::assert_bit_identical_on_every_backend(
            20..20 + span,
            |dim| Conv2d::with_dim(dim, 12),
            Conv2d::run_naive,
            |k, kind, _| {
                let mut out = vec![0.0f32; k.width * k.height];
                isa::with_features_on(
                    kind,
                    #[inline(always)]
                    |_| {
                        for (y, row) in out.chunks_exact_mut(k.width).enumerate() {
                            k.compiler_row(y, row);
                        }
                    },
                );
                out
            },
        );
    }

    /// Interior widths around the accumulator block and past the ninja
    /// rung's grouped step, with one row per parallel chunk. The parallel
    /// and algorithmic rungs stay bit-identical to the naive rung; the
    /// ninja rung fuses, so it conforms to the tolerance, on every
    /// backend.
    #[test]
    fn threaded_rungs_conform_across_chunk_boundaries() {
        let lanes = ninja_simd::isa::MAX_ISA_F32_LANES;
        let sizes = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + lanes + 1].map(|n| n + 2 * R);
        let make = |dim| Conv2d::with_dim(dim, 13);
        crate::framework::assert_bit_identical_on_every_backend(
            sizes,
            make,
            Conv2d::run_naive,
            |k, _, pool| k.run_parallel(pool),
        );
        crate::framework::assert_bit_identical_on_every_backend(
            sizes,
            make,
            Conv2d::run_naive,
            |k, _, pool| k.run_algorithmic(pool),
        );
        crate::framework::assert_conforms_on_every_backend(
            sizes,
            1e-4,
            make,
            Conv2d::run_naive,
            Conv2d::run_ninja_on,
        );
    }

    #[test]
    fn adapter_validates_all_variants() {
        let spec = spec();
        let pool = ThreadPool::with_threads(1);
        for v in Variant::ALL {
            (spec.make)(ProblemSize::Test, 4)
                .validate(v, &pool)
                .unwrap();
        }
    }

    #[test]
    fn convolution_is_linear_in_the_taps() {
        let base = Conv2d::generate(ProblemSize::Test, 9);
        let mut scaled = Conv2d::generate(ProblemSize::Test, 9);
        for row in scaled.taps.iter_mut() {
            for t in row.iter_mut() {
                *t *= 3.0;
            }
        }
        let out1 = base.run_naive();
        let out3 = scaled.run_naive();
        for (a, b) in out1.iter().zip(out3.iter()) {
            assert!((3.0 * a - b).abs() < 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn uniform_image_uniform_kernel_gives_flat_interior() {
        let mut k = Conv2d::generate(ProblemSize::Test, 10);
        k.image.iter_mut().for_each(|p| *p = 2.0);
        k.taps = [[0.04; K]; K]; // sums to 1
        let out = k.run_ninja(&ThreadPool::with_threads(1));
        for y in R..k.height - R {
            for x in R..k.width - R {
                let v = out[y * k.width + x];
                assert!((v - 2.0).abs() < 1e-4, "interior {v}");
            }
        }
    }
}
