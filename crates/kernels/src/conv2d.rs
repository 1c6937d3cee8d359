//! 2D convolution: a 5×5 stencil over a large single-channel image.
//!
//! The paper's image-processing representative. The naive version tests
//! image bounds inside the innermost tap loop, which blocks vectorization;
//! the **algorithmic change** is the classic interior/boundary split (peel
//! the 2-pixel border, run branch-free code on the interior), after which
//! the compiler vectorizes across `x`. Ninja code issues explicit
//! vector-width loads with register-blocked tap accumulation.
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

    /// Computes one interior row (no bounds checks) into `row`.
    ///
    /// `row[x]` for `x` in `[R, w-R)` is written with branch-free code; the
    /// border pixels of the row use the checked path.
    #[inline]
    // ninja-lint: effort(simd, algorithmic)
    fn interior_row(&self, y: usize, row: &mut [f32]) {
        let w = self.width;
        for x in 0..R {
            row[x] = self.convolve_checked(x, y);
            row[w - 1 - x] = self.convolve_checked(w - 1 - x, y);
        }
        for x in R..w - R {
            let mut acc = 0.0f32;
            for ky in 0..K {
                let base = (y + ky - R) * w + x - R;
                let line = &self.image[base..base + K];
                let t = &self.taps[ky];
                acc += t[0] * line[0]
                    + t[1] * line[1]
                    + t[2] * line[2]
                    + t[3] * line[3]
                    + t[4] * line[4];
            }
            row[x] = acc;
        }
    }

    /// Compiler-vectorizable tier: interior/boundary split, serial.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec128)
    pub fn run_simd(&self) -> Vec<f32> {
        let w = self.width;
        let mut out = vec![0.0f32; w * self.height];
        for y in 0..self.height {
            let row = &mut out[y * w..(y + 1) * w];
            if y < R || y >= self.height - R {
                for (x, o) in row.iter_mut().enumerate() {
                    *o = self.convolve_checked(x, y);
                }
            } else {
                self.interior_row(y, row);
            }
        }
        out
    }

    /// Low-effort endpoint: interior/boundary split plus row parallelism.
    // ninja-lint: variant(algorithmic)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let w = self.width;
        let h = self.height;
        let mut out = vec![0.0f32; w * h];
        par_chunks_mut(pool, &mut out, w, |y, row| {
            if y < R || y >= h - R {
                for (x, o) in row.iter_mut().enumerate() {
                    *o = self.convolve_checked(x, y);
                }
            } else {
                self.interior_row(y, row);
            }
        });
        out
    }

    /// Ninja tier: explicit width-generic SIMD across `x` with all 25
    /// taps register-blocked, row-parallel.
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
        while x + lanes <= interior_end {
            let mut acc = I::F32::zero();
            for ky in 0..K {
                let base = (y + ky - R) * w + x - R;
                for kx in 0..K {
                    let pixels = I::F32::load(&k.image[base + kx..]);
                    acc = I::F32::splat(k.taps[ky][kx]).mul_add(pixels, acc);
                }
            }
            acc.store(&mut row[x..]);
            x += lanes;
        }
        // Fewer than one vector of interior pixels left.
        while x < interior_end {
            row[x] = k.convolve_checked(x, y);
            x += 1;
        }
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
                effort_loc: 22,
                what_changed: "interior/boundary split, unrolled constant taps",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 24,
                what_changed: "interior split + row parallelism",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 37,
                what_changed: "hand SIMD across x, 25 taps register-blocked",
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

    /// Widths at every residue of the widest lane count, so the interior
    /// span ends in a scalar remainder of every length under each backend.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            20..20 + ninja_simd::isa::MAX_ISA_F32_LANES,
            1e-4,
            |dim| Conv2d::with_dim(dim, 11),
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
