//! Fixture: deliberate NL003 violation — the "ninja" tier is just the
//! algorithmic code again, with no explicit vector type anywhere, so its
//! claimed hand-SIMD speedup cannot be real. Everything else is clean,
//! so NL003 must fire exactly once.

use ninja_parallel::{par_chunks_mut, ThreadPool};

pub struct DotProd {
    xs: Vec<f32>,
    ys: Vec<f32>,
    n: usize,
}

impl DotProd {
    /// Serial scalar reference.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        for i in 0..self.n {
            out[i] = self.xs[i] * self.ys[i] + 1.0;
        }
        out
    }

    /// Naive plus a parallel_for annotation.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        par_chunks_mut(pool, &mut out, 64, |base, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let i = base * 64 + k;
                *slot = self.xs[i] * self.ys[i] + 1.0;
            }
        });
        out
    }

    /// Serial, restructured so the compiler can vectorize.
    // ninja-lint: variant(simd)
    pub fn run_simd(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        for (slot, (x, y)) in out.iter_mut().zip(self.xs.iter().zip(self.ys.iter())) {
            *slot = x.mul_add(*y, 1.0);
        }
        out
    }

    /// Restructured loop plus threads: the low-effort endpoint.
    // ninja-lint: variant(algorithmic)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        par_chunks_mut(pool, &mut out, 64, |base, chunk| {
            let lo = base * 64;
            for (slot, (x, y)) in chunk
                .iter_mut()
                .zip(self.xs[lo..].iter().zip(self.ys[lo..].iter()))
            {
                *slot = x.mul_add(*y, 1.0);
            }
        });
        out
    }

    /// "Hand SIMD" that never actually touches a vector type.
    // ninja-lint: variant(ninja)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        par_chunks_mut(pool, &mut out, 64, |base, chunk| {
            let lo = base * 64;
            for (slot, (x, y)) in chunk
                .iter_mut()
                .zip(self.xs[lo..].iter().zip(self.ys[lo..].iter()))
            {
                *slot = x.mul_add(*y, 1.0);
            }
        });
        out
    }
}

pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "dotprod",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "serial scalar loop",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 4,
                what_changed: "parallel_for over chunks",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 6,
                what_changed: "iterator form the compiler vectorizes",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 10,
                what_changed: "vectorizable form + threads",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 25,
                what_changed: "width-generic Isa body, masked stores, runtime dispatch",
            },
        ],
    }
}
