//! Fixture: deliberate NL005 violation — the ninja tier's unsafe store
//! carries no `// SAFETY:` justification. Everything else is clean, so
//! NL005 must fire exactly once.

use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{dispatch, Isa, IsaOp, SimdF32};

pub struct DotProd {
    xs: Vec<f32>,
    ys: Vec<f32>,
    n: usize,
}

/// One chunk of the ninja tier, generic over the dispatched backend.
struct DotRange<'a> {
    xs: &'a [f32],
    ys: &'a [f32],
    out: &'a mut [f32],
}

impl IsaOp for DotRange<'_> {
    type Output = ();

    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let one = I::F32::splat(1.0);
        for (k, group) in self.out.chunks_mut(lanes).enumerate() {
            let x = I::F32::load(&self.xs[k * lanes..]);
            let y = I::F32::load(&self.ys[k * lanes..]);
            let tail = I::F32::first_n_mask(group.len());
            unsafe { x.mul_add(y, one).store_ptr_mask(group.as_mut_ptr(), tail) };
        }
    }
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

    /// Hand-vectorized once plus threads; measured at whatever width the
    /// dispatcher resolves (or a `NINJA_ISA` override forces).
    // ninja-lint: variant(ninja)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        par_chunks_mut(pool, &mut out, 64, |base, chunk| {
            dispatch(DotRange {
                xs: &self.xs[base * 64..],
                ys: &self.ys[base * 64..],
                out: chunk,
            });
        });
        out
    }
}
