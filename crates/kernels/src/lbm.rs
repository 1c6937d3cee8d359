//! LBM: a D2Q9 lattice-Boltzmann fluid step (stream + BGK collide).
//!
//! The paper's bandwidth-bound stencil code (SPEC's `470.lbm` is its
//! original). Every time step pulls nine distribution values from the
//! neighbouring cells, relaxes them toward local equilibrium, and writes
//! nine values back — ~72 bytes of traffic per cell per step, so the kernel
//! lives on the memory roofline.
//!
//! The AoS cell layout (`f[cell][9]`) of the naive code defeats
//! vectorization; the **algorithmic changes** are AoS→SoA (nine separate
//! planes) plus an interior/boundary split that removes the periodic-wrap
//! arithmetic from the hot loop.
//!
//! All tiers use the identical *stream-then-collide* update with the same
//! operation order, so results agree to rounding across variants (the
//! ninja collide fuses its multiply-adds where the backend has FMA).

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32};
use ninja_simd::AlignedVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Number of discrete velocities in D2Q9.
pub const Q: usize = 9;
/// Lattice velocities (dx, dy) per direction.
const E: [(i32, i32); Q] = [
    (0, 0),
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (-1, -1),
    (1, -1),
    (-1, 1),
];
/// Lattice weights per direction.
const W: [f32; Q] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
/// BGK relaxation rate (1/τ).
const OMEGA: f32 = 1.0 / 0.6;
/// Row-block length of the staged collide (fits comfortably in L1).
const STAGE_ROW: usize = 256;

/// A D2Q9 lattice-Boltzmann problem instance.
pub struct Lbm {
    width: usize,
    height: usize,
    steps: usize,
    /// Initial distributions, AoS layout `f[(y*w + x) * 9 + d]`.
    init: Vec<f32>,
}

impl Lbm {
    /// Grid edge and step count per preset.
    pub fn shape_for(size: ProblemSize) -> (usize, usize) {
        match size {
            ProblemSize::Test => (32, 4),
            ProblemSize::Quick => (192, 8),
            ProblemSize::Paper => (384, 10),
        }
    }

    /// Generates a deterministic initial state near equilibrium.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        let (dim, steps) = Self::shape_for(size);
        Self::with_shape(dim, steps, seed)
    }

    fn with_shape(dim: usize, steps: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut init = vec![0.0f32; dim * dim * Q];
        for cell in init.chunks_mut(Q) {
            let rho: f32 = rng.gen_range(0.8..1.2);
            let ux: f32 = rng.gen_range(-0.05..0.05);
            let uy: f32 = rng.gen_range(-0.05..0.05);
            for d in 0..Q {
                cell[d] = equilibrium(d, rho, ux, uy);
            }
        }
        Self {
            width: dim,
            height: dim,
            steps,
            init,
        }
    }

    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of time steps the instance runs.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Naive tier: AoS layout, periodic wrap computed per access, serial.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let (w, h) = (self.width, self.height);
        let mut cur = self.init.clone();
        let mut next = vec![0.0f32; cur.len()];
        for _ in 0..self.steps {
            for y in 0..h {
                for x in 0..w {
                    let mut f = [0.0f32; Q];
                    for (d, &(ex, ey)) in E.iter().enumerate() {
                        let sx = wrap(x as i32 - ex, w);
                        let sy = wrap(y as i32 - ey, h);
                        f[d] = cur[(sy * w + sx) * Q + d];
                    }
                    let out = &mut next[(y * w + x) * Q..(y * w + x) * Q + Q];
                    collide(&f, out);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        densities_aos(&cur, w * h)
    }

    /// Parallel tier: the naive cell update behind a row-parallel loop.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let (w, h) = (self.width, self.height);
        let mut cur = self.init.clone();
        let mut next = vec![0.0f32; cur.len()];
        for _ in 0..self.steps {
            {
                let src = &cur;
                par_chunks_mut(pool, &mut next, w * Q, |y, row| {
                    for x in 0..w {
                        let mut f = [0.0f32; Q];
                        for (d, &(ex, ey)) in E.iter().enumerate() {
                            let sx = wrap(x as i32 - ex, w);
                            let sy = wrap(y as i32 - ey, h);
                            f[d] = src[(sy * w + sx) * Q + d];
                        }
                        collide(&f, &mut row[x * Q..x * Q + Q]);
                    }
                });
            }
            std::mem::swap(&mut cur, &mut next);
        }
        densities_aos(&cur, w * h)
    }

    // ninja-lint: effort(simd, algorithmic, ninja)
    fn soa_init(&self) -> Vec<AlignedVec<f32>> {
        let cells = self.width * self.height;
        let mut planes: Vec<AlignedVec<f32>> = (0..Q).map(|_| AlignedVec::zeroed(cells)).collect();
        for c in 0..cells {
            for d in 0..Q {
                planes[d][c] = self.init[c * Q + d];
            }
        }
        planes
    }

    /// One SoA row update for `y`, cells `[x0, x1)`, scalar arithmetic.
    #[inline]
    // ninja-lint: effort(simd, algorithmic, ninja)
    fn soa_row_scalar(
        src: &[AlignedVec<f32>],
        dst_row: &mut [f32],
        plane_of: usize,
        w: usize,
        h: usize,
        y: usize,
        x0: usize,
        x1: usize,
        wrap_x: bool,
    ) {
        let (ex, ey) = E[plane_of];
        let sy = wrap(y as i32 - ey, h);
        let src_plane = &src[plane_of];
        if wrap_x {
            for x in x0..x1 {
                let sx = wrap(x as i32 - ex, w);
                dst_row[x] = src_plane[sy * w + sx];
            }
        } else {
            let base = (sy * w) as i32 - ex;
            for x in x0..x1 {
                dst_row[x] = src_plane[(base + x as i32) as usize];
            }
        }
    }

    /// Shared SoA step used by the simd/algorithmic/ninja tiers.
    ///
    /// `streamed` is scratch: Q planes holding post-stream values, then
    /// collided by `collide` in a second fused loop over cells.
    // ninja-lint: effort(simd, algorithmic, ninja)
    fn soa_step(
        src: &[AlignedVec<f32>],
        streamed: &mut [AlignedVec<f32>],
        dst: &mut [AlignedVec<f32>],
        w: usize,
        h: usize,
        range: Range<usize>,
        collide: CollideRowsFn<'_>,
    ) {
        // Stream: each plane is a shifted copy (interior unit-stride).
        for d in 0..Q {
            let (ex, _ey) = E[d];
            for y in range.clone() {
                let row = &mut streamed[d][y * w..(y + 1) * w];
                // Boundary columns wrap; interior is a straight copy.
                let lo = if ex > 0 { ex as usize } else { 0 };
                let hi = if ex < 0 { w - (-ex) as usize } else { w };
                if lo > 0 {
                    Self::soa_row_scalar(src, row, d, w, h, y, 0, lo, true);
                }
                if hi < w {
                    Self::soa_row_scalar(src, row, d, w, h, y, hi, w, true);
                }
                Self::soa_row_scalar(src, row, d, w, h, y, lo, hi, false);
            }
        }
        // Collide on unit-stride planes.
        collide(streamed, dst, w, range);
    }

    /// Plane-staged collide, row by row: computes the moment rows (`rho`,
    /// `ux`, `uy`) with plane-accumulation loops, then relaxes each plane
    /// with an elementwise pass — every loop is unit-stride scalar `f32`
    /// arithmetic an auto-vectorizer handles, with the identical
    /// operation order as [`collide`] so results match bitwise.
    // ninja-lint: effort(simd, algorithmic)
    fn collide_rows_staged(
        streamed: &[AlignedVec<f32>],
        dst: &mut [AlignedVec<f32>],
        w: usize,
        rows: Range<usize>,
    ) {
        for y in rows {
            Self::collide_row_staged(streamed, dst, y * w, w);
        }
    }

    // ninja-lint: effort(simd, algorithmic)
    fn collide_row_staged(
        streamed: &[AlignedVec<f32>],
        dst: &mut [AlignedVec<f32>],
        base: usize,
        w: usize,
    ) {
        let mut rho = [0.0f32; STAGE_ROW];
        let mut ux = [0.0f32; STAGE_ROW];
        let mut uy = [0.0f32; STAGE_ROW];
        let mut x0 = 0;
        while x0 < w {
            let n = STAGE_ROW.min(w - x0);
            let lo = base + x0;
            // Moments, accumulated plane by plane in direction order (the
            // same summation order as the scalar path).
            rho[..n].copy_from_slice(&streamed[0][lo..lo + n]);
            ux[..n].fill(0.0);
            uy[..n].fill(0.0);
            for d in 1..Q {
                let f = &streamed[d][lo..lo + n];
                for j in 0..n {
                    rho[j] += f[j];
                }
            }
            for d in 0..Q {
                let (ex, ey) = (E[d].0 as f32, E[d].1 as f32);
                let f = &streamed[d][lo..lo + n];
                for j in 0..n {
                    ux[j] += ex * f[j];
                    uy[j] += ey * f[j];
                }
            }
            for j in 0..n {
                let inv_rho = 1.0 / rho[j];
                ux[j] *= inv_rho;
                uy[j] *= inv_rho;
            }
            // Relax every plane with an elementwise pass.
            for d in 0..Q {
                let (ex, ey) = (E[d].0 as f32, E[d].1 as f32);
                let wq = W[d];
                let f = &streamed[d][lo..lo + n];
                let out = &mut dst[d][lo..lo + n];
                for j in 0..n {
                    let usq = ux[j] * ux[j] + uy[j] * uy[j];
                    let eu = ex * ux[j] + ey * uy[j];
                    let feq = wq * rho[j] * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq);
                    out[j] = f[j] + OMEGA * (feq - f[j]);
                }
            }
            x0 += n;
        }
    }

    // ninja-lint: effort(simd, algorithmic, ninja)
    fn run_soa(&self, pool: Option<&ThreadPool>, collide: CollideRowsFn<'_>) -> Vec<f32> {
        let (w, h) = (self.width, self.height);
        let cells = w * h;
        let mut cur = self.soa_init();
        let mut streamed: Vec<AlignedVec<f32>> =
            (0..Q).map(|_| AlignedVec::zeroed(cells)).collect();
        let mut next: Vec<AlignedVec<f32>> = (0..Q).map(|_| AlignedVec::zeroed(cells)).collect();
        for _ in 0..self.steps {
            match pool {
                None => Self::soa_step(&cur, &mut streamed, &mut next, w, h, 0..h, collide),
                Some(pool) => {
                    // Parallelize over row bands; bands write disjoint rows
                    // of `streamed` and `next`, so share them via raw parts.
                    let src = &cur;
                    let streamed_ptr = PlanesPtr::new(&mut streamed);
                    let next_ptr = PlanesPtr::new(&mut next);
                    const BAND: usize = 8;
                    let bands = h.div_ceil(BAND);
                    pool.parallel_for(0..bands, 1, |r| {
                        for b in r {
                            let y0 = b * BAND;
                            let y1 = (y0 + BAND).min(h);
                            // SAFETY: bands cover disjoint row ranges.
                            let streamed = unsafe { streamed_ptr.planes() };
                            // SAFETY: same disjoint-rows argument as above.
                            let next = unsafe { next_ptr.planes() };
                            Self::soa_step(src, streamed, next, w, h, y0..y1, collide);
                        }
                    });
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        // Density in the same summation order as the AoS path.
        let mut rho = vec![0.0f32; cells];
        for (c, r) in rho.iter_mut().enumerate() {
            let f: [f32; Q] = std::array::from_fn(|d| cur[d][c]);
            *r = sum_q(&f);
        }
        rho
    }

    /// Compiler-vectorizable tier: SoA planes, interior/boundary split,
    /// serial.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec128)
    pub fn run_simd(&self) -> Vec<f32> {
        self.run_soa(None, &Self::collide_rows_staged)
    }

    /// Low-effort endpoint: SoA + split + row-band parallelism.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec128)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_soa(Some(pool), &Self::collide_rows_staged)
    }

    /// Ninja tier: explicit width-generic SIMD collide on SoA planes +
    /// threads. The backend is dispatched inside each row band's task
    /// (`#[target_feature]` trampolines do not cross thread boundaries).
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256, fma)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        self.run_soa(Some(pool), &|streamed, dst, w, rows| {
            dispatch_on(
                kind,
                CollideRows {
                    streamed,
                    dst,
                    w,
                    rows,
                },
            )
        })
    }
}

/// The collide half of a step over rows `rows` of `w`-cell-wide planes,
/// `streamed` into `dst`: what the SoA stepper is parameterized over.
type CollideRowsFn<'a> =
    &'a (dyn Fn(&[AlignedVec<f32>], &mut [AlignedVec<f32>], usize, Range<usize>) + Sync);

/// The ninja rung's collide over the rows of one band: whole vectors of
/// cells through [`collide_vec`], the sub-vector remainder of each row
/// through the scalar [`collide`].
struct CollideRows<'a> {
    streamed: &'a [AlignedVec<f32>],
    dst: &'a mut [AlignedVec<f32>],
    w: usize,
    rows: Range<usize>,
}

impl IsaOp for CollideRows<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (streamed, dst, w) = (self.streamed, self.dst, self.w);
        let vec_w = w / lanes * lanes;
        for y in self.rows {
            let base = y * w;
            for x in (0..vec_w).step_by(lanes) {
                let i = base + x;
                let f: [I::F32; Q] = std::array::from_fn(|d| I::F32::load(&streamed[d][i..]));
                let out = collide_vec::<I>(&f);
                for d in 0..Q {
                    out[d].store(&mut dst[d][i..]);
                }
            }
            for x in vec_w..w {
                let i = base + x;
                let f: [f32; Q] = std::array::from_fn(|d| streamed[d][i]);
                let mut out = [0.0f32; Q];
                collide(&f, &mut out);
                for d in 0..Q {
                    dst[d][i] = out[d];
                }
            }
        }
    }
}

/// Shares `&mut [AlignedVec<f32>]` across a parallel region whose tasks
/// write disjoint row ranges.
struct PlanesPtr {
    ptr: *mut AlignedVec<f32>,
    len: usize,
}
// SAFETY: PlanesPtr is only handed to pool tasks that write disjoint row
// ranges of the planes; the pointer and length stay valid for the region.
unsafe impl Send for PlanesPtr {}
unsafe impl Sync for PlanesPtr {}
impl PlanesPtr {
    fn new(planes: &mut [AlignedVec<f32>]) -> Self {
        Self {
            ptr: planes.as_mut_ptr(),
            len: planes.len(),
        }
    }
    /// # Safety
    /// Callers must write disjoint element ranges per thread.
    #[allow(clippy::mut_from_ref)]
    unsafe fn planes(&self) -> &mut [AlignedVec<f32>] {
        // SAFETY: upheld by the caller per this function's contract; the
        // pointer/len came from a live `&mut [AlignedVec<f32>]` in `new`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

#[inline(always)]
// ninja-lint: effort(naive)
fn wrap(v: i32, n: usize) -> usize {
    let n = n as i32;
    (((v % n) + n) % n) as usize
}

/// Fixed-order 9-way sum, shared by every tier so densities agree bitwise.
#[inline(always)]
// ninja-lint: effort(naive)
fn sum_q(f: &[f32; Q]) -> f32 {
    let mut s = f[0];
    for d in 1..Q {
        s += f[d];
    }
    s
}

/// Equilibrium distribution for direction `d`.
#[inline(always)]
// ninja-lint: effort(naive)
fn equilibrium(d: usize, rho: f32, ux: f32, uy: f32) -> f32 {
    let (ex, ey) = E[d];
    let eu = ex as f32 * ux + ey as f32 * uy;
    let usq = ux * ux + uy * uy;
    W[d] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)
}

/// BGK collision: relax the streamed distributions toward equilibrium.
#[inline(always)]
// ninja-lint: effort(naive)
fn collide(f: &[f32; Q], out: &mut [f32]) {
    let rho = sum_q(f);
    let inv_rho = 1.0 / rho;
    let mut ux = 0.0f32;
    let mut uy = 0.0f32;
    for d in 0..Q {
        ux += E[d].0 as f32 * f[d];
        uy += E[d].1 as f32 * f[d];
    }
    ux *= inv_rho;
    uy *= inv_rho;
    let usq = ux * ux + uy * uy;
    for d in 0..Q {
        let (ex, ey) = E[d];
        let eu = ex as f32 * ux + ey as f32 * uy;
        let feq = W[d] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq);
        out[d] = f[d] + OMEGA * (feq - f[d]);
    }
}

/// Vector mirror of [`collide`] with the identical operation order; every
/// multiply-add pair goes through `mul_add`, so it matches the scalar
/// path bitwise on backends without FMA and to rounding on those with.
#[inline(always)]
// ninja-lint: effort(ninja)
fn collide_vec<I: Isa>(f: &[I::F32; Q]) -> [I::F32; Q] {
    let splat = I::F32::splat;
    let mut rho = f[0];
    for fd in &f[1..] {
        rho = rho + *fd;
    }
    let inv_rho = splat(1.0) / rho;
    let mut ux = I::F32::zero();
    let mut uy = I::F32::zero();
    for d in 0..Q {
        ux = splat(E[d].0 as f32).mul_add(f[d], ux);
        uy = splat(E[d].1 as f32).mul_add(f[d], uy);
    }
    ux = ux * inv_rho;
    uy = uy * inv_rho;
    let usq = ux.mul_add(ux, uy * uy);
    std::array::from_fn(|d| {
        let eu = splat(E[d].0 as f32).mul_add(ux, splat(E[d].1 as f32) * uy);
        let series = (splat(4.5) * eu).mul_add(eu, splat(3.0).mul_add(eu, splat(1.0)));
        let feq = splat(W[d]) * rho * (series - splat(1.5) * usq);
        splat(OMEGA).mul_add(feq - f[d], f[d])
    })
}

// ninja-lint: effort(naive)
fn densities_aos(f: &[f32], cells: usize) -> Vec<f32> {
    let mut rho = vec![0.0f32; cells];
    for (c, r) in rho.iter_mut().enumerate() {
        let arr: [f32; Q] = std::array::from_fn(|d| f[c * Q + d]);
        *r = sum_q(&arr);
    }
    rho
}

fn run(k: &Lbm, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &Lbm) -> Work {
    let cells = (k.width * k.height) as f64;
    let steps = k.steps as f64;
    Work {
        flops: cells * steps * 130.0,
        bytes: cells * steps * (Q as f64) * 8.0,
        elems: (k.width * k.height) as u64,
    }
}

/// Suite entry for the LBM kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "lbm",
        description: "D2Q9 lattice Boltzmann stream+collide (bandwidth bound)",
        bound: "memory",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "AoS cells, modulo wrap per access, serial",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 7,
                what_changed: "parallel_for over rows",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 80,
                what_changed: "AoS->SoA planes, interior/boundary split",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 80,
                what_changed: "SoA + split + row-band parallelism",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 98,
                what_changed: "explicit SIMD collide over SoA planes",
            },
        ],
        character: Characterization {
            flops_per_elem: 130.0,
            bytes_per_elem: 72.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.95,
            simd_friendly_frac: 0.95,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.4, // wrap hoisting + layout locality
            simd_efficiency: 0.9,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: Lbm::generate(size, seed),
                name: "lbm",
                tolerance: 1e-3,
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
    fn mass_is_conserved() {
        let k = Lbm::generate(ProblemSize::Test, 1);
        let before: f64 = k.init.iter().map(|&x| x as f64).sum();
        let after: f64 = k.run_naive().iter().map(|&x| x as f64).sum();
        let rel = (before - after).abs() / before;
        assert!(rel < 1e-4, "mass drift {rel}");
    }

    #[test]
    fn uniform_equilibrium_is_a_fixed_point() {
        let mut k = Lbm::generate(ProblemSize::Test, 2);
        for cell in k.init.chunks_mut(Q) {
            for d in 0..Q {
                cell[d] = equilibrium(d, 1.0, 0.0, 0.0);
            }
        }
        let rho = k.run_naive();
        for &r in rho.iter() {
            assert!((r - 1.0).abs() < 1e-5, "rho {r}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let s: f32 = W.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        // And equilibrium reproduces rho.
        let f: [f32; Q] = std::array::from_fn(|d| equilibrium(d, 1.3, 0.02, -0.04));
        assert!((sum_q(&f) - 1.3).abs() < 1e-5);
    }

    /// The vector collide against the scalar one, lane for lane: exact
    /// where `mul_add` is unfused, within rounding where it fuses.
    #[test]
    fn collide_vector_matches_scalar() {
        use ninja_simd::isa::{available_kinds, MAX_ISA_F32_LANES};

        struct CollideCells<'a>(&'a [f32]);
        impl IsaOp for CollideCells<'_> {
            type Output = Vec<[f32; Q]>;
            fn run<I: Isa>(self) -> Vec<[f32; Q]> {
                let lanes = <I::F32 as SimdF32>::LANES;
                let mut lane_major = [0.0f32; MAX_ISA_F32_LANES];
                let f: [I::F32; Q] = std::array::from_fn(|d| {
                    for (lane, v) in lane_major.iter_mut().enumerate().take(lanes) {
                        *v = self.0[lane * Q + d];
                    }
                    I::F32::load(&lane_major)
                });
                let out = collide_vec::<I>(&f);
                (0..lanes)
                    .map(|lane| std::array::from_fn(|d| out[d].lane(lane)))
                    .collect()
            }
        }

        let k = Lbm::generate(ProblemSize::Test, 3);
        for kind in available_kinds() {
            let fused = !matches!(kind, IsaKind::Scalar | IsaKind::Sse2);
            for (lane, got) in dispatch_on(kind, CollideCells(&k.init)).iter().enumerate() {
                let f: [f32; Q] = std::array::from_fn(|d| k.init[lane * Q + d]);
                let mut want = [0.0f32; Q];
                collide(&f, &mut want);
                for d in 0..Q {
                    let slack = if fused { 1e-6 * want[d].abs() } else { 0.0 };
                    assert!(
                        (got[d] - want[d]).abs() <= slack,
                        "{kind} lane {lane} dir {d}: {} vs {}",
                        got[d],
                        want[d]
                    );
                }
            }
        }
    }

    /// Grid widths at every residue of the widest lane count: each row's
    /// collide ends in a scalar remainder of every length.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            16..16 + ninja_simd::isa::MAX_ISA_F32_LANES,
            1e-3,
            |dim| Lbm::with_shape(dim, 3, 8),
            Lbm::run_naive,
            Lbm::run_ninja_on,
        );
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = Lbm::generate(ProblemSize::Test, 4);
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
                assert!(err < 1e-3, "{label}[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn adapter_validates_all_variants() {
        let spec = spec();
        let pool = ThreadPool::with_threads(1);
        let mut inst = (spec.make)(ProblemSize::Test, 5);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
        }
    }

    #[test]
    fn wrap_handles_negatives() {
        assert_eq!(wrap(-1, 8), 7);
        assert_eq!(wrap(8, 8), 0);
        assert_eq!(wrap(3, 8), 3);
        assert_eq!(wrap(-9, 8), 7);
    }

    #[test]
    fn momentum_is_conserved() {
        // BGK collisions conserve per-cell momentum and periodic streaming
        // permutes populations, so total momentum is invariant.
        let k = Lbm::generate(ProblemSize::Test, 9);
        let momentum = |f: &[f32]| {
            let mut mx = 0.0f64;
            let mut my = 0.0f64;
            for cell in f.chunks(Q) {
                for (d, &(ex, ey)) in E.iter().enumerate() {
                    mx += ex as f64 * cell[d] as f64;
                    my += ey as f64 * cell[d] as f64;
                }
            }
            (mx, my)
        };
        let (mx0, my0) = momentum(&k.init);
        // Re-run the naive stepper but keep the final distributions: easiest
        // is to step a copy manually using the same public pieces.
        let (w, h) = (k.width, k.height);
        let mut cur = k.init.clone();
        let mut next = vec![0.0f32; cur.len()];
        for _ in 0..k.steps {
            for y in 0..h {
                for x in 0..w {
                    let mut f = [0.0f32; Q];
                    for (d, &(ex, ey)) in E.iter().enumerate() {
                        let sx = wrap(x as i32 - ex, w);
                        let sy = wrap(y as i32 - ey, h);
                        f[d] = cur[(sy * w + sx) * Q + d];
                    }
                    collide(&f, &mut next[(y * w + x) * Q..(y * w + x) * Q + Q]);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let (mx1, my1) = momentum(&cur);
        let cells = (w * h) as f64;
        assert!((mx0 - mx1).abs() < 1e-3 * cells.sqrt(), "{mx0} vs {mx1}");
        assert!((my0 - my1).abs() < 1e-3 * cells.sqrt(), "{my0} vs {my1}");
    }
}
