//! VR: volume rendering by ray casting with early ray termination.
//!
//! The paper's branchy SIMD-unfriendly benchmark: orthographic rays march
//! through a `D³` density volume, sampling trilinearly and compositing
//! front-to-back until the accumulated opacity saturates (early ray
//! termination). Divergent control flow (each ray terminates at its own
//! depth) is why the Ninja version must use **ray packets with masks** —
//! and why its SIMD efficiency is below 1 (the paper's divergence
//! discussion).
//!
//! The compiler tier's packet is a lockstep group: 16 adjacent rays
//! as plain `f32` arrays, compositing by select and stopping when every
//! ray has terminated. The compiler vectorizes the coordinate, lerp and
//! compositing math across the group; only the eight tap loads per ray
//! and step stay scalar.
//!
//! All tiers perform the identical arithmetic per step so outputs agree to
//! rounding (termination decisions are bit-reproducible).

use crate::framework::{
    lane_ramp, Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo,
    Work,
};
use crate::scalar_math::{floor_f32, int_of_integral, select_f32};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32, SimdI32, SimdMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Ray direction (unnormalized; z advances one voxel per step). The slight
/// tilt forces real trilinear interpolation instead of axis-aligned reads.
const DIR_X: f32 = 0.25;
const DIR_Y: f32 = 0.15;
/// Opacity scale per sample.
const ALPHA_SCALE: f32 = 0.08;
/// Early-termination threshold on accumulated opacity.
const TERMINATE: f32 = 0.98;
/// Rays per lockstep group in the algorithmic rung: two 256-bit vectors.
const GROUP: usize = 16;

/// A volume-rendering problem instance (one `D³` scalar field).
pub struct VolumeRender {
    dim: usize,
    voxels: Vec<f32>,
}

impl VolumeRender {
    /// Volume edge length per preset (image is `dim × dim`).
    pub fn dim_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 32,
            ProblemSize::Quick => 128,
            ProblemSize::Paper => 256,
        }
    }

    /// Generates a deterministic random density volume in `[0, 1)`.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_dim(Self::dim_for(size), seed)
    }

    fn with_dim(dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Sparse-ish density so early termination kicks in at varied depths.
        let voxels = (0..dim * dim * dim)
            .map(|_| {
                let v: f32 = rng.gen_range(0.0..1.0);
                if v > 0.7 {
                    v
                } else {
                    v * 0.1
                }
            })
            .collect();
        Self { dim, voxels }
    }

    /// Volume edge length in voxels.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn voxel(&self, x: usize, y: usize, z: usize) -> f32 {
        self.voxels[(z * self.dim + y) * self.dim + x]
    }

    /// Trilinear sample at a clamped continuous coordinate.
    #[inline]
    // ninja-lint: effort(naive)
    fn sample(&self, cx: f32, cy: f32, cz: f32) -> f32 {
        let max = (self.dim - 2) as f32;
        let cx = cx.clamp(0.0, max);
        let cy = cy.clamp(0.0, max);
        let cz = cz.clamp(0.0, max);
        let ix = cx as usize;
        let iy = cy as usize;
        let iz = cz as usize;
        let fx = cx - ix as f32;
        let fy = cy - iy as f32;
        let fz = cz - iz as f32;
        let c000 = self.voxel(ix, iy, iz);
        let c100 = self.voxel(ix + 1, iy, iz);
        let c010 = self.voxel(ix, iy + 1, iz);
        let c110 = self.voxel(ix + 1, iy + 1, iz);
        let c001 = self.voxel(ix, iy, iz + 1);
        let c101 = self.voxel(ix + 1, iy, iz + 1);
        let c011 = self.voxel(ix, iy + 1, iz + 1);
        let c111 = self.voxel(ix + 1, iy + 1, iz + 1);
        let x00 = c000 + (c100 - c000) * fx;
        let x10 = c010 + (c110 - c010) * fx;
        let x01 = c001 + (c101 - c001) * fx;
        let x11 = c011 + (c111 - c011) * fx;
        let y0 = x00 + (x10 - x00) * fy;
        let y1 = x01 + (x11 - x01) * fy;
        y0 + (y1 - y0) * fz
    }

    /// Marches one ray, compositing front-to-back with early termination.
    #[inline]
    // ninja-lint: effort(naive)
    fn trace(&self, px: usize, py: usize) -> f32 {
        let steps = self.dim - 1;
        let x0 = px as f32 + 0.5;
        let y0 = py as f32 + 0.5;
        let mut color = 0.0f32;
        let mut opacity = 0.0f32;
        for t in 0..steps {
            if opacity >= TERMINATE {
                break;
            }
            let tf = t as f32;
            let s = self.sample(x0 + tf * DIR_X, y0 + tf * DIR_Y, 0.5 + tf);
            let alpha = s * ALPHA_SCALE;
            let w = 1.0 - opacity;
            color += w * (alpha * s);
            opacity += w * alpha;
        }
        color
    }

    /// Naive tier: serial scalar ray march per pixel.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let d = self.dim;
        let mut out = vec![0.0f32; d * d];
        for py in 0..d {
            for px in 0..d {
                out[py * d + px] = self.trace(px, py);
            }
        }
        out
    }

    /// Parallel tier: the scalar march behind a row-parallel loop.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let d = self.dim;
        let mut out = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut out, d, |py, row| {
            for (px, o) in row.iter_mut().enumerate() {
                *o = self.trace(px, py);
            }
        });
        out
    }

    /// Compiler tier: the naive march. One ray is a chain of dependent
    /// samples with an early exit, which the auto-vectorizer leaves
    /// scalar, mirroring the paper's finding for VR; straight-line
    /// sampling alone measured like naive. What vectorizes is marching
    /// several rays in lockstep, and that regrouping is the algorithmic
    /// rung's change.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec128)
    pub fn run_simd(&self) -> Vec<f32> {
        self.run_naive()
    }

    /// Marches the `GROUP` adjacent rays `px0..px0 + GROUP` of row `py` in
    /// lockstep, writing their colors to `out`. The rays share `py` and the
    /// step, so `y`, `z` and the plane offset are scalar; `x` and the eight
    /// taps are per-lane arrays, and a lane's compositing is a select on
    /// its own `opacity < TERMINATE`. Each step's arithmetic is
    /// [`Self::trace`]'s, in its order, so termination decisions agree with
    /// every other rung. `inline(always)` so it compiles inside the
    /// caller's feature frame (see `isa::with_active_features`).
    #[inline(always)]
    // ninja-lint: effort(algorithmic)
    fn trace_group(&self, px0: usize, py: usize, out: &mut [f32]) {
        let d = self.dim;
        let max = (d - 2) as f32;
        let y0 = py as f32 + 0.5;
        let x0 = px0 as f32 + 0.5;
        let taps = [0, 1, d, d + 1, d * d, d * d + 1, d * d + d, d * d + d + 1];
        let mut color = [0.0f32; GROUP];
        let mut opacity = [0.0f32; GROUP];
        let mut tf = 0.0f32;
        for _ in 0..d - 1 {
            if opacity.iter().all(|&o| o >= TERMINATE) {
                break;
            }
            let cy = (y0 + tf * DIR_Y).min(max).max(0.0);
            let cz = (0.5 + tf).min(max).max(0.0);
            let (iy, iz) = (floor_f32(cy), floor_f32(cz));
            let (fy, fz) = (cy - iy, cz - iz);
            let plane = (int_of_integral(iz) as usize * d + int_of_integral(iy) as usize) * d;
            let mut fx = [0.0f32; GROUP];
            let mut base = [0usize; GROUP];
            for l in 0..GROUP {
                let cx = (x0 + l as f32 + tf * DIR_X).min(max).max(0.0);
                let ix = floor_f32(cx);
                fx[l] = cx - ix;
                base[l] = plane + int_of_integral(ix) as usize;
            }
            let mut c = [[0.0f32; GROUP]; 8];
            for l in 0..GROUP {
                for (k, &off) in taps.iter().enumerate() {
                    c[k][l] = self.voxels[base[l] + off];
                }
            }
            for l in 0..GROUP {
                let x00 = c[0][l] + (c[1][l] - c[0][l]) * fx[l];
                let x10 = c[2][l] + (c[3][l] - c[2][l]) * fx[l];
                let x01 = c[4][l] + (c[5][l] - c[4][l]) * fx[l];
                let x11 = c[6][l] + (c[7][l] - c[6][l]) * fx[l];
                let y0 = x00 + (x10 - x00) * fy;
                let y1 = x01 + (x11 - x01) * fy;
                let s = y0 + (y1 - y0) * fz;
                let alpha = s * ALPHA_SCALE;
                let w = 1.0 - opacity[l];
                let live = opacity[l] < TERMINATE;
                color[l] = select_f32(live, color[l] + w * (alpha * s), color[l]);
                opacity[l] = select_f32(live, opacity[l] + w * alpha, opacity[l]);
            }
            tf += 1.0;
        }
        out.copy_from_slice(&color);
    }

    /// Low-effort endpoint: `GROUP` adjacent rays marched in lockstep, so
    /// the compiler vectorizes the per-step coordinate, lerp and
    /// compositing math across rays, plus row parallelism.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let d = self.dim;
        let mut out = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut out, d, |py, row| {
            isa::with_active_features(
                #[inline(always)]
                |_| {
                    let mut groups = row.chunks_exact_mut(GROUP);
                    for (g, out) in (&mut groups).enumerate() {
                        self.trace_group(g * GROUP, py, out);
                    }
                    let grouped = d - groups.into_remainder().len();
                    for (px, o) in row.iter_mut().enumerate().skip(grouped) {
                        *o = self.trace(px, py);
                    }
                },
            );
        });
        out
    }

    /// Traces a packet of horizontally adjacent rays — one per lane — with
    /// masked compositing and shared early termination. No `mul_add`: the
    /// arithmetic must stay bit-identical to [`Self::trace`] so every
    /// backend takes the same termination decisions.
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn trace_packet<I: Isa>(&self, px: usize, py: usize) -> I::F32 {
        let splat = I::F32::splat;
        let d = self.dim;
        let dim_i = I::I32::splat(d as i32);
        let one_i = I::I32::splat(1);
        let steps = d - 1;
        let x0 = splat(px as f32 + 0.5) + lane_ramp::<I>();
        let y0 = splat(py as f32 + 0.5);
        let max = splat((d - 2) as f32);
        let zero = I::F32::zero();
        let one = splat(1.0);
        let mut color = I::F32::zero();
        let mut opacity = I::F32::zero();
        let terminate = splat(TERMINATE);
        for t in 0..steps {
            let active = opacity.simd_lt(terminate);
            if !active.any() {
                break;
            }
            let tf = splat(t as f32);
            let cx = (x0 + tf * splat(DIR_X)).min(max).max(zero);
            let cy = (y0 + tf * splat(DIR_Y)).min(max).max(zero);
            let cz = splat(0.5 + t as f32).min(max).max(zero);
            let ix = cx.floor();
            let iy = cy.floor();
            let iz = cz.floor();
            let fx = cx - ix;
            let fy = cy - iy;
            let fz = cz - iz;
            // Flattened base index (z*d + y)*d + x, gathered 8 times.
            let base = (iz.to_i32_trunc() * dim_i + iy.to_i32_trunc()) * dim_i + ix.to_i32_trunc();
            let row = dim_i;
            let plane = dim_i * dim_i;
            let g = |idx: I::I32| I::F32::gather(&self.voxels, idx);
            let c000 = g(base);
            let c100 = g(base + one_i);
            let c010 = g(base + row);
            let c110 = g(base + row + one_i);
            let c001 = g(base + plane);
            let c101 = g(base + plane + one_i);
            let c011 = g(base + plane + row);
            let c111 = g(base + plane + row + one_i);
            let x00 = c000 + (c100 - c000) * fx;
            let x10 = c010 + (c110 - c010) * fx;
            let x01 = c001 + (c101 - c001) * fx;
            let x11 = c011 + (c111 - c011) * fx;
            let yy0 = x00 + (x10 - x00) * fy;
            let yy1 = x01 + (x11 - x01) * fy;
            let s = yy0 + (yy1 - yy0) * fz;
            let alpha = s * splat(ALPHA_SCALE);
            let w = one - opacity;
            let dc = w * (alpha * s);
            let da = w * alpha;
            color = I::F32::select(active, color + dc, color);
            opacity = I::F32::select(active, opacity + da, opacity);
        }
        color
    }

    /// Ninja tier: vector-width ray packets with masked compositing and
    /// gathered trilinear sampling, row-parallel.
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
        let d = self.dim;
        let mut out = vec![0.0f32; d * d];
        par_chunks_mut(pool, &mut out, d, |py, row| {
            dispatch_on(
                kind,
                RenderRow {
                    kernel: self,
                    py,
                    row,
                },
            );
        });
        out
    }
}

/// One image row of the ninja rung: whole ray packets, then the
/// sub-packet remainder through the scalar march.
struct RenderRow<'a> {
    kernel: &'a VolumeRender,
    py: usize,
    row: &'a mut [f32],
}

impl IsaOp for RenderRow<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (k, py, row) = (self.kernel, self.py, self.row);
        let packed = k.dim / lanes * lanes;
        for px in (0..packed).step_by(lanes) {
            k.trace_packet::<I>(px, py).store(&mut row[px..]);
        }
        for (px, o) in row.iter_mut().enumerate().skip(packed) {
            *o = k.trace(px, py);
        }
    }
}

fn run(k: &VolumeRender, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &VolumeRender) -> Work {
    let d = k.dim as f64;
    // ~60% of the maximum march length survives early termination.
    let avg_steps = 0.6 * (d - 1.0);
    Work {
        flops: d * d * avg_steps * 30.0,
        bytes: d * d * avg_steps * 32.0,
        elems: (k.dim * k.dim) as u64,
    }
}

/// Suite entry for the volume-rendering kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "volumerender",
        description: "ray-cast volume rendering with early termination (branchy, gather heavy)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "serial scalar ray march",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 5,
                what_changed: "parallel_for over image rows",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 2,
                what_changed: "loop restructure; gathers + early exit still block the compiler",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 49,
                what_changed: "16-ray lockstep groups vectorized in the ISA frame + threads",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 67,
                what_changed: "vector-width ray packets, masked compositing, manual gathers",
            },
        ],
        character: Characterization {
            flops_per_elem: 30.0 * 150.0,
            bytes_per_elem: 48.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.7,
            parallel_frac: 1.0,
            gather_per_elem: 8.0 * 150.0,
            algorithmic_factor: 1.15,
            simd_efficiency: 0.6, // ray divergence
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: VolumeRender::generate(size, seed),
                name: "volumerender",
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
    fn empty_volume_renders_black() {
        let mut k = VolumeRender::generate(ProblemSize::Test, 1);
        k.voxels.iter_mut().for_each(|v| *v = 0.0);
        let out = k.run_naive();
        assert!(out.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn dense_volume_saturates_and_terminates() {
        let mut k = VolumeRender::generate(ProblemSize::Test, 2);
        k.voxels.iter_mut().for_each(|v| *v = 4.0);
        let out = k.run_naive();
        // Density 4 gives alpha 0.32 per step and composites to
        // `4 * opacity`, which reaches `TERMINATE` after 11 of the 31
        // steps. A ray that stops there read at most one step past
        // `TERMINATE` (about 3.94); one that marched on would read about
        // 4.0.
        let one_step_past = TERMINATE + 4.0 * ALPHA_SCALE * (1.0 - TERMINATE);
        for &c in out.iter() {
            assert!(
                c >= 4.0 * TERMINATE - 1e-4 && c <= 4.0 * one_step_past + 1e-4,
                "dense ray did not stop at TERMINATE: {c}"
            );
        }
    }

    #[test]
    fn sample_at_grid_points_is_exact() {
        let k = VolumeRender::generate(ProblemSize::Test, 3);
        for (x, y, z) in [(0usize, 0usize, 0usize), (5, 7, 9), (30, 30, 30)] {
            let got = k.sample(x as f32, y as f32, z as f32);
            assert!((got - k.voxel(x, y, z)).abs() < 1e-6);
        }
    }

    #[test]
    fn sample_interpolates_midpoint() {
        let mut k = VolumeRender::generate(ProblemSize::Test, 4);
        k.voxels.iter_mut().for_each(|v| *v = 0.0);
        let d = k.dim;
        // Corners of one cell set to 1 -> center of that cell samples 1.
        for (x, y, z) in [
            (2, 2, 2),
            (3, 2, 2),
            (2, 3, 2),
            (3, 3, 2),
            (2, 2, 3),
            (3, 2, 3),
            (2, 3, 3),
            (3, 3, 3),
        ] {
            k.voxels[(z * d + y) * d + x] = 1.0;
        }
        assert!((k.sample(2.5, 2.5, 2.5) - 1.0).abs() < 1e-6);
        assert!((k.sample(2.0, 2.5, 2.5) - 1.0).abs() < 1e-6);
        assert!((k.sample(1.5, 2.5, 2.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = VolumeRender::generate(ProblemSize::Test, 5);
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

    /// Image widths at every residue of the widest lane count: each row
    /// ends in a scalar remainder of every length under each backend.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            12..12 + ninja_simd::isa::MAX_ISA_F32_LANES,
            1e-4,
            |dim| VolumeRender::with_dim(dim, 7),
            VolumeRender::run_naive,
            VolumeRender::run_ninja_on,
        );
    }

    fn assert_algorithmic_matches_naive(k: &VolumeRender, pool: &ThreadPool, what: &str) {
        let reference = k.run_naive();
        let out = k.run_algorithmic(pool);
        assert_eq!(out.len(), reference.len(), "{what}");
        for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
            let err = (a - b).abs() / b.abs().max(1.0);
            assert!(err < 1e-4, "{what} [{i}]: {a} vs {b}");
        }
    }

    /// Image widths from under one group to past two: zero, one and two
    /// lockstep groups per row, each followed by `trace` remainders of
    /// many lengths, including none.
    #[test]
    fn grouped_rung_conforms_at_every_group_residue() {
        let pool = ThreadPool::with_threads(2);
        for dim in 12..=12 + 2 * GROUP + 1 {
            let k = VolumeRender::with_dim(dim, 11);
            assert_algorithmic_matches_naive(&k, &pool, &format!("dim {dim}"));
        }
    }

    /// Rays that terminate inside the volume: all lanes of a group at
    /// once (dense), never (empty), and at depths that differ between
    /// neighbouring lanes (mixed). Densities go above 1 because
    /// `alpha = ALPHA_SCALE * s`: at density 1 a ray needs 47 steps to
    /// reach `TERMINATE`, more than these volumes are deep. Every rung
    /// that marches rays side by side runs: the lockstep group and the
    /// ninja packet on every backend.
    #[test]
    fn lockstep_rungs_conform_where_rays_terminate() {
        let pool = ThreadPool::with_threads(2);
        let dim = 2 * GROUP + 5;
        let volumes = [
            ("dense", (|_| 4.0) as fn(usize) -> f32),
            ("empty", |_| 0.0),
            ("mixed depth", |x| 1.0 + (x % 7) as f32),
        ];
        for (what, density) in volumes {
            let make = |dim: usize| VolumeRender {
                dim,
                voxels: (0..dim * dim * dim).map(|i| density(i % dim)).collect(),
            };
            assert_algorithmic_matches_naive(&make(dim), &pool, what);
            crate::framework::assert_conforms_on_every_backend(
                [dim],
                1e-4,
                make,
                VolumeRender::run_naive,
                VolumeRender::run_ninja_on,
            );
        }
        // Constant density 4 composites to `4 * opacity`: every ray
        // stopped at or past `TERMINATE`.
        let dense = VolumeRender {
            dim,
            voxels: vec![4.0; dim * dim * dim],
        };
        for c in dense.run_naive() {
            assert!(
                c >= 4.0 * TERMINATE - 1e-4,
                "dense ray did not terminate: {c}"
            );
        }
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
    fn output_is_bounded_by_physical_limits() {
        let k = VolumeRender::generate(ProblemSize::Test, 9);
        let img = k.run_ninja(&ThreadPool::with_threads(1));
        for &c in img.iter() {
            // Color accumulates alpha-weighted densities in [0,1); total
            // opacity weight is bounded by 1.
            assert!((0.0..=1.01).contains(&c), "color {c}");
        }
    }

    #[test]
    fn denser_volume_never_renders_darker_uniformly() {
        // A volume of all 0.5 vs all 0.9: the brighter volume's pixels are
        // all at least as bright (monotone transfer function, no shadows).
        let mut lo = VolumeRender::generate(ProblemSize::Test, 10);
        lo.voxels.iter_mut().for_each(|v| *v = 0.5);
        let mut hi = VolumeRender::generate(ProblemSize::Test, 10);
        hi.voxels.iter_mut().for_each(|v| *v = 0.9);
        let a = lo.run_naive();
        let b = hi.run_naive();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(y >= x, "{y} < {x}");
        }
    }
}
