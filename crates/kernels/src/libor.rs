//! Libor: Monte-Carlo LIBOR market-model pricing (Giles' benchmark).
//!
//! Each path evolves a curve of forward rates through `NMAT` exercise dates
//! under log-normal dynamics (one `exp` per rate per step), then discounts
//! a caplet portfolio along the evolved curve. Thousands of independent
//! paths make this the paper's Monte-Carlo representative.
//!
//! Optimization story:
//! * **naive** — one path at a time, `f64`, libm `exp`;
//! * **algorithmic change** — lay the computation out *across paths*
//!   (path-SoA): a group of paths advances in lock-step so the inner loops
//!   become lane-parallel straight-line `f32` arithmetic with inlined
//!   polynomial `exp`;
//! * **Ninja** — explicit SIMD across paths, one path per lane, with the
//!   vector `exp`.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use crate::scalar_math::{exp_f64, exp_poly};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{
    self, dispatch_on, math as vmath, Frame, Isa, IsaKind, IsaOp, SimdF32, MAX_ISA_F32_LANES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of forward rates on the curve.
pub const N_RATES: usize = 40;
/// Number of exercise dates each path steps through.
pub const NMAT: usize = 20;
/// Accrual period (years).
const DELTA: f32 = 0.25;
/// Caplet strike.
const STRIKE: f32 = 0.05;
/// Path-group width for the lane-parallel tiers.
const GROUP: usize = 8;
/// Paths per lockstep group of the served `f64` reference,
/// [`price_paths_f64`]: four AVX2 vectors of `f64` per row (DESIGN.md,
/// "Serving layer", has the group sizes it beat).
const F64_GROUP: usize = 16;

/// A LIBOR Monte-Carlo pricing instance.
pub struct Libor {
    paths: usize,
    init_rates: [f32; N_RATES],
    vols: [f32; NMAT],
    /// Standard normals, path-major: `z[p * NMAT + n]`.
    z: Vec<f32>,
    /// The same normals, step-major: `zt[n * paths + p]` (the path-SoA
    /// layout the restructured tiers use).
    zt: Vec<f32>,
}

impl Libor {
    /// Path count per preset.
    pub fn paths_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 256,
            ProblemSize::Quick => 16_384,
            ProblemSize::Paper => 65_536,
        }
    }

    /// Generates a deterministic instance (curve, vols, Gaussian draws).
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        let paths = Self::paths_for(size);
        let mut rng = SmallRng::seed_from_u64(seed);
        let init_rates = std::array::from_fn(|i| 0.04 + 0.005 * (i % 5) as f32);
        let vols = std::array::from_fn(|i| 0.15 + 0.01 * (i % 4) as f32);
        // Box-Muller standard normals.
        let mut z = Vec::with_capacity(paths * NMAT);
        while z.len() < paths * NMAT {
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f32::consts::PI * u2).sin_cos();
            z.push(r * c);
            if z.len() < paths * NMAT {
                z.push(r * s);
            }
        }
        let mut zt = vec![0.0f32; paths * NMAT];
        for p in 0..paths {
            for n in 0..NMAT {
                zt[n * paths + p] = z[p * NMAT + n];
            }
        }
        Self {
            paths,
            init_rates,
            vols,
            z,
            zt,
        }
    }

    /// Number of Monte-Carlo paths.
    pub fn paths(&self) -> usize {
        self.paths
    }

    /// Evolves and prices one path in `f64` (the naive arithmetic).
    // ninja-lint: effort(naive)
    fn path_value_f64(&self, p: usize) -> f32 {
        let delta = DELTA as f64;
        let mut l = [0.0f64; N_RATES];
        for (li, &r0) in l.iter_mut().zip(self.init_rates.iter()) {
            *li = r0 as f64;
        }
        for n in 0..NMAT {
            let sqez = delta.sqrt() * self.z[p * NMAT + n] as f64;
            let mut v = 0.0f64;
            for i in n + 1..N_RATES {
                let lam = self.vols[(i - n - 1).min(NMAT - 1)] as f64;
                let con1 = delta * lam;
                v += con1 * l[i] / (1.0 + delta * l[i]);
                let vrat = (con1 * v + lam * (sqez - 0.5 * con1)).exp();
                l[i] *= vrat;
            }
        }
        // Caplet portfolio discounted along the evolved curve.
        let mut b = 1.0f64;
        let mut acc = 0.0f64;
        for li in l.iter().skip(NMAT) {
            b /= 1.0 + delta * li;
            acc += b * delta * (li - STRIKE as f64).max(0.0);
        }
        (acc * 100.0) as f32
    }

    /// Naive tier: serial, one `f64` path at a time.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        (0..self.paths).map(|p| self.path_value_f64(p)).collect()
    }

    /// Parallel tier: the naive path loop behind a `parallel_for`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.paths];
        par_chunks_mut(pool, &mut out, 512, |chunk_idx, chunk| {
            let base = chunk_idx * 512;
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = self.path_value_f64(base + j);
            }
        });
        out
    }

    /// Advances a group of exactly `GROUP` paths in lock-step with
    /// constant-trip-count `f32` lane loops — the auto-vectorizable
    /// path-SoA form (a runtime trip count would block unrolling).
    /// `inline(always)` so it compiles inside its callers' feature frames
    /// (see `isa::with_active_features`); `f` is that frame, so `1 + δ·l`,
    /// the `exp` argument and the discount fuse where it has FMA.
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn group_values_f32(&self, f: Frame, group_base: usize, out: &mut [f32]) {
        assert_eq!(out.len(), GROUP, "group_values_f32 needs a full group");
        let mut l = [[0.0f32; GROUP]; N_RATES];
        for (i, row) in l.iter_mut().enumerate() {
            row.fill(self.init_rates[i]);
        }
        let sqrt_delta = DELTA.sqrt();
        let mut sqez = [0.0f32; GROUP];
        let mut v = [0.0f32; GROUP];
        for n in 0..NMAT {
            let zrow = &self.zt[n * self.paths + group_base..n * self.paths + group_base + GROUP];
            for lane in 0..GROUP {
                sqez[lane] = sqrt_delta * zrow[lane];
            }
            v.fill(0.0);
            for i in n + 1..N_RATES {
                let lam = self.vols[(i - n - 1).min(NMAT - 1)];
                let con1 = DELTA * lam;
                let li = &mut l[i];
                for lane in 0..GROUP {
                    v[lane] += con1 * li[lane] / f.mul_add(DELTA, li[lane], 1.0);
                    let arg = f.mul_add(con1, v[lane], lam * (sqez[lane] - 0.5 * con1));
                    li[lane] *= exp_poly(f, arg);
                }
            }
        }
        let mut b = [1.0f32; GROUP];
        let mut acc = [0.0f32; GROUP];
        for row in l.iter().skip(NMAT) {
            for lane in 0..GROUP {
                b[lane] /= f.mul_add(DELTA, row[lane], 1.0);
                acc[lane] += b[lane] * DELTA * (row[lane] - STRIKE).max(0.0);
            }
        }
        for lane in 0..GROUP {
            out[lane] = acc[lane] * 100.0;
        }
    }

    /// Compiler tier: serial path-SoA groups, inlined polynomial `exp`.
    ///
    /// # Panics
    ///
    /// Panics if the path count is not a multiple of the group width (all
    /// size presets are).
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256, fma, sconv=0)
    pub fn run_simd(&self) -> Vec<f32> {
        assert_eq!(
            self.paths % GROUP,
            0,
            "path count must be a multiple of {GROUP}"
        );
        let mut out = vec![0.0f32; self.paths];
        isa::with_active_features(
            #[inline(always)]
            |f| {
                for (g, chunk) in out.chunks_mut(GROUP).enumerate() {
                    self.group_values_f32(f, g * GROUP, chunk);
                }
            },
        );
        out
    }

    /// Low-effort endpoint: path-SoA groups in parallel.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256, fma, sconv=0)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.paths];
        par_chunks_mut(pool, &mut out, GROUP, |g, chunk| {
            isa::with_active_features(
                #[inline(always)]
                |f| self.group_values_f32(f, g * GROUP, chunk),
            );
        });
        out
    }

    /// Ninja tier: one vector group of paths per instruction with the
    /// width-generic vector `exp` — 4 paths per step under SSE2, 8
    /// under AVX2 — parallel over path blocks.
    ///
    /// # Panics
    ///
    /// Panics if the path count is not a multiple of the widest lane
    /// count (all presets are).
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256, fma)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    /// The ninja rung on a chosen backend. Dispatch happens *inside* each
    /// worker closure because `#[target_feature]` trampolines do not
    /// cross thread boundaries (see `ninja_simd::isa::dispatch`).
    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        assert_eq!(
            self.paths % MAX_ISA_F32_LANES,
            0,
            "path count must be a multiple of {MAX_ISA_F32_LANES}"
        );
        let mut out = vec![0.0f32; self.paths];
        // A block is many groups under every backend; it must stay a
        // multiple of the widest lane count so each dispatched chunk
        // divides evenly into groups.
        const BLOCK: usize = 8 * MAX_ISA_F32_LANES;
        par_chunks_mut(pool, &mut out, BLOCK, |b, chunk| {
            dispatch_on(
                kind,
                PathBlock {
                    kernel: self,
                    base: b * BLOCK,
                    out: chunk,
                },
            );
        });
        out
    }
}

/// One block of Monte-Carlo paths priced group-by-group under whichever
/// ISA backend the dispatcher selects.
struct PathBlock<'a> {
    kernel: &'a Libor,
    /// First path index covered by `out`.
    base: usize,
    out: &'a mut [f32],
}

impl IsaOp for PathBlock<'_> {
    type Output = ();
    #[inline(always)]
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        debug_assert_eq!(self.out.len() % lanes, 0);
        let k = self.kernel;
        for (g, chunk) in self.out.chunks_mut(lanes).enumerate() {
            let base = self.base + g * lanes;
            // The step-major draws for this group start at path `base`;
            // step `n` of lane `j` sits `n * paths + j` further on.
            price_paths_group::<I>(&k.init_rates, &k.vols, &k.zt[base..], k.paths, chunk);
        }
    }
}

/// Advances one vector group of paths in lock-step with explicit SIMD
/// and the vector `exp`, written once against the width-generic [`Isa`]
/// trait — the ninja rung's arithmetic at any lane width. `zs` holds the
/// group's standard normals with draw `n` of lane `j` at
/// `zs[n * stride + j]`, a full vector per step; `out` receives one price
/// per lane and may be shorter than a vector (a trailing partial group:
/// the surplus lanes are computed and dropped).
#[inline(always)]
// ninja-lint: effort(ninja)
fn price_paths_group<I: Isa>(
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &[f32],
    stride: usize,
    out: &mut [f32],
) {
    debug_assert!(out.len() <= <I::F32 as SimdF32>::LANES);
    let mut l: [I::F32; N_RATES] = std::array::from_fn(|i| I::F32::splat(init_rates[i]));
    let sqrt_delta = I::F32::splat(DELTA.sqrt());
    let delta = I::F32::splat(DELTA);
    let one = I::F32::splat(1.0);
    let half = I::F32::splat(0.5);
    for n in 0..NMAT {
        let sqez = sqrt_delta * I::F32::load(&zs[n * stride..]);
        let mut v = I::F32::zero();
        for i in n + 1..N_RATES {
            let lam = I::F32::splat(vols[(i - n - 1).min(NMAT - 1)]);
            let con1 = delta * lam;
            v = v + con1 * l[i] / (one + delta * l[i]);
            let vrat = vmath::exp::<I>(con1 * v + lam * (sqez - half * con1));
            l[i] = l[i] * vrat;
        }
    }
    let mut b = one;
    let mut acc = I::F32::zero();
    let strike = I::F32::splat(STRIKE);
    for li in l.iter().skip(NMAT) {
        b = b / (one + delta * *li);
        acc = acc + b * delta * (*li - strike).max(I::F32::zero());
    }
    (acc * I::F32::splat(100.0)).store_partial(out);
}

// --- Serving surface -----------------------------------------------------
//
// Free path-pricing entry points for `ninja-serve`: a request carries one
// path's `NMAT` Gaussian draws and is priced against a server-resident
// curve. Each function is the math of one degradation-ladder rung.

/// The deterministic initial forward curve generated instances use.
pub fn default_init_rates() -> [f32; N_RATES] {
    std::array::from_fn(|i| 0.04 + 0.005 * (i % 5) as f32)
}

/// The deterministic caplet volatility ladder generated instances use.
pub fn default_vols() -> [f32; NMAT] {
    std::array::from_fn(|i| 0.15 + 0.01 * (i % 4) as f32)
}

/// Prices one path from its normal draws in `f64` with libm `exp` — the
/// serving layer's scalar floor.
pub fn price_path_f64(init_rates: &[f32; N_RATES], vols: &[f32; NMAT], z: &[f32; NMAT]) -> f32 {
    let delta = DELTA as f64;
    let mut l = [0.0f64; N_RATES];
    for (li, &r0) in l.iter_mut().zip(init_rates.iter()) {
        *li = r0 as f64;
    }
    for (n, &zn) in z.iter().enumerate() {
        let sqez = delta.sqrt() * zn as f64;
        let mut v = 0.0f64;
        for i in n + 1..N_RATES {
            let lam = vols[(i - n - 1).min(NMAT - 1)] as f64;
            let con1 = delta * lam;
            v += con1 * l[i] / (1.0 + delta * l[i]);
            let vrat = (con1 * v + lam * (sqez - 0.5 * con1)).exp();
            l[i] *= vrat;
        }
    }
    let mut b = 1.0f64;
    let mut acc = 0.0f64;
    for li in l.iter().skip(NMAT) {
        b /= 1.0 + delta * li;
        acc += b * delta * (li - STRIKE as f64).max(0.0);
    }
    (acc * 100.0) as f32
}

/// Prices every path in `zs` with [`price_path_f64`]'s `f64` arithmetic,
/// `F64_GROUP` paths in lockstep — the serving layer's batch reference.
///
/// Each lane runs `price_path_f64`'s operations in the same order, with
/// [`exp_f64`] (within 1 ULP of libm's `exp`, and not a call) in place of
/// `f64::exp`, so a group compiles to packed `f64` inside the active
/// backend's feature frame. Leftover paths take one group each of 8, 4
/// and 2 paths as they fill one, so no lane is padding; a last lone path,
/// and so a one-path batch, takes `price_path_f64` itself. `out` receives
/// one value per path.
///
/// # Panics
///
/// Panics if `out.len() != zs.len()`.
pub fn price_paths_f64(
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &[[f32; NMAT]],
    out: &mut [f32],
) {
    price_paths_f64_on(isa::active(), init_rates, vols, zs, out);
}

/// [`price_paths_f64`] inside a chosen backend's feature frame.
fn price_paths_f64_on(
    kind: IsaKind,
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &[[f32; NMAT]],
    out: &mut [f32],
) {
    assert_eq!(zs.len(), out.len(), "one value per path");
    isa::with_features_on(
        kind,
        #[inline(always)]
        |_| {
            let (zs, out) = price_groups_f64::<F64_GROUP>(init_rates, vols, zs, out);
            let (zs, out) = price_groups_f64::<8>(init_rates, vols, zs, out);
            let (zs, out) = price_groups_f64::<4>(init_rates, vols, zs, out);
            let (zs, out) = price_groups_f64::<2>(init_rates, vols, zs, out);
            if let (Some(z), Some(o)) = (zs.first(), out.first_mut()) {
                *o = price_path_f64(init_rates, vols, z);
            }
        },
    );
}

/// Prices the whole groups of `G` paths at the front of `zs` into `out`
/// and returns the paths left over.
#[inline(always)]
fn price_groups_f64<'a, 'b, const G: usize>(
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &'a [[f32; NMAT]],
    out: &'b mut [f32],
) -> (&'a [[f32; NMAT]], &'b mut [f32]) {
    let whole = zs.len() / G * G;
    let (z_groups, z_rest) = zs.split_at(whole);
    let (o_groups, o_rest) = out.split_at_mut(whole);
    for (z, o) in z_groups.chunks_exact(G).zip(o_groups.chunks_exact_mut(G)) {
        price_group_f64::<G>(init_rates, vols, z, o);
    }
    (z_rest, o_rest)
}

/// [`price_path_f64`] on `G` paths in lockstep: `zs` and `out` hold
/// exactly `G` paths, and lane `j` of every `[f64; G]` row is path `j`.
#[inline(always)]
fn price_group_f64<const G: usize>(
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &[[f32; NMAT]],
    out: &mut [f32],
) {
    let delta = DELTA as f64;
    let mut l = [[0.0f64; G]; N_RATES];
    for (row, &r0) in l.iter_mut().zip(init_rates.iter()) {
        *row = [r0 as f64; G];
    }
    for n in 0..NMAT {
        let sqez: [f64; G] = std::array::from_fn(|j| delta.sqrt() * zs[j][n] as f64);
        let mut v = [0.0f64; G];
        for i in n + 1..N_RATES {
            let lam = vols[(i - n - 1).min(NMAT - 1)] as f64;
            let con1 = delta * lam;
            let li = &mut l[i];
            for j in 0..G {
                v[j] += con1 * li[j] / (1.0 + delta * li[j]);
                let vrat = exp_f64(con1 * v[j] + lam * (sqez[j] - 0.5 * con1));
                li[j] *= vrat;
            }
        }
    }
    let mut b = [1.0f64; G];
    let mut acc = [0.0f64; G];
    for row in l.iter().skip(NMAT) {
        for j in 0..G {
            b[j] /= 1.0 + delta * row[j];
            acc[j] += b[j] * delta * (row[j] - STRIKE as f64).max(0.0);
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = (a * 100.0) as f32;
    }
}

/// Prices one path in `f32` with the inlined polynomial `exp` — the
/// restructured (SIMD) rung's arithmetic, unfused: it runs in no feature
/// frame, so its `exp_poly` takes `Frame::default()`.
pub fn price_path_poly(init_rates: &[f32; N_RATES], vols: &[f32; NMAT], z: &[f32; NMAT]) -> f32 {
    let mut l = *init_rates;
    let sqrt_delta = DELTA.sqrt();
    for (n, &zn) in z.iter().enumerate() {
        let sqez = sqrt_delta * zn;
        let mut v = 0.0f32;
        for i in n + 1..N_RATES {
            let lam = vols[(i - n - 1).min(NMAT - 1)];
            let con1 = DELTA * lam;
            v += con1 * l[i] / (1.0 + DELTA * l[i]);
            let vrat = exp_poly(Frame::default(), con1 * v + lam * (sqez - 0.5 * con1));
            l[i] *= vrat;
        }
    }
    let mut b = 1.0f32;
    let mut acc = 0.0f32;
    for li in l.iter().skip(NMAT) {
        b /= 1.0 + DELTA * li;
        acc += b * DELTA * (li - STRIKE).max(0.0);
    }
    acc * 100.0
}

/// Prices every path in `zs` (one array of `NMAT` draws each) with
/// explicit SIMD and the vector `exp` on the active ISA backend — the
/// ninja rung's arithmetic, one vector group of paths in lock-step per
/// pass. `out` receives one value per path.
///
/// # Panics
///
/// Panics if `out.len() != zs.len()`.
pub fn price_paths_simd(
    init_rates: &[f32; N_RATES],
    vols: &[f32; NMAT],
    zs: &[[f32; NMAT]],
    out: &mut [f32],
) {
    assert_eq!(zs.len(), out.len(), "one value per path");
    isa::dispatch(PathBatch {
        init_rates,
        vols,
        zs,
        out,
    });
}

/// One [`price_paths_simd`] call, under whichever ISA backend is
/// dispatched.
struct PathBatch<'a> {
    init_rates: &'a [f32; N_RATES],
    vols: &'a [f32; NMAT],
    zs: &'a [[f32; NMAT]],
    out: &'a mut [f32],
}

impl IsaOp for PathBatch<'_> {
    type Output = ();
    #[inline(always)]
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        // One group's draws transposed to lane-major order: draw `n` of
        // lane `j` at `n * lanes + j`. Lanes past a trailing partial
        // group keep the previous group's draws; their values are not
        // stored.
        let mut draws = [0.0f32; MAX_ISA_F32_LANES * NMAT];
        for (group, out) in self.zs.chunks(lanes).zip(self.out.chunks_mut(lanes)) {
            for (lane, z) in group.iter().enumerate() {
                for (n, &zn) in z.iter().enumerate() {
                    draws[n * lanes + lane] = zn;
                }
            }
            price_paths_group::<I>(self.init_rates, self.vols, &draws, lanes, out);
        }
    }
}

fn run(k: &Libor, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &Libor) -> Work {
    let p = k.paths as f64;
    // Triangular evolution loop: ~NMAT * (N - NMAT/2) rate updates.
    let updates = (NMAT * N_RATES - NMAT * NMAT / 2) as f64;
    Work {
        flops: p * updates * 40.0,
        bytes: p * (NMAT as f64) * 4.0,
        elems: k.paths as u64,
    }
}

/// Suite entry for the Libor kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "libor",
        description: "LIBOR market-model Monte Carlo (compute bound, exp heavy)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "one f64 path at a time, libm exp",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 8,
                what_changed: "parallel_for over paths",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 38,
                what_changed: "path-SoA groups, f32 polynomial exp",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 33,
                what_changed: "path-SoA groups + parallel_for",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 39,
                what_changed: "one vector group of paths per step (8 under AVX2), vector exp",
            },
        ],
        character: Characterization {
            flops_per_elem: 28_000.0,
            bytes_per_elem: 80.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.95,
            simd_friendly_frac: 0.95,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.5, // f64 libm -> f32 polynomial scalar win
            simd_efficiency: 0.95,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: Libor::generate(size, seed),
                name: "libor",
                tolerance: 1e-2,
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
    fn zero_vol_path_is_deterministic() {
        let mut k = Libor::generate(ProblemSize::Test, 1);
        k.vols = [0.0; NMAT];
        let out = k.run_naive();
        // With zero volatility every path prices identically.
        for &v in out.iter() {
            assert!((v - out[0]).abs() < 1e-6);
        }
        // And the price is the deterministic caplet strip value (> 0 since
        // the initial curve is above part of the strike range).
        assert!(out[0] > 0.0);
    }

    #[test]
    fn transpose_matches_original_draws() {
        let k = Libor::generate(ProblemSize::Test, 2);
        for p in (0..k.paths).step_by(37) {
            for n in 0..NMAT {
                assert_eq!(k.z[p * NMAT + n], k.zt[n * k.paths + p]);
            }
        }
    }

    #[test]
    fn normals_have_sane_moments() {
        let k = Libor::generate(ProblemSize::Quick, 3);
        let n = k.z.len() as f64;
        let mean: f64 = k.z.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = k.z.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = Libor::generate(ProblemSize::Test, 4);
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
                assert!(err < 1e-2, "{label}[{i}]: {a} vs {b}");
            }
        }
    }

    /// The instance rung under every backend. Path counts are multiples of
    /// the widest lane count by contract; the serving entry's test below
    /// covers the other residues.
    #[test]
    fn ninja_rung_conforms_on_every_backend() {
        crate::framework::assert_conforms_on_every_backend(
            [0],
            1e-2,
            |_| Libor::generate(ProblemSize::Test, 4),
            Libor::run_naive,
            Libor::run_ninja_on,
        );
    }

    /// The compiler rungs' loop body inside each backend's feature frame:
    /// the same scalar source at 1x, 128-bit and 256-bit code generation.
    #[test]
    fn compiler_rung_body_conforms_on_every_backend() {
        crate::framework::assert_conforms_on_every_backend(
            [0],
            1e-2,
            |_| Libor::generate(ProblemSize::Test, 4),
            Libor::run_naive,
            |k, kind, _| {
                let mut out = vec![0.0f32; k.paths];
                for (g, chunk) in out.chunks_mut(GROUP).enumerate() {
                    isa::with_features_on(
                        kind,
                        #[inline(always)]
                        |f| k.group_values_f32(f, g * GROUP, chunk),
                    );
                }
                out
            },
        );
    }

    #[test]
    fn monte_carlo_mean_is_stable_across_variants() {
        let k = Libor::generate(ProblemSize::Test, 5);
        let pool = ThreadPool::with_threads(1);
        let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let m_naive = mean(&k.run_naive());
        let m_ninja = mean(&k.run_ninja(&pool));
        assert!(
            (m_naive - m_ninja).abs() / m_naive.abs().max(1e-9) < 1e-3,
            "{m_naive} vs {m_ninja}"
        );
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
    fn serving_surface_matches_instance_paths() {
        let k = Libor::generate(ProblemSize::Test, 8);
        // The generated instance uses exactly the default curve.
        assert_eq!(k.init_rates, default_init_rates());
        assert_eq!(k.vols, default_vols());
        let rates = default_init_rates();
        let vols = default_vols();
        let reference = k.run_naive();
        for p in (0..k.paths()).step_by(7) {
            let z: [f32; NMAT] = k.z[p * NMAT..(p + 1) * NMAT].try_into().unwrap();
            // Scalar floor is bit-identical to the naive instance math.
            assert_eq!(price_path_f64(&rates, &vols, &z), reference[p]);
            let poly = price_path_poly(&rates, &vols, &z);
            let err = (poly - reference[p]).abs() / reference[p].abs().max(1.0);
            assert!(err < 1e-2, "poly path {p}: {poly} vs {}", reference[p]);
        }
    }

    /// The SIMD serving entry under every backend, at path counts from one
    /// up through every residue of the widest lane count: trailing partial
    /// groups at every fill level, with and without whole groups first.
    #[test]
    fn serving_batch_conforms_on_every_backend_at_every_residue() {
        use ninja_simd::isa::available_kinds;
        let k = Libor::generate(ProblemSize::Test, 8);
        let reference = k.run_naive();
        let zs: Vec<[f32; NMAT]> =
            k.z.chunks_exact(NMAT)
                .map(|z| z.try_into().unwrap())
                .collect();
        for kind in available_kinds() {
            for count in 1..=2 * MAX_ISA_F32_LANES + 1 {
                let mut got = vec![0.0f32; count];
                dispatch_on(
                    kind,
                    PathBatch {
                        init_rates: &k.init_rates,
                        vols: &k.vols,
                        zs: &zs[count..2 * count],
                        out: &mut got,
                    },
                );
                for (p, (&g, &b)) in got.iter().zip(&reference[count..2 * count]).enumerate() {
                    let err = (g - b).abs() / b.abs().max(1.0);
                    assert!(err < 1e-2, "{kind} count {count} path {p}: {g} vs {b}");
                }
            }
        }
    }

    /// The lockstep `f64` reference against the one-path form at every
    /// batch length up to two full groups plus one (every remainder from
    /// each group size of the cascade), on every backend, on the
    /// instance's Box-Muller draws and on uniform draws in ±3. The two
    /// forms differ only in `exp_f64` against libm's `exp`, so nearly
    /// every path is bit-identical and none is more than 1 ULP off; the
    /// backends differ in nothing, so they agree bit for bit.
    #[test]
    fn lockstep_f64_reference_matches_the_one_path_form() {
        use ninja_simd::isa::available_kinds;
        let k = Libor::generate(ProblemSize::Quick, 8);
        let box_muller: Vec<[f32; NMAT]> =
            k.z.chunks_exact(NMAT)
                .map(|z| z.try_into().unwrap())
                .collect();
        let mut rng = SmallRng::seed_from_u64(46);
        let uniform: Vec<[f32; NMAT]> = (0..box_muller.len())
            .map(|_| std::array::from_fn(|_| rng.gen_range(-3.0f32..3.0)))
            .collect();
        for (label, draws) in [("box-muller", &box_muller), ("uniform", &uniform)] {
            // Four disjoint batches of every length: 2,244 paths.
            let (mut start, mut identical) = (0usize, 0usize);
            for len in (0..=2 * F64_GROUP + 1).flat_map(|len| [len; 4]) {
                let zs = &draws[start..start + len];
                start += len;
                let want: Vec<f32> = zs
                    .iter()
                    .map(|z| price_path_f64(&k.init_rates, &k.vols, z))
                    .collect();
                let mut first: Option<Vec<f32>> = None;
                for kind in available_kinds() {
                    let mut got = vec![0.0f32; len];
                    price_paths_f64_on(kind, &k.init_rates, &k.vols, zs, &mut got);
                    for (p, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        let ulps = (g.to_bits() as i32).abs_diff(w.to_bits() as i32);
                        assert!(ulps <= 1, "{label} {kind} len {len} path {p}: {g} vs {w}");
                    }
                    match &first {
                        None => {
                            identical += got.iter().zip(&want).filter(|(g, w)| g == w).count();
                            first = Some(got);
                        }
                        Some(f) => {
                            let same = f.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(same, "{label} {kind} len {len}: backends disagree");
                        }
                    }
                }
            }
            assert!(
                identical * 1000 >= start * 999,
                "{label}: {identical} of {start} paths bit-identical"
            );
        }
    }

    /// A draw that is NaN, infinite or far out in the tail gives the same
    /// class of value (finite, NaN or infinite) from the lockstep
    /// reference as from the one-path form, in a group lane, in each
    /// group size of the cascade and as the lone last path.
    #[test]
    fn lockstep_f64_reference_keeps_the_class_of_extreme_paths() {
        let k = Libor::generate(ProblemSize::Test, 9);
        let class = |v: f32| (v.is_nan(), v.is_infinite());
        for extreme in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 40.0, -40.0] {
            for step in [0, NMAT / 2, NMAT - 1] {
                let mut zs: Vec<[f32; NMAT]> = k.z[..31 * NMAT]
                    .chunks_exact(NMAT)
                    .map(|z| z.try_into().unwrap())
                    .collect();
                // Lanes of the 16-group, the 8-, 4- and 2-groups, and the
                // last path.
                for p in [3, 16, 24, 28, 30] {
                    zs[p][step] = extreme;
                }
                let mut got = vec![0.0f32; zs.len()];
                price_paths_f64(&k.init_rates, &k.vols, &zs, &mut got);
                for (p, (z, &g)) in zs.iter().zip(&got).enumerate() {
                    let want = price_path_f64(&k.init_rates, &k.vols, z);
                    assert_eq!(
                        class(g),
                        class(want),
                        "draw {extreme} at step {step}, path {p}: {g} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_volatility_raises_the_caplet_price() {
        // Positive vega: scaling all vols up raises the Monte-Carlo mean.
        let base = Libor::generate(ProblemSize::Test, 9);
        let mut bumped = Libor::generate(ProblemSize::Test, 9);
        for v in bumped.vols.iter_mut() {
            *v *= 1.5;
        }
        let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let m0 = mean(&base.run_naive());
        let m1 = mean(&bumped.run_naive());
        assert!(m1 > m0, "vega must be positive: {m0} -> {m1}");
    }
}
