//! BlackScholes: European option pricing over a large option batch.
//!
//! The paper's transcendental-heavy financial kernel: for each option,
//! evaluate the closed-form Black-Scholes call and put prices, which costs
//! two `ln`/`exp`/`sqrt` groups and two normal-CDF evaluations per option.
//!
//! Optimization story (paper §4):
//! * the **naive** version prices one array-of-structs option at a time in
//!   `f64`, calling libm — the compiler cannot vectorize across the struct
//!   layout or the opaque math calls;
//! * **algorithmic change**: AoS→SoA plus inlining polynomial math in `f32`
//!   turns the loop into straight-line arithmetic the vectorizer handles
//!   (the paper gets this from `#pragma simd` + SVML);
//! * **Ninja**: explicit SIMD written once against the width-generic
//!   [`Isa`] trait with the vector `exp`/`ln`/CDF from
//!   `ninja-simd::isa::math`, instantiated per backend (SSE2, AVX2,
//!   scalar) by the runtime dispatcher.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::math::{self as vmath, norm_cdf_scalar};
use ninja_simd::isa::{self, dispatch_on, Frame, Isa, IsaKind, IsaOp, SimdF32};
use ninja_simd::AlignedVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Block length of the staged polynomial pricing loops (fits L1).
const POLY_BLOCK: usize = 1024;

/// One option contract in the naive array-of-structs layout.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct OptionContract {
    /// Spot price.
    pub spot: f32,
    /// Strike price.
    pub strike: f32,
    /// Time to maturity in years.
    pub years: f32,
    /// Risk-free rate.
    pub rate: f32,
    /// Volatility.
    pub vol: f32,
}

/// A batch-pricing problem instance (AoS and SoA mirrors of the same book).
pub struct BlackScholes {
    contracts: Vec<OptionContract>,
    // SoA mirror for the vectorized tiers, cache-line aligned.
    spot: AlignedVec<f32>,
    strike: AlignedVec<f32>,
    years: AlignedVec<f32>,
    rate: AlignedVec<f32>,
    vol: AlignedVec<f32>,
}

impl BlackScholes {
    /// Number of options for each size preset.
    pub fn n_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 1 << 10,
            ProblemSize::Quick => 1 << 19,
            ProblemSize::Paper => 1 << 22,
        }
    }

    /// Generates a deterministic random option book.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_len(Self::n_for(size), seed)
    }

    fn with_len(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let contracts: Vec<OptionContract> = (0..n)
            .map(|_| OptionContract {
                spot: rng.gen_range(5.0..120.0),
                strike: rng.gen_range(10.0..100.0),
                years: rng.gen_range(0.1..5.0),
                rate: rng.gen_range(0.01..0.08),
                vol: rng.gen_range(0.05..0.6),
            })
            .collect();
        let mut this = Self {
            spot: AlignedVec::zeroed(n),
            strike: AlignedVec::zeroed(n),
            years: AlignedVec::zeroed(n),
            rate: AlignedVec::zeroed(n),
            vol: AlignedVec::zeroed(n),
            contracts,
        };
        for (i, c) in this.contracts.iter().enumerate() {
            this.spot[i] = c.spot;
            this.strike[i] = c.strike;
            this.years[i] = c.years;
            this.rate[i] = c.rate;
            this.vol[i] = c.vol;
        }
        this
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// True if the book is empty.
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }

    /// The option book in its array-of-structs form.
    pub fn contracts(&self) -> &[OptionContract] {
        &self.contracts
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn price_scalar_f64(c: &OptionContract) -> (f32, f32) {
        let s = c.spot as f64;
        let k = c.strike as f64;
        let t = c.years as f64;
        let r = c.rate as f64;
        let v = c.vol as f64;
        let sqrt_t = t.sqrt();
        let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
        let d2 = d1 - v * sqrt_t;
        let disc = (-r * t).exp();
        let call = s * norm_cdf_scalar(d1) - k * disc * norm_cdf_scalar(d2);
        let put = k * disc * norm_cdf_scalar(-d2) - s * norm_cdf_scalar(-d1);
        (call as f32, put as f32)
    }

    /// Naive tier: serial AoS, `f64` libm math per option.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 2 * n];
        for (i, c) in self.contracts.iter().enumerate() {
            let (call, put) = Self::price_scalar_f64(c);
            out[2 * i] = call;
            out[2 * i + 1] = put;
        }
        out
    }

    /// Parallel tier: the naive option loop behind a `parallel_for`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 2 * n];
        par_chunks_mut(pool, &mut out, 2 * 4096, |chunk_idx, chunk| {
            let base = chunk_idx * 4096;
            for (k, pair) in chunk.chunks_mut(2).enumerate() {
                let (call, put) = Self::price_scalar_f64(&self.contracts[base + k]);
                pair[0] = call;
                pair[1] = put;
            }
        });
        out
    }

    /// Prices a block of options with staged unit-stride `f32` loops —
    /// the restructuring an auto-vectorizer needs: each stage is a simple
    /// elementwise pass with branch-free polynomial bodies.
    /// `inline(always)` so it compiles inside its callers' feature frames
    /// (see `isa::with_active_features`).
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn price_block_poly(&self, f: Frame, lo: usize, n: usize, out: &mut [f32]) {
        debug_assert!(n <= POLY_BLOCK);
        let s = &self.spot[lo..lo + n];
        let k = &self.strike[lo..lo + n];
        let t = &self.years[lo..lo + n];
        let r = &self.rate[lo..lo + n];
        let v = &self.vol[lo..lo + n];
        let mut d1_buf = [0.0f32; POLY_BLOCK];
        let mut d2_buf = [0.0f32; POLY_BLOCK];
        let mut disc_buf = [0.0f32; POLY_BLOCK];
        // Slice the stage buffers to the block length up front: with raw
        // `buf[j]` stores the `j < POLY_BLOCK` bounds check sits inside the
        // loop and LLVM refuses to vectorize the staged passes (the NL008
        // asm audit caught exactly that — scalar `mulss` code on the rung
        // whose whole point is auto-vectorization).
        let d1 = &mut d1_buf[..n];
        let d2 = &mut d2_buf[..n];
        let disc = &mut disc_buf[..n];
        for j in 0..n {
            let sqrt_t = t[j].sqrt();
            let vt = v[j] * sqrt_t;
            let d = (ln_poly(f, s[j] / k[j]) + (r[j] + 0.5 * v[j] * v[j]) * t[j]) / vt;
            d1[j] = d;
            d2[j] = d - vt;
            disc[j] = exp_poly(f, -(r[j] * t[j]));
        }
        let mut nd1_buf = [0.0f32; POLY_BLOCK];
        let mut nd2_buf = [0.0f32; POLY_BLOCK];
        let nd1 = &mut nd1_buf[..n];
        let nd2 = &mut nd2_buf[..n];
        for j in 0..n {
            nd1[j] = cnd_poly(f, d1[j]);
            nd2[j] = cnd_poly(f, d2[j]);
        }
        let out = &mut out[..2 * n];
        for j in 0..n {
            let kd = k[j] * disc[j];
            out[2 * j] = s[j] * nd1[j] - kd * nd2[j];
            out[2 * j + 1] = kd * (1.0 - nd2[j]) - s[j] * (1.0 - nd1[j]);
        }
    }

    /// Compiler-vectorizable tier: serial SoA `f32` staged loops with
    /// inlined branch-free polynomial math (no opaque calls).
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256, sconv=0)
    pub fn run_simd(&self) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 2 * n];
        isa::with_active_features(
            #[inline(always)]
            |f| {
                let mut lo = 0;
                while lo < n {
                    let len = POLY_BLOCK.min(n - lo);
                    self.price_block_poly(f, lo, len, &mut out[2 * lo..2 * (lo + len)]);
                    lo += len;
                }
            },
        );
        out
    }

    /// Low-effort endpoint: SoA `f32` staged polynomial loops plus
    /// `parallel_for`.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256, sconv=0)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 2 * n];
        par_chunks_mut(pool, &mut out, 2 * POLY_BLOCK, |chunk_idx, chunk| {
            let lo = chunk_idx * POLY_BLOCK;
            isa::with_active_features(
                #[inline(always)]
                |f| self.price_block_poly(f, lo, chunk.len() / 2, chunk),
            );
        });
        out
    }

    /// Ninja tier: explicit width-generic SIMD pricing with vector
    /// `exp`/`ln`/CDF, parallel over option blocks.
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
        let mut out = vec![0.0f32; 2 * self.len()];
        const BLOCK: usize = 4096;
        par_chunks_mut(pool, &mut out, 2 * BLOCK, |chunk_idx, chunk| {
            let lo = chunk_idx * BLOCK;
            let hi = lo + chunk.len() / 2;
            dispatch_on(
                kind,
                PriceBatch {
                    spot: &self.spot[lo..hi],
                    strike: &self.strike[lo..hi],
                    years: &self.years[lo..hi],
                    rate: &self.rate[lo..hi],
                    vol: &self.vol[lo..hi],
                    out: chunk,
                },
            );
        });
        out
    }
}

/// A SoA batch priced with explicit SIMD under whichever ISA backend is
/// dispatched — the ninja rung's arithmetic, shared by the instance's
/// chunks and the serving surface. The five input slices share a length
/// `n`; `out` receives `n` interleaved `(call, put)` pairs.
struct PriceBatch<'a> {
    spot: &'a [f32],
    strike: &'a [f32],
    years: &'a [f32],
    rate: &'a [f32],
    vol: &'a [f32],
    out: &'a mut [f32],
}

impl IsaOp for PriceBatch<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let n = self.spot.len();
        let inputs = [self.spot, self.strike, self.years, self.rate, self.vol];
        let whole = n / lanes * lanes;
        for j in (0..whole).step_by(lanes) {
            let (calls_puts_lo, calls_puts_hi) =
                price_group::<I>(inputs.map(|src| I::F32::load(&src[j..])));
            calls_puts_lo.store(&mut self.out[2 * j..]);
            calls_puts_hi.store(&mut self.out[2 * j + lanes..]);
        }
        if whole < n {
            // Masked tail: inactive lanes load as zero, price to garbage
            // (no lane operation traps) and are never stored.
            let (calls_puts_lo, calls_puts_hi) =
                price_group::<I>(inputs.map(|src| I::F32::load_partial(&src[whole..])));
            let tail = &mut self.out[2 * whole..];
            calls_puts_lo.store_partial(tail);
            if tail.len() > lanes {
                calls_puts_hi.store_partial(&mut tail[lanes..]);
            }
        }
    }
}

/// Prices one vector group of options, `[spot, strike, years, rate, vol]`,
/// returning the `(call, put)` pairs interleaved into output order (low
/// lanes' pairs, high lanes' pairs).
#[inline(always)]
// ninja-lint: effort(ninja)
fn price_group<I: Isa>([s, k, t, r, v]: [I::F32; 5]) -> (I::F32, I::F32) {
    let half = I::F32::splat(0.5);
    let one = I::F32::splat(1.0);
    let sqrt_t = t.sqrt();
    let vt = v * sqrt_t;
    let d1 = (vmath::ln::<I>(s / k) + (r + half * v * v) * t) / vt;
    let d2 = d1 - vt;
    let disc = vmath::exp::<I>(-(r * t));
    let nd1 = vmath::norm_cdf::<I>(d1);
    let nd2 = vmath::norm_cdf::<I>(d2);
    let call = s * nd1 - k * disc * nd2;
    let put = k * disc * (one - nd2) - s * (one - nd1);
    call.interleave(put)
}

use crate::scalar_math::{cnd_poly, exp_poly, ln_poly};

// --- Serving surface -----------------------------------------------------
//
// Free pricing entry points for `ninja-serve`: the service coalesces
// request batches itself, so these price caller-provided contracts/SoA
// slices rather than the instance's generated book. Each function is the
// math of one degradation-ladder rung (scalar f64 libm, f32 polynomial,
// explicit SIMD at the host's vector width).

/// Prices one contract with the naive `f64` libm math — the serving
/// layer's scalar floor. Returns `(call, put)`.
pub fn price_contract(c: &OptionContract) -> (f32, f32) {
    BlackScholes::price_scalar_f64(c)
}

/// Prices a SoA batch with the branch-free `f32` polynomial math (the
/// SIMD rung), unfused: it runs in no feature frame, so the mirrors take
/// `Frame::default()`. All input slices share a length `n`; `out`
/// receives the interleaved `(call, put)` pairs and must hold `2 * n`
/// floats.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn price_batch_poly(
    spot: &[f32],
    strike: &[f32],
    years: &[f32],
    rate: &[f32],
    vol: &[f32],
    out: &mut [f32],
) {
    let n = spot.len();
    assert!(
        strike.len() == n && years.len() == n && rate.len() == n && vol.len() == n,
        "SoA batch slices must share a length"
    );
    assert_eq!(out.len(), 2 * n, "out must hold (call, put) per option");
    for j in 0..n {
        let sqrt_t = years[j].sqrt();
        let vt = vol[j] * sqrt_t;
        let d1 = (ln_poly(Frame::default(), spot[j] / strike[j])
            + (rate[j] + 0.5 * vol[j] * vol[j]) * years[j])
            / vt;
        let d2 = d1 - vt;
        let disc = exp_poly(Frame::default(), -(rate[j] * years[j]));
        let nd1 = cnd_poly(Frame::default(), d1);
        let nd2 = cnd_poly(Frame::default(), d2);
        let kd = strike[j] * disc;
        out[2 * j] = spot[j] * nd1 - kd * nd2;
        out[2 * j + 1] = kd * (1.0 - nd2) - spot[j] * (1.0 - nd1);
    }
}

/// Prices a SoA batch with the explicit SIMD ninja body on the active
/// ISA backend; any batch length (the tail group is masked). Slice
/// layout as [`price_batch_poly`].
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn price_batch_simd(
    spot: &[f32],
    strike: &[f32],
    years: &[f32],
    rate: &[f32],
    vol: &[f32],
    out: &mut [f32],
) {
    let n = spot.len();
    assert!(
        strike.len() == n && years.len() == n && rate.len() == n && vol.len() == n,
        "SoA batch slices must share a length"
    );
    assert_eq!(out.len(), 2 * n, "out must hold (call, put) per option");
    isa::dispatch(PriceBatch {
        spot,
        strike,
        years,
        rate,
        vol,
        out,
    });
}

fn run(k: &BlackScholes, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &BlackScholes) -> Work {
    let n = k.len() as f64;
    Work {
        flops: n * 90.0, // polynomial-expanded transcendental cost
        bytes: n * (5.0 * 4.0 + 2.0 * 4.0),
        elems: k.len() as u64,
    }
}

/// Suite entry for the BlackScholes kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "blackscholes",
        description: "European option pricing (compute bound, exp/ln/CDF heavy)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "serial AoS, f64 libm per option",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 8,
                what_changed: "parallel_for over options",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 41,
                what_changed: "AoS->SoA, f32, inlined polynomial math",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 38,
                what_changed: "SoA polynomial loop + parallel_for",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 48,
                what_changed: "hand SIMD with vector exp/ln/CDF, interleaved stores",
            },
        ],
        character: Characterization {
            flops_per_elem: 90.0,
            bytes_per_elem: 28.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 1.0,
            simd_friendly_frac: 1.0,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.6, // f64 libm -> f32 polynomial also wins scalar time
            simd_efficiency: 1.0,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: BlackScholes::generate(size, seed),
                name: "blackscholes",
                tolerance: 5e-3,
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
    fn known_price_textbook_case() {
        // S=100, K=100, T=1, r=5%, v=20%: call ≈ 10.4506, put ≈ 5.5735.
        let c = OptionContract {
            spot: 100.0,
            strike: 100.0,
            years: 1.0,
            rate: 0.05,
            vol: 0.2,
        };
        let (call, put) = BlackScholes::price_scalar_f64(&c);
        assert!((call - 10.4506).abs() < 1e-3, "call {call}");
        assert!((put - 5.5735).abs() < 1e-3, "put {put}");
    }

    #[test]
    fn put_call_parity_holds() {
        let k = BlackScholes::generate(ProblemSize::Test, 11);
        let out = k.run_naive();
        for (i, c) in k.contracts.iter().enumerate().take(100) {
            let call = out[2 * i] as f64;
            let put = out[2 * i + 1] as f64;
            let lhs = call - put;
            let rhs = c.spot as f64 - c.strike as f64 * (-(c.rate as f64) * c.years as f64).exp();
            assert!(
                (lhs - rhs).abs() < 1e-3 * (c.spot as f64).max(1.0),
                "parity violated at {i}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = BlackScholes::generate(ProblemSize::Test, 5);
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
                assert!(err < 5e-3, "{label}[{i}]: {a} vs {b} (err {err})");
            }
        }
    }

    #[test]
    fn adapter_validates_all_variants() {
        let spec = spec();
        let pool = ThreadPool::with_threads(1);
        let mut inst = (spec.make)(ProblemSize::Test, 2);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
        }
    }

    #[test]
    fn prices_are_nonnegative_and_bounded() {
        let k = BlackScholes::generate(ProblemSize::Test, 21);
        let out = k.run_ninja(&ThreadPool::with_threads(1));
        for (i, c) in k.contracts.iter().enumerate() {
            let call = out[2 * i];
            let put = out[2 * i + 1];
            assert!(call >= -1e-3 && call <= c.spot + 1e-3, "call bounds at {i}");
            assert!(put >= -1e-3 && put <= c.strike + 1e-3, "put bounds at {i}");
        }
    }

    #[test]
    fn serving_surface_matches_instance_variants() {
        let k = BlackScholes::generate(ProblemSize::Test, 7);
        let reference = k.run_naive();
        let n = k.len();
        let cs = k.contracts();
        // Scalar floor is exactly the naive math.
        for (i, c) in cs.iter().enumerate().take(200) {
            let (call, put) = price_contract(c);
            assert_eq!(call, reference[2 * i]);
            assert_eq!(put, reference[2 * i + 1]);
        }
        // SoA batches built from the AoS book.
        let soa: [Vec<f32>; 5] = [
            cs.iter().map(|c| c.spot).collect(),
            cs.iter().map(|c| c.strike).collect(),
            cs.iter().map(|c| c.years).collect(),
            cs.iter().map(|c| c.rate).collect(),
            cs.iter().map(|c| c.vol).collect(),
        ];
        let mut poly = vec![0.0f32; 2 * n];
        let mut simd = vec![0.0f32; 2 * n];
        price_batch_poly(&soa[0], &soa[1], &soa[2], &soa[3], &soa[4], &mut poly);
        price_batch_simd(&soa[0], &soa[1], &soa[2], &soa[3], &soa[4], &mut simd);
        for i in 0..2 * n {
            let b = reference[i];
            for (label, out) in [("poly", &poly), ("simd", &simd)] {
                let err = (out[i] - b).abs() / b.abs().max(1.0);
                assert!(err < 5e-3, "{label}[{i}]: {} vs {b}", out[i]);
            }
        }
    }

    /// Book lengths from one option up, through every residue of the
    /// widest lane count: the masked tail group at every fill level, with
    /// and without whole groups before it.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            1..=2 * ninja_simd::isa::MAX_ISA_F32_LANES + 1,
            5e-3,
            |n| BlackScholes::with_len(n, 3),
            BlackScholes::run_naive,
            BlackScholes::run_ninja_on,
        );
    }

    /// The compiler rungs' loop body inside each backend's feature frame,
    /// at lengths on both sides of a 256-bit vector so the auto-vectorized
    /// loops' scalar epilogues run too.
    #[test]
    fn compiler_rung_body_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            1..=2 * ninja_simd::isa::MAX_ISA_F32_LANES + 1,
            5e-3,
            |n| BlackScholes::with_len(n, 3),
            BlackScholes::run_naive,
            |k, kind, _| {
                let mut out = vec![0.0f32; 2 * k.len()];
                isa::with_features_on(
                    kind,
                    #[inline(always)]
                    |f| k.price_block_poly(f, 0, k.len(), &mut out),
                );
                out
            },
        );
    }

    #[test]
    fn call_price_is_monotone_in_spot_and_vol() {
        let price = |spot: f32, vol: f32| {
            BlackScholes::price_scalar_f64(&OptionContract {
                spot,
                strike: 50.0,
                years: 1.0,
                rate: 0.03,
                vol,
            })
        };
        let mut prev_call = -1.0f32;
        for s in [20.0f32, 40.0, 50.0, 60.0, 80.0] {
            let (call, _) = price(s, 0.25);
            assert!(call > prev_call, "call not increasing in spot at {s}");
            prev_call = call;
        }
        let mut prev = -1.0f32;
        for v in [0.05f32, 0.15, 0.3, 0.5] {
            let (call, _) = price(50.0, v);
            assert!(call > prev, "call not increasing in vol at {v}");
            prev = call;
        }
    }
}
