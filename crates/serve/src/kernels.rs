//! [`BatchKernel`] implementations for the three served kernels.
//!
//! Each adapter coalesces the engine's AoS request batch into the SoA
//! layout its rung needs and calls the kernel crate's serving surface:
//! the scalar rung is the trusted `f64` math, the SIMD rung the
//! restructured `f32` polynomial math, and the ninja rung the explicit
//! SIMD math (at whatever vector width the kernel crate dispatches to)
//! parallelized over the shared thread pool.

use std::sync::Arc;

use ninja_kernels::black_scholes::{
    price_batch_poly, price_batch_simd, price_contract, OptionContract,
};
use ninja_kernels::chaos::FailureMode;
use ninja_kernels::libor::{
    default_init_rates, default_vols, price_path_poly, price_paths_f64, price_paths_simd, NMAT,
    N_RATES,
};
use ninja_kernels::tree_search::TreeSearch;
use ninja_kernels::ProblemSize;
use ninja_parallel::{par_chunks_mut, ThreadPool};

use crate::{BatchKernel, Rung};

/// Requests per parallel chunk on the ninja rung.
const NINJA_CHUNK: usize = 16;
/// Requests per parallel chunk on treesearch's ninja rung: a multiple of
/// the lockstep span on every backend, so only a batch's last chunk
/// descends leftover groups one at a time, and one default `max_batch`,
/// so a full batch is one chunk.
const TREESEARCH_CHUNK: usize = 64;

fn rel_close(got: f32, reference: f32, tol: f32) -> bool {
    // NaN/inf fail every comparison here, so corrupted values can never
    // validate.
    got.is_finite() && (got - reference).abs() / reference.abs().max(1.0) <= tol
}

// --- BlackScholes --------------------------------------------------------

/// Serves Black-Scholes pricing: request = one [`OptionContract`],
/// response = `(call, put)`.
pub struct BlackScholesServe {
    pool: Arc<ThreadPool>,
}

impl BlackScholesServe {
    /// Relative tolerance vs the scalar reference (the measurement
    /// suite's Black-Scholes tolerance).
    pub const TOLERANCE: f32 = 5e-3;

    /// New adapter executing ninja-rung batches on `pool`.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        Self { pool }
    }

    /// AoS → SoA.
    fn soa(reqs: &[OptionContract]) -> [Vec<f32>; 5] {
        [
            reqs.iter().map(|c| c.spot).collect(),
            reqs.iter().map(|c| c.strike).collect(),
            reqs.iter().map(|c| c.years).collect(),
            reqs.iter().map(|c| c.rate).collect(),
            reqs.iter().map(|c| c.vol).collect(),
        ]
    }

    fn deinterleave(pairs: &[f32]) -> Vec<(f32, f32)> {
        pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect()
    }
}

impl BatchKernel for BlackScholesServe {
    type Req = OptionContract;
    type Resp = (f32, f32);

    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn run(&self, rung: Rung, reqs: &[OptionContract]) -> Vec<(f32, f32)> {
        match rung {
            Rung::Scalar => reqs.iter().map(price_contract).collect(),
            Rung::Simd => {
                let [spot, strike, years, rate, vol] = Self::soa(reqs);
                let mut out = vec![0.0f32; 2 * spot.len()];
                price_batch_poly(&spot, &strike, &years, &rate, &vol, &mut out);
                Self::deinterleave(&out)
            }
            Rung::Ninja => {
                let [spot, strike, years, rate, vol] = Self::soa(reqs);
                let mut out = vec![0.0f32; 2 * spot.len()];
                par_chunks_mut(&self.pool, &mut out, 2 * NINJA_CHUNK, |ci, chunk| {
                    let lo = ci * NINJA_CHUNK;
                    let len = chunk.len() / 2;
                    price_batch_simd(
                        &spot[lo..lo + len],
                        &strike[lo..lo + len],
                        &years[lo..lo + len],
                        &rate[lo..lo + len],
                        &vol[lo..lo + len],
                        chunk,
                    );
                });
                Self::deinterleave(&out)
            }
        }
    }

    fn matches(&self, got: &(f32, f32), reference: &(f32, f32)) -> bool {
        rel_close(got.0, reference.0, Self::TOLERANCE)
            && rel_close(got.1, reference.1, Self::TOLERANCE)
    }

    fn corrupt(&self, resp: &mut (f32, f32), mode: FailureMode) {
        match mode {
            FailureMode::NonFinite => resp.0 = f32::NAN,
            // ~3% relative plus a small absolute bump, so the corruption
            // clears the tolerance even on near-zero prices.
            _ => resp.0 = resp.0 * 1.03 + 0.05,
        }
    }
}

// --- TreeSearch ----------------------------------------------------------

/// Serves lower-bound queries against a server-resident search tree:
/// request = one `f32` query, response = the exact rank.
pub struct TreeSearchServe {
    tree: TreeSearch,
    pool: Arc<ThreadPool>,
}

impl TreeSearchServe {
    /// New adapter over a deterministically generated tree.
    pub fn new(size: ProblemSize, seed: u64, pool: Arc<ThreadPool>) -> Self {
        Self {
            tree: TreeSearch::generate(size, seed),
            pool,
        }
    }

    /// The resident tree (for generating in-range test queries).
    pub fn tree(&self) -> &TreeSearch {
        &self.tree
    }
}

impl BatchKernel for TreeSearchServe {
    type Req = f32;
    type Resp = u32;

    fn name(&self) -> &'static str {
        "treesearch"
    }

    fn run(&self, rung: Rung, reqs: &[f32]) -> Vec<u32> {
        let mut out = vec![0u32; reqs.len()];
        match rung {
            Rung::Scalar => self.tree.lower_bound_bst_batch(reqs, &mut out),
            Rung::Simd => self.tree.lower_bound_linearized_batch(reqs, &mut out),
            Rung::Ninja => {
                par_chunks_mut(&self.pool, &mut out, TREESEARCH_CHUNK, |ci, chunk| {
                    let base = ci * TREESEARCH_CHUNK;
                    self.tree
                        .lower_bound_batch(&reqs[base..base + chunk.len()], chunk);
                });
            }
        }
        out
    }

    fn matches(&self, got: &u32, reference: &u32) -> bool {
        got == reference
    }

    fn corrupt(&self, resp: &mut u32, mode: FailureMode) {
        match mode {
            FailureMode::NonFinite => *resp = u32::MAX,
            // Off-by-one rank: the subtlest integer corruption.
            _ => *resp = resp.wrapping_add(1),
        }
    }
}

// --- Libor ---------------------------------------------------------------

/// Serves LIBOR path pricing against a server-resident curve: request =
/// one path's `NMAT` standard-normal draws, response = the path value.
pub struct LiborServe {
    init_rates: [f32; N_RATES],
    vols: [f32; NMAT],
    pool: Arc<ThreadPool>,
}

impl LiborServe {
    /// Relative tolerance vs the scalar reference (the measurement
    /// suite's Libor tolerance).
    pub const TOLERANCE: f32 = 1e-2;

    /// New adapter over the default deterministic curve.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        Self {
            init_rates: default_init_rates(),
            vols: default_vols(),
            pool,
        }
    }
}

impl BatchKernel for LiborServe {
    type Req = [f32; NMAT];
    type Resp = f32;

    fn name(&self) -> &'static str {
        "libor"
    }

    fn run(&self, rung: Rung, reqs: &[[f32; NMAT]]) -> Vec<f32> {
        match rung {
            Rung::Scalar => {
                let mut out = vec![0.0f32; reqs.len()];
                price_paths_f64(&self.init_rates, &self.vols, reqs, &mut out);
                out
            }
            Rung::Simd => reqs
                .iter()
                .map(|z| price_path_poly(&self.init_rates, &self.vols, z))
                .collect(),
            Rung::Ninja => {
                let mut out = vec![0.0f32; reqs.len()];
                par_chunks_mut(&self.pool, &mut out, NINJA_CHUNK, |ci, chunk| {
                    let base = ci * NINJA_CHUNK;
                    let paths = &reqs[base..base + chunk.len()];
                    price_paths_simd(&self.init_rates, &self.vols, paths, chunk);
                });
                out
            }
        }
    }

    fn matches(&self, got: &f32, reference: &f32) -> bool {
        rel_close(*got, *reference, Self::TOLERANCE)
    }

    fn corrupt(&self, resp: &mut f32, mode: FailureMode) {
        match mode {
            FailureMode::NonFinite => *resp = f32::NAN,
            // ~5% relative plus a small absolute bump, so the corruption
            // clears the tolerance even on near-zero path values.
            _ => *resp = *resp * 1.05 + 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Response, ServeConfig};
    use std::time::Duration;

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::with_threads(2))
    }

    #[test]
    fn blackscholes_rungs_agree_with_scalar() {
        let k = BlackScholesServe::new(pool());
        let reqs: Vec<OptionContract> = (0..37)
            .map(|i| OptionContract {
                spot: 40.0 + i as f32,
                strike: 50.0,
                years: 1.0 + (i % 3) as f32 * 0.5,
                rate: 0.03,
                vol: 0.2 + (i % 5) as f32 * 0.05,
            })
            .collect();
        let reference = k.run(Rung::Scalar, &reqs);
        for rung in [Rung::Simd, Rung::Ninja] {
            let got = k.run(rung, &reqs);
            assert_eq!(got.len(), reqs.len());
            for (g, r) in got.iter().zip(reference.iter()) {
                assert!(k.matches(g, r), "{rung}: {g:?} vs {r:?}");
            }
        }
    }

    #[test]
    fn treesearch_rungs_agree_and_corruption_is_caught() {
        let k = TreeSearchServe::new(ProblemSize::Test, 3, pool());
        let reqs: Vec<f32> = (0..41).map(|i| 1.0 + 17.3 * i as f32).collect();
        let reference = k.run(Rung::Scalar, &reqs);
        for rung in [Rung::Simd, Rung::Ninja] {
            assert_eq!(k.run(rung, &reqs), reference, "{rung}");
        }
        let mut bad = reference[0];
        k.corrupt(&mut bad, FailureMode::WrongOutput);
        assert!(!k.matches(&bad, &reference[0]));
    }

    /// A NaN query ranks 0 on every rung, the scalar reference included,
    /// so a batch holding one serves on the ninja rung with no validation
    /// failure and no breaker trip.
    #[test]
    fn treesearch_nan_request_serves_ok_on_ninja() {
        let k = TreeSearchServe::new(ProblemSize::Test, 3, pool());
        let reqs = [
            1.0,
            f32::NAN,
            500.0,
            -3.0,
            f32::NAN,
            2000.0,
            7.5,
            f32::NAN,
            40.0,
        ];
        assert_eq!(k.run(Rung::Scalar, &reqs), k.run(Rung::Ninja, &reqs));
        let engine = Engine::new(k, ServeConfig::default(), None);
        let tickets: Vec<_> = reqs.iter().map(|&q| engine.submit(q)).collect();
        for (ticket, q) in tickets.iter().zip(reqs) {
            match ticket.wait(Duration::from_secs(10)) {
                Some(Response::Ok { value, rung, .. }) => {
                    assert_eq!(rung, Rung::Ninja, "q={q}");
                    assert_eq!(value, engine.kernel().tree().lower_bound_bst(q), "q={q}");
                }
                other => panic!("q={q}: {other:?}"),
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.validation_failures, 0);
        assert_eq!(stats.trips, 0);
    }

    #[test]
    fn libor_rungs_agree_and_corruption_is_caught() {
        let k = LiborServe::new(pool());
        // Small deterministic pseudo-normal draws.
        let reqs: Vec<[f32; NMAT]> = (0..11)
            .map(|p| std::array::from_fn(|n| (((p * NMAT + n) % 13) as f32 - 6.0) / 4.0))
            .collect();
        let reference = k.run(Rung::Scalar, &reqs);
        for rung in [Rung::Simd, Rung::Ninja] {
            let got = k.run(rung, &reqs);
            for (g, r) in got.iter().zip(reference.iter()) {
                assert!(k.matches(g, r), "{rung}: {g} vs {r}");
            }
        }
        let mut bad = reference[0];
        k.corrupt(&mut bad, FailureMode::NonFinite);
        assert!(!k.matches(&bad, &reference[0]));
        let mut wrong = reference[0];
        k.corrupt(&mut wrong, FailureMode::WrongOutput);
        assert!(!k.matches(&wrong, &reference[0]));
    }
}
