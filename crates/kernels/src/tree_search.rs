//! TreeSearch: batched lower-bound queries against a binary search tree.
//!
//! The paper's index-probing benchmark (their companion FAST work): answer
//! millions of independent lookups against a large search tree. The naive
//! version chases heap pointers; the **algorithmic changes** are exactly the
//! paper's — a *linearized* (breadth-first / Eytzinger) array layout that
//! removes pointers and improves locality, and *query blocking*: a group of
//! independent lookups descends in lockstep, so each level issues all of
//! the group's loads before any of its compares waits on one. The
//! algorithmic rung blocks `EYT_GROUP` scalar cursors; the ninja rung
//! blocks `VECTOR_GROUPS` vectors of queries (8 lanes each on AVX2, 4 on
//! SSE2) with gathered key loads, FAST's several query groups in flight.
//!
//! Every variant returns, for each query, the rank (position in sorted
//! order) of the first key `>=` the query, or `n` when no such key exists —
//! so outputs are exactly comparable across tiers. A NaN query compares
//! `>=` nothing and `<` nothing; every descent goes right only on
//! `key < q`, so every tier answers it with rank 0, as
//! `partition_point(|k| k < q)` does.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32, SimdI32, SimdMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Queries per lockstep group of the pointer-BST batch (the serving
/// layer's scalar reference).
const BST_GROUP: usize = 8;
/// Cursors per lockstep group of the algorithmic rung's Eytzinger descent.
const EYT_GROUP: usize = 16;
/// Vector groups the ninja descent keeps in flight. `SearchChunk` matches
/// the 1-3 groups a span leaves over by count.
const VECTOR_GROUPS: usize = 4;

/// A pointer-based BST node (the naive representation).
struct Node {
    key: f32,
    rank: u32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

/// A batched tree-search problem instance.
pub struct TreeSearch {
    /// Sorted keys (ranks are positions in this array).
    keys: Vec<f32>,
    queries: Vec<f32>,
    root: Option<Box<Node>>,
    /// 1-indexed Eytzinger layout; slot 0 unused.
    eyt: Vec<f32>,
    /// Rank of the key stored at each Eytzinger slot.
    eyt_rank: Vec<u32>,
}

impl TreeSearch {
    /// Tree size (number of keys) per preset; a perfect tree (`2^d − 1`).
    pub fn keys_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => (1 << 10) - 1,
            ProblemSize::Quick => (1 << 20) - 1,
            ProblemSize::Paper => (1 << 22) - 1,
        }
    }

    /// Number of queries per preset.
    pub fn queries_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 2048,
            ProblemSize::Quick => 1 << 20,
            ProblemSize::Paper => 1 << 22,
        }
    }

    /// Generates a deterministic instance: sorted random keys, random
    /// queries covering hits, misses, and out-of-range probes.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_keys(Self::keys_for(size), Self::queries_for(size), seed)
    }

    /// An instance with `n` keys (at least one) and `m` queries; the
    /// presets build perfect trees, this any shape.
    fn with_keys(n: usize, m: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Strictly increasing keys via a positive random walk.
        let mut keys = Vec::with_capacity(n);
        let mut acc = 0.0f32;
        for _ in 0..n {
            acc += rng.gen_range(0.5..2.0);
            keys.push(acc);
        }
        let hi = acc * 1.05;
        let queries = (0..m)
            .map(|i| {
                if i % 16 == 0 {
                    // Exact hit: exercises the equality path.
                    keys[rng.gen_range(0..n)]
                } else {
                    rng.gen_range(-1.0..hi)
                }
            })
            .collect();

        let root = build_bst(&keys, 0, n);
        let mut eyt = vec![0.0f32; n + 1];
        let mut eyt_rank = vec![0u32; n + 1];
        let mut cursor = 0usize;
        fill_eytzinger(&keys, &mut eyt, &mut eyt_rank, 1, &mut cursor);
        Self {
            keys,
            queries,
            root,
            eyt,
            eyt_rank,
        }
    }

    /// Number of keys in the tree.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn search_bst(&self, q: f32) -> u32 {
        let mut best = self.keys.len() as u32;
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            if n.key < q {
                node = n.right.as_deref();
            } else {
                best = n.rank;
                node = n.left.as_deref();
            }
        }
        best
    }

    /// Naive tier: serial pointer-chasing BST descent per query.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<u32> {
        self.queries.iter().map(|&q| self.search_bst(q)).collect()
    }

    /// Parallel tier: the naive descent behind a `parallel_for`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<u32> {
        let mut out = vec![0u32; self.queries.len()];
        par_chunks_mut(pool, &mut out, 4096, |chunk_idx, chunk| {
            let base = chunk_idx * 4096;
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = self.search_bst(self.queries[base + j]);
            }
        });
        out
    }

    #[inline]
    // ninja-lint: effort(algorithmic, ninja)
    fn search_eytzinger(&self, q: f32) -> u32 {
        let n = self.keys.len();
        let mut k = 1usize;
        while k <= n {
            // Branch-free descent: left when key >= q, right otherwise.
            k = 2 * k + usize::from(self.eyt[k] < q);
        }
        self.rank_at(k)
    }

    /// The lower bound a descent that ran off the tree at slot `k` found:
    /// undo the final descents, stripping the trailing right turns plus
    /// the left turn above them (none left: every key is `< q`).
    #[inline(always)]
    // ninja-lint: effort(algorithmic, ninja)
    fn rank_at(&self, k: usize) -> u32 {
        let k = k >> (k.trailing_ones() + 1).min(63);
        if k == 0 {
            self.keys.len() as u32
        } else {
            self.eyt_rank[k]
        }
    }

    /// `search_eytzinger` for every query in `qs`, `EYT_GROUP` cursors in
    /// lockstep. Every descent completes the tree's full levels, so those
    /// steps need no bounds test; only the last, partial level asks which
    /// cursors are still inside. A remainder under `EYT_GROUP` takes
    /// `search_eytzinger`.
    // ninja-lint: effort(algorithmic)
    fn search_eytzinger_lockstep(&self, qs: &[f32], out: &mut [u32]) {
        let n = self.keys.len();
        let full_levels = (n + 1).ilog2();
        let mut q_groups = qs.chunks_exact(EYT_GROUP);
        let mut o_groups = out.chunks_exact_mut(EYT_GROUP);
        for (q, o) in (&mut q_groups).zip(&mut o_groups) {
            let mut k = [1usize; EYT_GROUP];
            for _ in 0..full_levels {
                for l in 0..EYT_GROUP {
                    k[l] = 2 * k[l] + usize::from(self.eyt[k[l]] < q[l]);
                }
            }
            for l in 0..EYT_GROUP {
                if k[l] <= n {
                    k[l] = 2 * k[l] + usize::from(self.eyt[k[l]] < q[l]);
                }
                o[l] = self.rank_at(k[l]);
            }
        }
        let q_rest = q_groups.remainder();
        for (&q, o) in q_rest.iter().zip(o_groups.into_remainder()) {
            *o = self.search_eytzinger(q);
        }
    }

    /// Compiler-vectorizable tier: the same pointer tree searched
    /// iteratively — the restructuring a compiler needs, but pointer
    /// chasing still defeats vectorization (≈1X, as the paper observes
    /// for search).
    // ninja-lint: variant(simd)
    // ninja-lint: allow(NL008, "pointer-chasing descent defeats the auto-vectorizer at every target-cpu level; ~1X is the paper's measured result for search")
    pub fn run_simd(&self) -> Vec<u32> {
        // Iterative descent without recursion; still on the boxed tree.
        self.queries
            .iter()
            .map(|&q| {
                let mut best = self.keys.len() as u32;
                let mut node = self.root.as_deref();
                while let Some(n) = node {
                    let right = n.key < q;
                    if !right {
                        best = n.rank;
                    }
                    node = if right {
                        n.right.as_deref()
                    } else {
                        n.left.as_deref()
                    };
                }
                best
            })
            .collect()
    }

    /// Low-effort endpoint: linearized (Eytzinger) layout, query blocking
    /// (a lockstep group of scalar cursors) and query parallelism — the
    /// paper's "restructure the data, keep scalar code".
    // ninja-lint: variant(algorithmic)
    // ninja-lint: allow(NL008, "the lockstep descent is scalar loads and compares, one per cursor per level; its only xmm code is the cursor array's set-up and the last level's bound test")
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<u32> {
        let mut out = vec![0u32; self.queries.len()];
        par_chunks_mut(pool, &mut out, 4096, |chunk_idx, chunk| {
            let base = chunk_idx * 4096;
            self.search_eytzinger_lockstep(&self.queries[base..base + chunk.len()], chunk);
        });
        out
    }

    /// Descends `G` vector groups of queries in lockstep through the
    /// Eytzinger tree — written once against the width-generic [`Isa`]
    /// trait, so each group is 4 queries under SSE2 and 8 under AVX2, and
    /// each level issues `G` independent gathers. As in
    /// `search_eytzinger_lockstep`, the full levels need no mask; the
    /// last, partial one steps only the lanes still inside the tree. `qs`
    /// and `out` must both hold exactly `G` groups (`G * LANES` queries).
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn search_groups<I: Isa, const G: usize>(&self, qs: &[f32], out: &mut [u32]) {
        let lanes = <I::F32 as SimdF32>::LANES;
        debug_assert_eq!(qs.len(), G * lanes);
        debug_assert_eq!(out.len(), G * lanes);
        let n = self.keys.len();
        let q: [I::F32; G] = std::array::from_fn(|g| I::F32::load(&qs[g * lanes..]));
        let mut k = [I::I32::splat(1); G];
        let one = I::I32::splat(1);
        let zero = I::I32::zero();
        for _ in 0..(n + 1).ilog2() {
            for g in 0..G {
                let go_right = I::F32::gather(&self.eyt, k[g]).simd_lt(q[g]);
                k[g] = (k[g] << 1) + I::I32::select(go_right, one, zero);
            }
        }
        let n_vec = I::I32::splat(n as i32);
        for g in 0..G {
            let inside = k[g].simd_gt(n_vec).not();
            if inside.any() {
                // Clamp finished lanes to a safe gather index (slot 0 unused).
                let idx = I::I32::select(inside, k[g], zero);
                let go_right = I::F32::gather(&self.eyt, idx).simd_lt(q[g]);
                let next = (k[g] << 1) + I::I32::select(go_right, one, zero);
                k[g] = I::I32::select(inside, next, k[g]);
            }
            for (i, o) in out[g * lanes..(g + 1) * lanes].iter_mut().enumerate() {
                *o = self.rank_at(k[g].lane(i) as usize);
            }
        }
    }

    // --- Serving surface -------------------------------------------------
    //
    // Batch entry points for `ninja-serve`, which batches arbitrary
    // client queries against a server-resident tree. Each delegates to
    // the math of one degradation-ladder rung.

    /// Serving-layer scalar floor for one query: pointer-chasing BST
    /// lower bound.
    pub fn lower_bound_bst(&self, q: f32) -> u32 {
        self.search_bst(q)
    }

    /// Serving-layer scalar floor for a batch: [`Self::lower_bound_bst`]
    /// for every query in `qs`, `BST_GROUP` queries in lockstep. Each
    /// level loads every live cursor's node before any compare, so the
    /// group's cache misses overlap. Lanes finish at different depths on a
    /// tree that is not perfect; a finished lane holds `None`. A remainder
    /// under `BST_GROUP` takes the one-query descent.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != qs.len()`.
    pub fn lower_bound_bst_batch(&self, qs: &[f32], out: &mut [u32]) {
        assert_eq!(qs.len(), out.len(), "one rank per query");
        let mut q_groups = qs.chunks_exact(BST_GROUP);
        let mut o_groups = out.chunks_exact_mut(BST_GROUP);
        for (q, o) in (&mut q_groups).zip(&mut o_groups) {
            let mut best = [self.keys.len() as u32; BST_GROUP];
            let mut node = [self.root.as_deref(); BST_GROUP];
            while node.iter().any(Option::is_some) {
                for l in 0..BST_GROUP {
                    if let Some(n) = node[l] {
                        let right = n.key < q[l];
                        best[l] = if right { best[l] } else { n.rank };
                        node[l] = [n.left.as_deref(), n.right.as_deref()][right as usize];
                    }
                }
            }
            o.copy_from_slice(&best);
        }
        let q_rest = q_groups.remainder();
        for (&q, o) in q_rest.iter().zip(o_groups.into_remainder()) {
            *o = self.search_bst(q);
        }
    }

    /// Serving-layer restructured rung: the lower bound of every query in
    /// `qs` through the algorithmic rung's lockstep Eytzinger descent (a
    /// trailing partial group takes the one-query Eytzinger search).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != qs.len()`.
    pub fn lower_bound_linearized_batch(&self, qs: &[f32], out: &mut [u32]) {
        assert_eq!(qs.len(), out.len(), "one rank per query");
        self.search_eytzinger_lockstep(qs, out);
    }

    /// Serving-layer ninja rung: the lower bound of every query in `qs`,
    /// the ninja rung's lockstep vector groups on the active ISA backend
    /// (the leftover whole groups descend together, and a trailing
    /// partial group takes the linearized scalar search).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != qs.len()`.
    pub fn lower_bound_batch(&self, qs: &[f32], out: &mut [u32]) {
        assert_eq!(qs.len(), out.len(), "one rank per query");
        isa::dispatch(SearchChunk {
            kernel: self,
            queries: qs,
            out,
        });
    }

    /// Ninja tier: SIMD-blocked search — `VECTOR_GROUPS` vector groups of
    /// queries descending in lockstep with gathered key loads — plus
    /// query parallelism.
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<u32> {
        self.run_ninja_on(isa::active(), pool)
    }

    /// The ninja rung on a chosen backend (and so group width). Dispatch
    /// happens *inside* each worker closure because `#[target_feature]`
    /// trampolines do not cross thread boundaries (see
    /// `ninja_simd::isa::dispatch`).
    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<u32> {
        let mut out = vec![0u32; self.queries.len()];
        par_chunks_mut(pool, &mut out, 4096, |chunk_idx, chunk| {
            let base = chunk_idx * 4096;
            dispatch_on(
                kind,
                SearchChunk {
                    kernel: self,
                    queries: &self.queries[base..base + chunk.len()],
                    out: chunk,
                },
            );
        });
        out
    }
}

/// One chunk of queries through the ninja rung: lockstep spans of
/// `VECTOR_GROUPS` vector groups, then the 1-3 leftover whole groups in
/// one lockstep descent, then the sub-group remainder through the scalar
/// Eytzinger search.
struct SearchChunk<'a> {
    kernel: &'a TreeSearch,
    queries: &'a [f32],
    out: &'a mut [u32],
}

impl IsaOp for SearchChunk<'_> {
    type Output = ();
    #[inline(always)]
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let k = self.kernel;
        let mut q_spans = self.queries.chunks_exact(VECTOR_GROUPS * lanes);
        let mut o_spans = self.out.chunks_exact_mut(VECTOR_GROUPS * lanes);
        for (qs, out) in (&mut q_spans).zip(&mut o_spans) {
            k.search_groups::<I, VECTOR_GROUPS>(qs, out);
        }
        let (q_rest, o_rest) = (q_spans.remainder(), o_spans.into_remainder());
        let whole = q_rest.len() / lanes * lanes;
        let (q_groups, q_tail) = q_rest.split_at(whole);
        let (o_groups, o_tail) = o_rest.split_at_mut(whole);
        match whole / lanes {
            0 => {}
            1 => k.search_groups::<I, 1>(q_groups, o_groups),
            2 => k.search_groups::<I, 2>(q_groups, o_groups),
            3 => k.search_groups::<I, 3>(q_groups, o_groups),
            _ => unreachable!("a span remainder holds under VECTOR_GROUPS = 4 groups"),
        }
        for (q, o) in q_tail.iter().zip(o_tail) {
            *o = k.search_eytzinger(*q);
        }
    }
}

fn build_bst(keys: &[f32], lo: usize, hi: usize) -> Option<Box<Node>> {
    if lo >= hi {
        return None;
    }
    let mid = lo + (hi - lo) / 2;
    Some(Box::new(Node {
        key: keys[mid],
        rank: mid as u32,
        left: build_bst(keys, lo, mid),
        right: build_bst(keys, mid + 1, hi),
    }))
}

/// In-order fill of the 1-indexed Eytzinger array from sorted keys.
fn fill_eytzinger(keys: &[f32], eyt: &mut [f32], rank: &mut [u32], k: usize, cursor: &mut usize) {
    if k > keys.len() {
        return;
    }
    fill_eytzinger(keys, eyt, rank, 2 * k, cursor);
    eyt[k] = keys[*cursor];
    rank[k] = *cursor as u32;
    *cursor += 1;
    fill_eytzinger(keys, eyt, rank, 2 * k + 1, cursor);
}

fn run(k: &TreeSearch, variant: Variant, pool: &ThreadPool) -> Vec<u32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &TreeSearch) -> Work {
    let m = k.num_queries() as f64;
    let depth = (k.num_keys() as f64).log2().ceil();
    Work {
        flops: m * depth * 2.0,
        bytes: m * depth * 4.0,
        elems: k.num_queries() as u64,
    }
}

/// Suite entry for the TreeSearch kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "treesearch",
        description: "batched BST lower-bound queries (latency bound, layout showcase)",
        bound: "memory",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "recursive pointer-chasing BST",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 8,
                what_changed: "parallel_for over queries",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 12,
                what_changed: "iterative descent (compiler still cannot vectorize)",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 32,
                what_changed:
                    "linearized Eytzinger layout + lockstep query groups + parallel queries",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 48,
                what_changed: "lockstep vector query groups (8 lanes on AVX2) with gathers",
            },
        ],
        character: Characterization {
            flops_per_elem: 40.0,
            bytes_per_elem: 24.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.85,
            parallel_frac: 1.0,
            gather_per_elem: 20.0,
            algorithmic_factor: 1.6, // pointer tree -> packed array locality win
            simd_efficiency: 0.8,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: TreeSearch::generate(size, seed),
                name: "treesearch",
                tolerance: 0.0,
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

    fn lower_bound(keys: &[f32], q: f32) -> u32 {
        keys.partition_point(|&k| k < q) as u32
    }

    #[test]
    fn bst_matches_partition_point() {
        let k = TreeSearch::generate(ProblemSize::Test, 1);
        for &q in k.queries.iter().take(500) {
            assert_eq!(k.search_bst(q), lower_bound(&k.keys, q), "q={q}");
        }
    }

    #[test]
    fn eytzinger_matches_partition_point() {
        let k = TreeSearch::generate(ProblemSize::Test, 2);
        for &q in k.queries.iter().take(500) {
            assert_eq!(k.search_eytzinger(q), lower_bound(&k.keys, q), "q={q}");
        }
        // Out-of-range probes.
        assert_eq!(k.search_eytzinger(-100.0), 0);
        assert_eq!(k.search_eytzinger(f32::MAX), k.keys.len() as u32);
    }

    #[test]
    fn simd_batch_matches_scalar_at_every_length() {
        let k = TreeSearch::generate(ProblemSize::Test, 3);
        for len in 0..=2 * ninja_simd::isa::MAX_ISA_F32_LANES + 1 {
            let qs = &k.queries[len..2 * len];
            let mut got = vec![0u32; len];
            k.lower_bound_batch(qs, &mut got);
            for (g, &q) in got.iter().zip(qs) {
                assert_eq!(*g, k.search_eytzinger(q), "len {len}, q={q}");
            }
        }
    }

    /// Bit-exact agreement (tolerance 0) of the generic SIMD descent with
    /// the naive BST under every reachable ISA backend, at query counts on
    /// every residue of the widest lane count (the sub-group remainder
    /// takes the scalar search).
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            96..96 + ninja_simd::isa::MAX_ISA_F32_LANES,
            0.0,
            |m| {
                let mut k = TreeSearch::generate(ProblemSize::Test, 13);
                k.queries.truncate(m);
                k
            },
            TreeSearch::run_naive,
            TreeSearch::run_ninja_on,
        );
    }

    /// `m` queries against an `n`-key tree, every fifth one replaced by a
    /// probe below, above or incomparable with every key.
    fn shaped(n: usize, m: usize) -> TreeSearch {
        let mut k = TreeSearch::with_keys(n, m, (n * 131 + m) as u64);
        let probes = [f32::NEG_INFINITY, f32::INFINITY, f32::NAN, -1.0, f32::MAX];
        for (q, &p) in k
            .queries
            .iter_mut()
            .skip(2)
            .step_by(5)
            .zip(probes.iter().cycle())
        {
            *q = p;
        }
        k
    }

    /// Every lockstep descent, and the served `lower_bound_batch`, equals
    /// its one-query form at every query count up to two lockstep spans
    /// plus one. The trees include shapes whose last level is partly
    /// filled (1000 keys), where lanes of one group finish at different
    /// depths, and perfect ones (`2^k - 1`).
    #[test]
    fn lockstep_descents_match_their_one_query_forms() {
        use crate::framework::assert_conforms_on_every_backend;
        let span = [
            BST_GROUP,
            EYT_GROUP,
            VECTOR_GROUPS * ninja_simd::isa::MAX_ISA_F32_LANES,
        ]
        .into_iter()
        .max()
        .unwrap();
        let bst =
            |k: &TreeSearch| -> Vec<u32> { k.queries.iter().map(|&q| k.search_bst(q)).collect() };
        let eytzinger = |k: &TreeSearch| -> Vec<u32> {
            k.queries.iter().map(|&q| k.search_eytzinger(q)).collect()
        };
        for n in [1, 2, 1000, 7, 1023] {
            let make = |m| shaped(n, m);
            assert_conforms_on_every_backend(0..=2 * span + 1, 0.0, make, bst, |k, _, _| {
                let mut out = vec![0; k.queries.len()];
                k.lower_bound_bst_batch(&k.queries, &mut out);
                out
            });
            assert_conforms_on_every_backend(
                0..=2 * span + 1,
                0.0,
                make,
                eytzinger,
                |k, _, pool| k.run_algorithmic(pool),
            );
            assert_conforms_on_every_backend(
                0..=2 * span + 1,
                0.0,
                make,
                eytzinger,
                TreeSearch::run_ninja_on,
            );
            // The served entry point. Below 4,096 queries `run_ninja_on`
            // is one `SearchChunk` too, so the check above already holds
            // its spans, 1-3 leftover groups and tail on every backend.
            for m in 0..=2 * span + 1 {
                let k = make(m);
                let mut out = vec![0; m];
                k.lower_bound_batch(&k.queries, &mut out);
                assert_eq!(
                    out,
                    eytzinger(&k),
                    "lower_bound_batch, {n} keys, {m} queries"
                );
            }
        }
    }

    /// A NaN query is `>=` no key and `<` none: every tier and serving
    /// entry point ranks it 0, as `partition_point` does.
    #[test]
    fn nan_query_ranks_zero_everywhere() {
        let mut k = TreeSearch::generate(ProblemSize::Test, 14);
        k.queries.iter_mut().step_by(3).for_each(|q| *q = f32::NAN);
        let want: Vec<u32> = k.queries.iter().map(|&q| lower_bound(&k.keys, q)).collect();
        assert_eq!(want[0], 0);
        let pool = ThreadPool::with_threads(2);
        for v in Variant::ALL {
            assert_eq!(run(&k, v, &pool), want, "{v}");
        }
        let mut got = vec![0u32; k.queries.len()];
        k.lower_bound_bst_batch(&k.queries, &mut got);
        assert_eq!(got, want, "lower_bound_bst_batch");
        k.lower_bound_linearized_batch(&k.queries, &mut got);
        assert_eq!(got, want, "lower_bound_linearized_batch");
        assert_eq!(k.lower_bound_bst(f32::NAN), 0);
        assert_eq!(k.search_eytzinger(f32::NAN), 0);
    }

    #[test]
    fn exact_hits_return_their_rank() {
        let k = TreeSearch::generate(ProblemSize::Test, 4);
        for rank in [0usize, 1, 10, k.keys.len() / 2, k.keys.len() - 1] {
            assert_eq!(k.search_bst(k.keys[rank]), rank as u32);
            assert_eq!(k.search_eytzinger(k.keys[rank]), rank as u32);
        }
    }

    #[test]
    fn all_variants_agree_exactly() {
        let k = TreeSearch::generate(ProblemSize::Test, 5);
        let pool = ThreadPool::with_threads(2);
        let reference = k.run_naive();
        assert_eq!(k.run_parallel(&pool), reference);
        assert_eq!(k.run_simd(), reference);
        assert_eq!(k.run_algorithmic(&pool), reference);
        assert_eq!(k.run_ninja(&pool), reference);
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
    fn results_are_valid_ranks() {
        let k = TreeSearch::generate(ProblemSize::Test, 10);
        let pool = ThreadPool::with_threads(1);
        for rank in k.run_ninja(&pool) {
            assert!(rank as usize <= k.num_keys());
        }
    }

    #[test]
    fn serving_surface_delegates_match_partition_point() {
        let k = TreeSearch::generate(ProblemSize::Test, 12);
        let qs = &k.queries[..203];
        let mut batch = vec![0u32; qs.len()];
        k.lower_bound_batch(qs, &mut batch);
        let mut bst_batch = vec![0u32; qs.len()];
        k.lower_bound_bst_batch(qs, &mut bst_batch);
        let mut linearized_batch = vec![0u32; qs.len()];
        k.lower_bound_linearized_batch(qs, &mut linearized_batch);
        for (i, &q) in qs.iter().enumerate() {
            let want = lower_bound(&k.keys, q);
            assert_eq!(k.lower_bound_bst(q), want);
            assert_eq!(k.search_eytzinger(q), want);
            assert_eq!(batch[i], want);
            assert_eq!(bst_batch[i], want);
            assert_eq!(linearized_batch[i], want);
        }
    }

    #[test]
    fn lower_bound_brackets_the_query() {
        let k = TreeSearch::generate(ProblemSize::Test, 11);
        for (&q, &rank) in k.queries.iter().zip(k.run_naive().iter()).take(300) {
            let r = rank as usize;
            if r < k.keys.len() {
                assert!(k.keys[r] >= q, "key at rank not >= query");
            }
            if r > 0 {
                assert!(k.keys[r - 1] < q, "previous key not < query");
            }
        }
    }
}
