//! MergeSort: sorting a large array of 32-bit floats.
//!
//! The paper's sorting benchmark (Chhugani et al.'s SIMD merge sort is the
//! Ninja reference). The ladder:
//!
//! * **naive** — textbook top-down recursion, allocating a fresh vector in
//!   every merge;
//! * **parallel** — the same recursion forked with `join`;
//! * **simd** — restructured serial code (insertion-sort base case,
//!   branch-free two-chain merge) — the compiler still cannot vectorize a
//!   data-dependent merge, but removing its mispredicted branch roughly
//!   halves the merge time;
//! * **algorithmic** — iterative bottom-up merge with one ping-pong buffer,
//!   chunk-parallel sort + parallel pairwise rounds of the same branch-free
//!   merge;
//! * **ninja** — the same parallel structure with a vector-width **bitonic
//!   merge network** in the inner loop.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32, MAX_ISA_F32_LANES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Run length below which insertion sort beats merging.
const INSERTION_CUTOFF: usize = 16;
/// Sub-problem size below which the parallel recursion stays serial.
const JOIN_CUTOFF: usize = 8192;

/// A sorting problem instance.
pub struct MergeSort {
    data: Vec<f32>,
}

impl MergeSort {
    /// Element count for each size preset.
    pub fn n_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 10_000,
            ProblemSize::Quick => 1 << 20,
            ProblemSize::Paper => 1 << 22,
        }
    }

    /// Generates a deterministic random array (with duplicates).
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        let n = Self::n_for(size);
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..n).map(|_| rng.gen_range(-1e6..1e6_f32)).collect();
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if there is nothing to sort.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Naive tier: textbook top-down merge sort, fresh allocation per merge.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        fn msort(v: &[f32]) -> Vec<f32> {
            if v.len() <= 1 {
                return v.to_vec();
            }
            let mid = v.len() / 2;
            let left = msort(&v[..mid]);
            let right = msort(&v[mid..]);
            let mut out = vec![0.0f32; v.len()];
            merge_scalar(&left, &right, &mut out);
            out
        }
        msort(&self.data)
    }

    /// Parallel tier: the naive recursion forked with `join`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        fn msort(pool: &ThreadPool, v: &[f32]) -> Vec<f32> {
            if v.len() <= 1 {
                return v.to_vec();
            }
            let mid = v.len() / 2;
            let (left, right) = if v.len() >= JOIN_CUTOFF {
                pool.join(|| msort(pool, &v[..mid]), || msort(pool, &v[mid..]))
            } else {
                (msort(pool, &v[..mid]), msort(pool, &v[mid..]))
            };
            let mut out = vec![0.0f32; v.len()];
            merge_scalar(&left, &right, &mut out);
            out
        }
        msort(pool, &self.data)
    }

    /// Compiler-friendly tier: serial bottom-up sort with an insertion-sort
    /// base case and the branch-free merge — still not vectorizable.
    // ninja-lint: variant(simd)
    // ninja-lint: allow(NL008, "data-dependent merge order cannot auto-vectorize; the ninja rung's bitonic network is the vector answer")
    pub fn run_simd(&self) -> Vec<f32> {
        let mut buf = self.data.clone();
        let mut tmp = vec![0.0f32; buf.len()];
        bottom_up_sort(&mut buf, &mut tmp, &merge_branchless);
        buf
    }

    /// Low-effort endpoint: bottom-up ping-pong sort, chunk-parallel with
    /// parallel merge rounds (branch-free scalar merges).
    // ninja-lint: variant(algorithmic)
    // ninja-lint: allow(NL008, "data-dependent merge order cannot auto-vectorize; the ninja rung's bitonic network is the vector answer")
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        parallel_sort(pool, self.data.clone(), &merge_branchless)
    }

    /// Ninja tier: the parallel structure plus the bitonic SIMD merge
    /// network in every merge.
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        parallel_sort(pool, self.data.clone(), &|a, b, out| {
            merge_simd_on(kind, a, b, out)
        })
    }
}

/// Classic two-pointer scalar merge of sorted `a` and `b` into `out`.
///
/// # Panics
///
/// Debug-panics if `a.len() + b.len() != out.len()`.
// ninja-lint: effort(naive)
pub fn merge_scalar(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut ia, mut ib) = (0, 0);
    for o in out.iter_mut() {
        if ia < a.len() && (ib >= b.len() || a[ia] <= b[ib]) {
            *o = a[ia];
            ia += 1;
        } else {
            *o = b[ib];
            ib += 1;
        }
    }
}

/// Branch-free scalar merge: the same stable order as [`merge_scalar`]
/// without a data-dependent branch per element.
///
/// On random input `merge_scalar`'s `a[ia] <= b[ib]` branch mispredicts
/// about half the time, and that, not the missing vectors, was most of the
/// compiler rungs' gap to the ninja rung. Here two chains run in one loop:
/// the front chain writes the smallest remaining element upward from
/// `out[0]` (taking `a` on ties) and the back chain the largest downward
/// from the end (taking `b` on ties), so their load → compare → advance
/// latencies overlap. Each chain writes `min`/`max` of its two heads and
/// moves its cursors by `take as usize`. The loop stops while both runs
/// still have an element between the chains, and [`merge_scalar`] merges
/// that middle.
///
/// The select is `min`/`max`, not `if take_a { x } else { y }`: in a
/// one-chain loop LLVM's x86 cmov conversion turns that select, which sits
/// on the loop's critical path, back into a branch. In this two-chain loop
/// the `if` happened to compile to a mask blend, but `min`/`max` leaves the
/// optimizer no branch to choose. The algorithmic rung on a 2-vCPU AVX2
/// Xeon, 2^20 floats, 2 threads, best of 15 calls per run: 67–79 ms with
/// `merge_scalar`, 37–42 ms with this merge, 35–41 ms with its `if` form,
/// 48–52 ms with one chain and `min`, and 84–91 ms with one chain and the
/// `if` (a `jae` on the compare, slower than `merge_scalar`).
///
/// Inputs must be NaN-free (the kernel's generator draws from a finite
/// range; [`merge_simd`] has the same precondition). Equal elements are
/// interchangeable, so `-0.0` and `+0.0` may come out in either order.
///
/// # Panics
///
/// Panics if `a.len() + b.len() != out.len()`.
// ninja-lint: effort(simd, algorithmic)
pub fn merge_branchless(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len() + b.len(), out.len());
    let (mut ia, mut ib) = (0, 0);
    let (mut ja, mut jb) = (a.len(), b.len());
    while ia < ja && ib < jb {
        let (x, y) = (a[ia], b[ib]);
        let (u, v) = (a[ja - 1], b[jb - 1]);
        let front_a = x <= y;
        let back_a = u > v;
        out[ia + ib] = x.min(y);
        out[ja + jb - 1] = u.max(v);
        ia += front_a as usize;
        ib += !front_a as usize;
        ja -= back_a as usize;
        jb -= !back_a as usize;
    }
    merge_scalar(&a[ia..ja], &b[ib..jb], &mut out[ia + ib..ja + jb]);
}

/// Merges two ascending vectors into one ascending sequence of twice
/// the lane count, returned as `(low half, high half)`.
///
/// `a` followed by `b` reversed is bitonic, and Batcher's bitonic merger
/// in its shuffle-exchange form is the same round repeated `log2` of the
/// sequence length times: compare-exchange the two halves lane by lane,
/// then perfect-shuffle them. That needs only `min`, `max`, `interleave`
/// and `reverse`, at any vector width.
#[inline(always)]
// ninja-lint: effort(ninja)
fn bitonic_merge<I: Isa>(a: I::F32, b: I::F32) -> (I::F32, I::F32) {
    let (mut lo, mut hi) = (a, b.reverse());
    for _ in 0..(2 * <I::F32 as SimdF32>::LANES).trailing_zeros() {
        (lo, hi) = lo.min(hi).interleave(lo.max(hi));
    }
    (lo, hi)
}

/// SIMD merge: streams vectors through the bitonic network, refilling
/// from whichever run has the smaller next head; finishes with a scalar
/// 3-way merge of the in-flight vector and both tails. Runs on the active
/// ISA backend.
///
/// # Panics
///
/// Debug-panics if `a.len() + b.len() != out.len()`.
pub fn merge_simd(a: &[f32], b: &[f32], out: &mut [f32]) {
    merge_simd_on(isa::active(), a, b, out)
}

// ninja-lint: effort(ninja)
fn merge_simd_on(kind: IsaKind, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    dispatch_on(kind, BitonicMerge { a, b, out })
}

/// One [`merge_simd`] call, under whichever ISA backend is dispatched.
struct BitonicMerge<'a> {
    a: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
}

impl IsaOp for BitonicMerge<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (a, b, out) = (self.a, self.b, self.out);
        if a.len() < 2 * lanes || b.len() < 2 * lanes {
            return merge_scalar(a, b, out);
        }
        let mut ia = lanes;
        let mut ib = lanes;
        let mut io = 0usize;
        let mut va = I::F32::load(a);
        let mut inflight = I::F32::load(b);
        // Invariant: va holds the smallest unwritten elements' candidates;
        // every written element <= everything still unmerged.
        loop {
            let (lo, hi) = bitonic_merge::<I>(va, inflight);
            lo.store(&mut out[io..]);
            io += lanes;
            va = hi;
            // Refill strictly from the run whose next element is globally
            // smallest; if that run cannot supply a full vector, fall
            // through to the scalar tail (streaming the *other* run instead
            // would emit values larger than the exhausted run's remainder).
            let a_next = a.get(ia).copied().unwrap_or(f32::INFINITY);
            let b_next = b.get(ib).copied().unwrap_or(f32::INFINITY);
            if a_next <= b_next {
                if ia + lanes > a.len() {
                    break;
                }
                inflight = I::F32::load(&a[ia..]);
                ia += lanes;
            } else {
                if ib + lanes > b.len() {
                    break;
                }
                inflight = I::F32::load(&b[ib..]);
                ib += lanes;
            }
        }
        // Scalar 3-way merge of the spilled register and both tails.
        let mut spill = [0.0f32; MAX_ISA_F32_LANES];
        va.store(&mut spill);
        let mut is = 0usize;
        while io < out.len() {
            let sa = if ia < a.len() { a[ia] } else { f32::INFINITY };
            let sb = if ib < b.len() { b[ib] } else { f32::INFINITY };
            let ss = if is < lanes { spill[is] } else { f32::INFINITY };
            if ss <= sa && ss <= sb {
                out[io] = ss;
                is += 1;
            } else if sa <= sb {
                out[io] = sa;
                ia += 1;
            } else {
                out[io] = sb;
                ib += 1;
            }
            io += 1;
        }
    }
}

// ninja-lint: effort(simd, algorithmic, ninja)
fn insertion_sort(v: &mut [f32]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] > x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// A merge of two sorted runs into `out`: what the sort drivers are
/// parameterized over ([`merge_scalar`], [`merge_branchless`],
/// [`merge_simd`]).
pub type MergeFn<'a> = &'a (dyn Fn(&[f32], &[f32], &mut [f32]) + Sync);

/// Serial bottom-up merge sort with one ping-pong buffer.
// ninja-lint: effort(simd, algorithmic, ninja)
fn bottom_up_sort(buf: &mut [f32], tmp: &mut [f32], merge: MergeFn<'_>) {
    bottom_up_sort_with_cutoff(buf, tmp, merge, INSERTION_CUTOFF)
}

/// Serial bottom-up merge sort with a configurable insertion-sort base
/// case — exposed for the blocking-size ablation bench (experiment A1).
///
/// # Panics
///
/// Panics if `cutoff == 0` or `tmp.len() != buf.len()`.
// ninja-lint: effort(simd, algorithmic, ninja)
pub fn bottom_up_sort_with_cutoff(
    buf: &mut [f32],
    tmp: &mut [f32],
    merge: MergeFn<'_>,
    cutoff: usize,
) {
    assert!(cutoff > 0, "cutoff must be positive");
    assert_eq!(buf.len(), tmp.len(), "scratch must match input length");
    let n = buf.len();
    for chunk in buf.chunks_mut(cutoff) {
        insertion_sort(chunk);
    }
    let mut width = cutoff;
    let mut in_buf = true; // current data lives in `buf`
    while width < n {
        {
            let (src, dst): (&[f32], &mut [f32]) = if in_buf {
                (&*buf, &mut *tmp)
            } else {
                (&*tmp, &mut *buf)
            };
            let mut lo = 0;
            while lo < n {
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                if mid < hi {
                    merge(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi]);
                } else {
                    dst[lo..hi].copy_from_slice(&src[lo..hi]);
                }
                lo = hi;
            }
        }
        in_buf = !in_buf;
        width *= 2;
    }
    if !in_buf {
        buf.copy_from_slice(tmp);
    }
}

/// Chunk-parallel sort followed by parallel pairwise merge rounds.
// ninja-lint: effort(algorithmic, ninja)
fn parallel_sort(pool: &ThreadPool, mut buf: Vec<f32>, merge: MergeFn<'_>) -> Vec<f32> {
    let n = buf.len();
    if n <= 2 * JOIN_CUTOFF || pool.num_threads() == 1 {
        let mut tmp = vec![0.0f32; n];
        bottom_up_sort(&mut buf, &mut tmp, merge);
        return buf;
    }
    let chunks = (pool.num_threads() * 4)
        .next_power_of_two()
        .min((n / JOIN_CUTOFF).next_power_of_two());
    let chunk_len = n.div_ceil(chunks);

    par_chunks_mut(pool, &mut buf, chunk_len, |_, c| {
        let mut tmp = vec![0.0f32; c.len()];
        bottom_up_sort(c, &mut tmp, merge);
    });

    let mut tmp = vec![0.0f32; n];
    let mut width = chunk_len;
    let mut cur_is_buf = true;
    while width < n {
        {
            let (src, dst): (&[f32], &mut [f32]) = if cur_is_buf {
                (&buf, &mut tmp)
            } else {
                (&tmp, &mut buf)
            };
            par_chunks_mut(pool, dst, 2 * width, |pair_idx, out| {
                let lo = pair_idx * 2 * width;
                let mid = (lo + width).min(n);
                let hi = (lo + out.len()).min(n);
                if mid < hi {
                    merge(&src[lo..mid], &src[mid..hi], out);
                } else {
                    out.copy_from_slice(&src[lo..hi]);
                }
            });
        }
        cur_is_buf = !cur_is_buf;
        width *= 2;
    }
    if cur_is_buf {
        buf
    } else {
        tmp
    }
}

fn run(k: &MergeSort, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &MergeSort) -> Work {
    let n = k.len() as f64;
    let levels = n.log2().ceil();
    Work {
        flops: n * levels, // one compare per element per level
        bytes: n * levels * 8.0,
        elems: k.len() as u64,
    }
}

/// Suite entry for the MergeSort kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "mergesort",
        description: "large-array float sort (bandwidth bound, SIMD merge network showcase)",
        bound: "memory",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "top-down recursion, allocation per merge",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 7,
                what_changed: "fork the recursion with join",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 56,
                what_changed: "iterative bottom-up, insertion base, branch-free scalar merge",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 80,
                what_changed: "ping-pong buffer, chunk-parallel + parallel branch-free merges",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 115,
                what_changed: "vector-width bitonic SIMD merge network in the inner loop",
            },
        ],
        character: Characterization {
            flops_per_elem: 22.0,
            bytes_per_elem: 176.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.85,
            parallel_frac: 0.95,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.8, // allocation removal + bottom-up locality
            simd_efficiency: 0.7,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: MergeSort::generate(size, seed),
                name: "mergesort",
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
    use ninja_simd::isa::available_kinds;

    fn sorted_copy(v: &[f32]) -> Vec<f32> {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s
    }

    /// Two sorted vectors through the network, on one backend.
    struct MergeVectors<'a>(&'a [f32], &'a [f32]);
    impl IsaOp for MergeVectors<'_> {
        type Output = Vec<f32>;
        fn run<I: Isa>(self) -> Vec<f32> {
            let lanes = <I::F32 as SimdF32>::LANES;
            let (lo, hi) = bitonic_merge::<I>(I::F32::load(self.0), I::F32::load(self.1));
            let mut out = vec![0.0f32; 2 * lanes];
            lo.store(&mut out);
            hi.store(&mut out[lanes..]);
            out
        }
    }

    #[test]
    fn bitonic_merge_handles_all_interleavings() {
        let odd: Vec<f32> = (0..MAX_ISA_F32_LANES).map(|i| (2 * i + 1) as f32).collect();
        let even: Vec<f32> = (0..MAX_ISA_F32_LANES).map(|i| (2 * i + 2) as f32).collect();
        let high: Vec<f32> = (0..MAX_ISA_F32_LANES).map(|i| (100 + i) as f32).collect();
        let same = [5.0f32; MAX_ISA_F32_LANES];
        for kind in available_kinds() {
            let lanes = kind.width_bits() / 32;
            // Perfectly interleaved, one run entirely below the other
            // (both ways round), and all duplicates.
            for (a, b) in [(&odd, &even), (&high, &even), (&even, &high)] {
                let got = dispatch_on(kind, MergeVectors(a, b));
                let mut want = [&a[..lanes], &b[..lanes]].concat();
                want.sort_by(|x, y| x.partial_cmp(y).unwrap());
                assert_eq!(got, want, "{kind}");
            }
            let got = dispatch_on(kind, MergeVectors(&same, &same));
            assert_eq!(got, vec![5.0; 2 * lanes], "{kind}");
        }
    }

    /// Every pair of run lengths from empty to past four vectors, under
    /// every backend: both sides of the `2 * LANES` scalar cut-over, every
    /// refill pattern, and every tail length.
    #[test]
    fn simd_merge_matches_scalar_merge() {
        let mut rng = SmallRng::seed_from_u64(99);
        for kind in available_kinds() {
            let top = 4 * (kind.width_bits() / 32) + 1;
            for (la, lb) in (0..=top).flat_map(|la| (0..=top).map(move |lb| (la, lb))) {
                let mut a: Vec<f32> = (0..la).map(|_| rng.gen_range(-100.0..100.0)).collect();
                let mut b: Vec<f32> = (0..lb).map(|_| rng.gen_range(-100.0..100.0)).collect();
                a.sort_by(|x, y| x.partial_cmp(y).unwrap());
                b.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let mut got = vec![0.0f32; la + lb];
                let mut want = vec![0.0f32; la + lb];
                merge_simd_on(kind, &a, &b, &mut got);
                merge_scalar(&a, &b, &mut want);
                assert_eq!(got, want, "{kind} sizes ({la},{lb})");
            }
        }
    }

    /// The whole rung under every backend, at lengths on every residue of
    /// the widest lane count (exact comparison: a sort has no tolerance).
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            1000..1000 + MAX_ISA_F32_LANES,
            0.0,
            |n| {
                let mut k = MergeSort::generate(ProblemSize::Test, 17);
                k.data.truncate(n);
                k
            },
            MergeSort::run_naive,
            MergeSort::run_ninja_on,
        );
    }

    #[test]
    fn simd_merge_exhaustion_regression() {
        // Found by proptest: when one run is nearly exhausted, the vector
        // loop must not keep streaming the other run past the exhausted
        // run's remaining (smaller) elements.
        for kind in available_kinds() {
            let lanes = kind.width_bits() / 32;
            let a: Vec<f32> = vec![0.0; 2 * lanes + 1]; // 1 element left after two vectors
            let mut b: Vec<f32> = vec![0.0; 2 * lanes];
            b.extend((1..=2 * lanes).map(|i| i as f32));
            let mut got = vec![0.0f32; a.len() + b.len()];
            let mut want = vec![0.0f32; a.len() + b.len()];
            merge_simd_on(kind, &a, &b, &mut got);
            merge_scalar(&a, &b, &mut want);
            assert_eq!(got, want, "{kind}");
        }
    }

    /// Every pair of run lengths up to 33 (odd and even, both chains
    /// meeting in every place), over values dense in ties and with both
    /// infinities, against the stable order of `merge_scalar`.
    #[test]
    fn branchless_merge_matches_scalar_merge_for_every_length_pair() {
        let values = [f32::NEG_INFINITY, -1.0, 0.0, 0.5, 1.0, f32::INFINITY];
        let mut rng = SmallRng::seed_from_u64(39);
        let mut sorted_run = |len: usize| {
            let v: Vec<f32> = (0..len)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            sorted_copy(&v)
        };
        for (la, lb) in (0..=33).flat_map(|la| (0..=33).map(move |lb| (la, lb))) {
            for _ in 0..4 {
                let (a, b) = (sorted_run(la), sorted_run(lb));
                let mut got = vec![f32::NAN; la + lb];
                let mut want = vec![0.0f32; la + lb];
                merge_branchless(&a, &b, &mut got);
                merge_scalar(&a, &b, &mut want);
                assert_eq!(got, want, "sizes ({la},{lb}): a={a:?} b={b:?}");
            }
        }
    }

    /// The two rungs that merge with `merge_branchless` against the naive
    /// rung, on both sides of the `2 * JOIN_CUTOFF` switch to the parallel
    /// path and at a length whose chunks and merge rounds are ragged.
    #[test]
    fn branchless_rungs_match_naive_around_the_parallel_switch() {
        let pool = ThreadPool::with_threads(2);
        let mut rng = SmallRng::seed_from_u64(7);
        let switch = 2 * JOIN_CUTOFF;
        for n in [switch - 1, switch, switch + 1, 3 * switch + 7] {
            let k = MergeSort {
                data: (0..n).map(|_| rng.gen_range(-1e6..1e6_f32)).collect(),
            };
            let want = k.run_naive();
            assert_eq!(k.run_algorithmic(&pool), want, "algorithmic n={n}");
            assert_eq!(k.run_simd(), want, "simd n={n}");
        }
    }

    #[test]
    fn all_variants_sort_correctly() {
        let k = MergeSort::generate(ProblemSize::Test, 3);
        let pool = ThreadPool::with_threads(3);
        let want = sorted_copy(&k.data);
        assert_eq!(k.run_naive(), want, "naive");
        assert_eq!(k.run_parallel(&pool), want, "parallel");
        assert_eq!(k.run_simd(), want, "simd");
        assert_eq!(k.run_algorithmic(&pool), want, "algorithmic");
        assert_eq!(k.run_ninja(&pool), want, "ninja");
    }

    #[test]
    fn sorting_preserves_multiset() {
        let k = MergeSort::generate(ProblemSize::Test, 8);
        let pool = ThreadPool::with_threads(2);
        let out = k.run_ninja(&pool);
        let mut orig = k.data.clone();
        let mut sorted = out.clone();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(orig, sorted);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tiny_and_empty_inputs() {
        for n in [0usize, 1, 2, 3, 15, 17] {
            let mut k = MergeSort::generate(ProblemSize::Test, 1);
            k.data.truncate(n);
            let want = sorted_copy(&k.data);
            let pool = ThreadPool::with_threads(2);
            assert_eq!(k.run_naive(), want, "naive n={n}");
            assert_eq!(k.run_simd(), want, "simd n={n}");
            assert_eq!(k.run_ninja(&pool), want, "ninja n={n}");
        }
    }

    #[test]
    fn adapter_validates_all_variants() {
        let spec = spec();
        let pool = ThreadPool::with_threads(2);
        let mut inst = (spec.make)(ProblemSize::Test, 5);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
        }
    }
}
