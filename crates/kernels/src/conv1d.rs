//! Complex 1D convolution: a 16-tap complex FIR filter over a long signal.
//!
//! The paper's poster child for **AoS→SoA conversion**: complex numbers
//! stored as `{re, im}` structs defeat the vectorizer (the real/imaginary
//! cross terms become strided accesses), while split `re[]`/`im[]` arrays
//! make the filter a pure streaming kernel.
//!
//! `out[i] = Σ_k taps[k] · sig[i+k]` (complex multiply-accumulate, "valid"
//! mode: the output is `N − K + 1` samples long).

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Isa, IsaKind, IsaOp, SimdF32};
use ninja_simd::AlignedVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of filter taps (the paper uses short FIR filters of this order).
pub const TAPS: usize = 16;

/// Output samples per parallel chunk of the threaded rungs.
const CHUNK: usize = 8192;

/// Output samples per accumulator block of the compiler rungs.
const BLOCK: usize = 32;

/// Independent vector groups per step of the ninja rung.
const GROUPS: usize = 4;

/// A complex sample in the naive array-of-structs layout.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

/// A complex FIR filtering problem instance.
///
/// The tap array is deliberately a runtime-sized `Vec` (as real filter code
/// reads coefficients from a file): with a compile-time-sized array, LLVM
/// fully unrolls and SLP-vectorizes even the "naive" AoS loop, which would
/// erase the baseline the paper defines.
pub struct Conv1d {
    signal: Vec<Complex>,
    taps: Vec<Complex>,
    // SoA mirrors, cache-line aligned for the explicit-SIMD tier.
    sig_re: AlignedVec<f32>,
    sig_im: AlignedVec<f32>,
}

impl Conv1d {
    /// Signal length for each size preset.
    pub fn n_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 4096,
            ProblemSize::Quick => 1 << 20,
            ProblemSize::Paper => 1 << 22,
        }
    }

    /// Generates a deterministic random signal and filter.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_len(Self::n_for(size), seed)
    }

    fn with_len(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample = |rng: &mut SmallRng| Complex {
            re: rng.gen_range(-1.0..1.0),
            im: rng.gen_range(-1.0..1.0),
        };
        let signal: Vec<Complex> = (0..n).map(|_| sample(&mut rng)).collect();
        let taps: Vec<Complex> = (0..TAPS).map(|_| sample(&mut rng)).collect();
        let sig_re: AlignedVec<f32> = signal.iter().map(|c| c.re).collect();
        let sig_im: AlignedVec<f32> = signal.iter().map(|c| c.im).collect();
        Self {
            signal,
            taps,
            sig_re,
            sig_im,
        }
    }

    /// Output length (`N − K + 1`).
    pub fn out_len(&self) -> usize {
        self.signal.len() - TAPS + 1
    }

    /// Naive tier: serial AoS complex MAC loop.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let m = self.out_len();
        let mut out = vec![0.0f32; 2 * m];
        for i in 0..m {
            let mut acc = Complex::default();
            for (k, t) in self.taps.iter().enumerate() {
                let s = self.signal[i + k];
                acc.re += t.re * s.re - t.im * s.im;
                acc.im += t.re * s.im + t.im * s.re;
            }
            out[2 * i] = acc.re;
            out[2 * i + 1] = acc.im;
        }
        out
    }

    /// Parallel tier: naive loop behind a `parallel_for`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let m = self.out_len();
        let mut out = vec![0.0f32; 2 * m];
        par_chunks_mut(pool, &mut out, 2 * CHUNK, |chunk_idx, chunk| {
            let base = chunk_idx * CHUNK;
            for (j, pair) in chunk.chunks_mut(2).enumerate() {
                let i = base + j;
                let mut acc = Complex::default();
                for (k, t) in self.taps.iter().enumerate() {
                    let s = self.signal[i + k];
                    acc.re += t.re * s.re - t.im * s.im;
                    acc.im += t.re * s.im + t.im * s.re;
                }
                pair[0] = acc.re;
                pair[1] = acc.im;
            }
        });
        out
    }

    /// Fills interleaved `(re, im)` output pairs from `i = lo` on: whole
    /// blocks of [`BLOCK`] outputs, then one short block. The whole blocks
    /// come from `chunks_exact_mut`, so their length is a constant and
    /// their accumulators stay in registers (a `chunks_mut` loop measured
    /// ~1.5X slower). `inline(always)` so it compiles inside its callers'
    /// feature frames (see `isa::with_active_features`).
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn soa_range(&self, lo: usize, out: &mut [f32]) {
        let full = out.len() / (2 * BLOCK) * BLOCK;
        let mut blocks = out.chunks_exact_mut(2 * BLOCK);
        for (b, block) in (&mut blocks).enumerate() {
            self.soa_block(lo + b * BLOCK, block);
        }
        self.soa_block(lo + full, blocks.into_remainder());
    }

    /// Output-stationary block: every tap runs over a block of SoA
    /// accumulators (tap-outer, sample-inner, unit-stride float arithmetic
    /// only), in the naive rung's order per output, and the block is
    /// stored once. A tap-outer pass over a whole chunk would re-read and
    /// re-write its scratch once per tap instead.
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn soa_block(&self, i: usize, out: &mut [f32]) {
        let n = out.len() / 2;
        let (mut re, mut im) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
        let (re, im) = (&mut re[..n], &mut im[..n]);
        for (k, t) in self.taps.iter().enumerate() {
            let (tr, ti) = (t.re, t.im);
            // Slice every stream to the common length up front: one bounds
            // check per tap instead of one per sample, so the inner loop is
            // panic-free and the auto-vectorizer can turn it into packed
            // arithmetic (with per-sample checks LLVM emits scalar code —
            // caught by the NL008 asm audit).
            let sr = &self.sig_re[i + k..][..n];
            let si = &self.sig_im[i + k..][..n];
            for j in 0..n {
                re[j] += tr * sr[j] - ti * si[j];
                im[j] += tr * si[j] + ti * sr[j];
            }
        }
        interleave_into(re, im, out);
    }

    /// Compiler-vectorizable tier: serial SoA, output-stationary blocks.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256)
    pub fn run_simd(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; 2 * self.out_len()];
        isa::with_active_features(
            #[inline(always)]
            |_| self.soa_range(0, &mut out),
        );
        out
    }

    /// Low-effort endpoint: SoA output-stationary blocks plus
    /// `parallel_for`. Each chunk runs inside the feature frame and writes
    /// its `(re, im)` pairs straight into its slice of the output.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; 2 * self.out_len()];
        par_chunks_mut(pool, &mut out, 2 * CHUNK, |chunk_idx, chunk| {
            isa::with_active_features(
                #[inline(always)]
                |_| self.soa_range(chunk_idx * CHUNK, chunk),
            );
        });
        out
    }

    /// Ninja tier: explicit width-generic SIMD complex MAC (unit-stride
    /// loads, [`GROUPS`] vectors of outputs summing all taps in registers,
    /// one interleaved `(re, im)` store per vector), parallel over output
    /// chunks.
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
        let mut out = vec![0.0f32; 2 * self.out_len()];
        par_chunks_mut(pool, &mut out, 2 * CHUNK, |chunk_idx, chunk| {
            dispatch_on(
                kind,
                ConvChunk {
                    kernel: self,
                    lo: chunk_idx * CHUNK,
                    out: chunk,
                },
            );
        });
        out
    }
}

/// One output chunk of the ninja rung's complex MAC, evaluated under
/// whichever ISA backend the dispatcher selects.
struct ConvChunk<'a> {
    kernel: &'a Conv1d,
    /// First output sample index covered by this chunk.
    lo: usize,
    /// The chunk's interleaved `(re, im)` output pairs.
    out: &'a mut [f32],
}

impl IsaOp for ConvChunk<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let this = self.kernel;
        let (lo, out) = (self.lo, self.out);
        let len = out.len() / 2;
        // Hoist the broadcast taps out of the hot loops (the register type
        // depends on the instantiated backend, so the splat happens per
        // chunk — 16 splats against 8192 samples). `-ti` is splatted too,
        // so each half of the complex MAC is two dependent FMAs.
        let taps_v: Vec<Tap<I>> = this
            .taps
            .iter()
            .map(|t| Tap {
                re: I::F32::splat(t.re),
                im: I::F32::splat(t.im),
                neg_im: I::F32::splat(-t.im),
            })
            .collect();
        let span = GROUPS * lanes;
        let (grouped, whole) = (len / span * span, len / lanes * lanes);
        for j in (0..grouped).step_by(span) {
            mac_groups::<I, GROUPS>(this, &taps_v, lo + j, &mut out[2 * j..]);
        }
        for j in (grouped..whole).step_by(lanes) {
            mac_groups::<I, 1>(this, &taps_v, lo + j, &mut out[2 * j..]);
        }
        // Masked tail: partial loads of the remaining samples (inactive
        // lanes read as zero and contribute nothing), partial stores of
        // the remaining `2n` interleaved outputs. The source windows end
        // exactly at the last sample the active lanes touch.
        if whole < len {
            let n = len - whole;
            let i = lo + whole;
            let mut acc_re = I::F32::zero();
            let mut acc_im = I::F32::zero();
            for (k, t) in taps_v.iter().enumerate() {
                let sr = I::F32::load_partial(&this.sig_re[i + k..i + k + n]);
                let si = I::F32::load_partial(&this.sig_im[i + k..i + k + n]);
                acc_re = t.neg_im.mul_add(si, t.re.mul_add(sr, acc_re));
                acc_im = t.im.mul_add(sr, t.re.mul_add(si, acc_im));
            }
            let (pairs_lo, pairs_hi) = acc_re.interleave(acc_im);
            let tail = &mut out[2 * whole..];
            pairs_lo.store_partial(tail);
            if tail.len() > lanes {
                pairs_hi.store_partial(&mut tail[lanes..]);
            }
        }
    }
}

/// One complex tap broadcast to every lane, with its imaginary part
/// negated once up front.
struct Tap<I: Isa> {
    re: I::F32,
    im: I::F32,
    neg_im: I::F32,
}

/// `G` vectors of outputs from sample `i` on, as `G` independent
/// `(re, im)` accumulator chains (the FMA latency is hidden by the other
/// chains), stored once as interleaved pairs into `out`. Each tap reads
/// one bounds-checked window per stream, so the loads carry no checks.
#[inline(always)]
// ninja-lint: effort(ninja)
fn mac_groups<I: Isa, const G: usize>(k: &Conv1d, taps: &[Tap<I>], i: usize, out: &mut [f32]) {
    let lanes = <I::F32 as SimdF32>::LANES;
    let mut re = [I::F32::zero(); G];
    let mut im = [I::F32::zero(); G];
    for (kk, t) in taps.iter().enumerate() {
        let sr = &k.sig_re[i + kk..][..G * lanes];
        let si = &k.sig_im[i + kk..][..G * lanes];
        for g in 0..G {
            let r = I::F32::load(&sr[g * lanes..]);
            let s = I::F32::load(&si[g * lanes..]);
            re[g] = t.neg_im.mul_add(s, t.re.mul_add(r, re[g]));
            im[g] = t.im.mul_add(r, t.re.mul_add(s, im[g]));
        }
    }
    let out = &mut out[..2 * G * lanes];
    for g in 0..G {
        let (pairs_lo, pairs_hi) = re[g].interleave(im[g]);
        pairs_lo.store(&mut out[2 * g * lanes..]);
        pairs_hi.store(&mut out[(2 * g + 1) * lanes..]);
    }
}

/// Writes `re`/`im` as interleaved `(re, im)` pairs into `out`, which
/// holds exactly `2 * re.len()` floats.
#[inline(always)]
fn interleave_into(re: &[f32], im: &[f32], out: &mut [f32]) {
    for ((pair, &r), &i) in out.chunks_exact_mut(2).zip(re).zip(im) {
        pair[0] = r;
        pair[1] = i;
    }
}

fn run(k: &Conv1d, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &Conv1d) -> Work {
    let m = k.out_len() as f64;
    Work {
        flops: m * (TAPS as f64) * 8.0,
        bytes: m * 16.0,
        elems: k.out_len() as u64,
    }
}

/// Suite entry for the complex 1D convolution kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "conv1d",
        description: "16-tap complex FIR filter (compute bound, AoS->SoA showcase)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "serial AoS complex MAC",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 8,
                what_changed: "parallel_for over outputs",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 23,
                what_changed: "split re/im arrays, output-stationary blocks",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 25,
                what_changed: "SoA output blocks + parallel_for",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 64,
                what_changed: "hand SIMD complex MAC, 4 independent FMA chain pairs",
            },
        ],
        character: Characterization {
            flops_per_elem: TAPS as f64 * 8.0,
            bytes_per_elem: 16.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 1.0,
            simd_friendly_frac: 1.0,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.0,
            simd_efficiency: 1.0,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: Conv1d::generate(size, seed),
                name: "conv1d",
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
    fn identity_filter_passes_signal_through() {
        let mut k = Conv1d::generate(ProblemSize::Test, 1);
        k.taps = vec![Complex::default(); TAPS];
        k.taps[0] = Complex { re: 1.0, im: 0.0 };
        let out = k.run_naive();
        for i in 0..k.out_len() {
            assert_eq!(out[2 * i], k.signal[i].re);
            assert_eq!(out[2 * i + 1], k.signal[i].im);
        }
    }

    #[test]
    fn multiply_by_i_rotates() {
        let mut k = Conv1d::generate(ProblemSize::Test, 2);
        k.taps = vec![Complex::default(); TAPS];
        k.taps[0] = Complex { re: 0.0, im: 1.0 }; // i * (a+bi) = -b + ai
        let out = k.run_naive();
        for i in 0..8 {
            assert_eq!(out[2 * i], -k.signal[i].im);
            assert_eq!(out[2 * i + 1], k.signal[i].re);
        }
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let k = Conv1d::generate(ProblemSize::Test, 3);
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

    /// Output lengths (`n - TAPS + 1`) on every residue of twice the
    /// widest lane count: the paired-accumulator loop, the single-vector
    /// loop and the masked tail each run at every remainder.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        let first = TAPS + 40;
        crate::framework::assert_conforms_on_every_backend(
            first..first + 2 * ninja_simd::isa::MAX_ISA_F32_LANES,
            1e-4,
            |n| Conv1d::with_len(n, 9),
            Conv1d::run_naive,
            Conv1d::run_ninja_on,
        );
    }

    /// The compiler rungs' loop body inside each backend's feature frame
    /// is bit-identical to the naive rung: it sums each output's taps in
    /// the same order, and Rust never contracts `a * b + c`. Output
    /// lengths run over every residue of the accumulator block and of two
    /// 256-bit vectors (both powers of two), so full blocks, the short
    /// last block and the auto-vectorized loop's scalar epilogue all run.
    #[test]
    fn compiler_rung_body_conforms_on_every_backend_at_every_residue() {
        let first = TAPS + 40;
        crate::framework::assert_bit_identical_on_every_backend(
            first..first + BLOCK.max(2 * ninja_simd::isa::MAX_ISA_F32_LANES),
            |n| Conv1d::with_len(n, 9),
            Conv1d::run_naive,
            |k, kind, _| {
                let mut out = vec![0.0f32; 2 * k.out_len()];
                isa::with_features_on(
                    kind,
                    #[inline(always)]
                    |_| k.soa_range(0, &mut out),
                );
                out
            },
        );
    }

    /// Output lengths around the chunk size: a partial single chunk, an
    /// exact one, one sample into a second chunk, and a second chunk that
    /// ends in a short block and the interleaved masked tail. The
    /// parallel and algorithmic rungs stay bit-identical to the naive
    /// rung; the ninja rung fuses, so it conforms to the tolerance, on
    /// every backend. The other two rungs' chunking does not depend on a
    /// backend (the backend-dependent loop body is covered above).
    #[test]
    fn threaded_rungs_conform_across_chunk_boundaries() {
        let lanes = ninja_simd::isa::MAX_ISA_F32_LANES;
        let sizes = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + lanes + 1].map(|m| m + TAPS - 1);
        let make = |n| Conv1d::with_len(n, 11);
        crate::framework::assert_bit_identical_on_every_backend(
            sizes,
            make,
            Conv1d::run_naive,
            |k, _, pool| k.run_parallel(pool),
        );
        crate::framework::assert_bit_identical_on_every_backend(
            sizes,
            make,
            Conv1d::run_naive,
            |k, _, pool| k.run_algorithmic(pool),
        );
        crate::framework::assert_conforms_on_every_backend(
            sizes,
            1e-4,
            make,
            Conv1d::run_naive,
            Conv1d::run_ninja_on,
        );
    }

    #[test]
    fn output_length_is_valid_mode() {
        let k = Conv1d::generate(ProblemSize::Test, 4);
        assert_eq!(k.out_len(), Conv1d::n_for(ProblemSize::Test) - TAPS + 1);
        assert_eq!(k.run_naive().len(), 2 * k.out_len());
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
}
