//! Tail-handling edge tests: masked loads/stores and `first_n_mask` at
//! n = 0, n < lanes, n = lanes-1, n = lanes, n = lanes+1 (clamped), on
//! deliberately unaligned buffers, asserting correct partial results and
//! that lanes outside the mask never touch memory (sentinel values
//! around the window must survive, and source/destination slices are
//! exactly the window so an out-of-bounds access would be out of the
//! allocation).

use ninja_simd::isa::{
    available_kinds, dispatch_on, Isa, IsaOp, SimdF32, SimdF64, SimdI32, SimdMask,
};

/// Loads `n` elements from an unaligned window and stores them back into
/// a sentinel-filled destination at a different unaligned offset.
struct PartialRoundtrip {
    n: usize,
    src_offset: usize,
    dst_offset: usize,
}

/// (lanes, loaded lanes, destination buffer after the masked store).
type RoundtripReport = (usize, Vec<f32>, Vec<f32>);

impl IsaOp for PartialRoundtrip {
    type Output = RoundtripReport;
    fn run<I: Isa>(self) -> RoundtripReport {
        let lanes = <I::F32 as SimdF32>::LANES;
        // Source allocation ends exactly at the window: a read past the
        // n requested elements would run off the heap allocation.
        let src: Vec<f32> = (0..self.src_offset + self.n)
            .map(|i| 100.0 + i as f32)
            .collect();
        let v = I::F32::load_partial(&src[self.src_offset..]);

        let mut loaded = vec![0.0f32; lanes];
        v.store(&mut loaded);

        let mut dst = vec![-1.0f32; self.dst_offset + self.n];
        v.store_partial(&mut dst[self.dst_offset..]);
        (lanes, loaded, dst)
    }
}

#[test]
fn load_store_partial_handle_every_tail_length() {
    for kind in available_kinds() {
        let lanes = kind.width_bits() / 32;
        // n = 0, 1, lanes-1, lanes, lanes+1 (deduped; +1 exercises the
        // clamp), each at element-unaligned source/destination offsets
        // so no 16/32-byte-aligned fast path can hide a masking bug.
        let mut ns = vec![0, 1, lanes.saturating_sub(1), lanes, lanes + 1];
        ns.dedup();
        for n in ns {
            for (so, doff) in [(0, 1), (1, 0), (1, 3), (3, 1)] {
                let (got_lanes, loaded, dst) = dispatch_on(
                    kind,
                    PartialRoundtrip {
                        n,
                        src_offset: so,
                        dst_offset: doff,
                    },
                );
                assert_eq!(got_lanes, lanes);
                let kept = n.min(lanes);
                for (i, l) in loaded.iter().enumerate().take(kept) {
                    let want = 100.0 + (so + i) as f32;
                    assert_eq!(*l, want, "{kind} n={n} src_offset={so}: lane {i}");
                }
                for (i, l) in loaded.iter().enumerate().skip(kept) {
                    assert_eq!(*l, 0.0, "{kind} n={n}: lane {i} must load as zero");
                }
                // Destination: sentinels before the window and past the
                // masked lanes must survive untouched.
                for (i, d) in dst.iter().enumerate() {
                    if i >= doff && i < doff + kept {
                        let want = 100.0 + (so + i - doff) as f32;
                        assert_eq!(*d, want, "{kind} n={n} dst[{i}]");
                    } else {
                        assert_eq!(*d, -1.0, "{kind} n={n}: dst[{i}] sentinel clobbered");
                    }
                }
            }
        }
    }
}

struct MaskShape {
    n: usize,
}

/// (lanes, per-lane truth values, count, any, all) for `first_n(n)`.
type MaskReport = (usize, Vec<bool>, u32, bool, bool);

impl IsaOp for MaskShape {
    type Output = MaskReport;
    fn run<I: Isa>(self) -> MaskReport {
        let lanes = <I::M32 as SimdMask>::LANES;
        let m = I::F32::first_n_mask(self.n);
        let bits: Vec<bool> = (0..lanes).map(|i| m.test(i)).collect();
        (lanes, bits, m.count(), m.any(), m.all())
    }
}

#[test]
fn first_n_mask_shape_at_every_boundary() {
    for kind in available_kinds() {
        for n in 0..=(kind.width_bits() / 32 + 1) {
            let (lanes, bits, count, any, all) = dispatch_on(kind, MaskShape { n });
            let kept = n.min(lanes);
            for (i, bit) in bits.iter().enumerate() {
                assert_eq!(*bit, i < kept, "{kind} first_n({n}) lane {i}");
            }
            assert_eq!(count as usize, kept, "{kind} first_n({n}) count");
            assert_eq!(any, kept > 0, "{kind} first_n({n}) any");
            assert_eq!(all, kept == lanes, "{kind} first_n({n}) all");
        }
    }
}

struct MaskAlgebra;

impl IsaOp for MaskAlgebra {
    type Output = ();
    fn run<I: Isa>(self) {
        let lanes = <I::M32 as SimdMask>::LANES;
        for n in 0..=lanes {
            let m = I::M32::first_n(n);
            let inv = m.not();
            for i in 0..lanes {
                assert!(!m.and(inv).test(i), "n={n} and lane {i}");
                assert!(m.or(inv).test(i), "n={n} or lane {i}");
            }
            assert_eq!(m.and(inv).count(), 0);
            assert_eq!(m.or(inv).count() as usize, lanes);
            assert_eq!(inv.count() as usize, lanes - n);
        }
        assert!(I::M32::none().not().all());
        assert!(!I::M32::all_true().not().any());
    }
}

#[test]
fn mask_boolean_algebra_holds_per_backend() {
    for kind in available_kinds() {
        dispatch_on(kind, MaskAlgebra);
    }
}

/// The f64 side: masked load/store with the 64-bit mask type.
struct PartialF64 {
    n: usize,
    offset: usize,
}

impl IsaOp for PartialF64 {
    type Output = (usize, Vec<f64>);
    fn run<I: Isa>(self) -> (usize, Vec<f64>) {
        let lanes = <I::F64 as SimdF64>::LANES;
        let src: Vec<f64> = (0..self.offset + self.n).map(|i| 7.0 + i as f64).collect();
        let kept = self.n.min(lanes);
        let mask = I::F64::first_n_mask(self.n);
        // SAFETY: the mask enables exactly `kept <= n` lanes, all inside
        // the slice starting at `offset`.
        let v = unsafe { I::F64::load_ptr_mask(src[self.offset..].as_ptr(), mask) };
        let mut dst = vec![-2.0f64; self.offset + lanes];
        // SAFETY: the destination window holds `lanes >= kept` elements.
        unsafe { v.store_ptr_mask(dst[self.offset..].as_mut_ptr(), I::F64::first_n_mask(kept)) };
        (lanes, dst)
    }
}

#[test]
fn f64_masked_roundtrip_preserves_sentinels() {
    for kind in available_kinds() {
        let lanes = kind.width_bits() / 64;
        for n in 0..=lanes + 1 {
            for offset in [0usize, 1, 3] {
                let (got_lanes, dst) = dispatch_on(kind, PartialF64 { n, offset });
                assert_eq!(got_lanes, lanes.max(1));
                let kept = n.min(got_lanes);
                for (i, d) in dst.iter().enumerate() {
                    if i >= offset && i < offset + kept {
                        assert_eq!(*d, 7.0 + i as f64, "{kind} f64 n={n} dst[{i}]");
                    } else {
                        assert_eq!(*d, -2.0, "{kind} f64 n={n}: dst[{i}] clobbered");
                    }
                }
            }
        }
    }
}

/// Gathers with one lane's index replaced by `bad`.
struct GatherWithBadLane {
    bad: i32,
    lane: usize,
}

impl IsaOp for GatherWithBadLane {
    type Output = ();
    fn run<I: Isa>(self) {
        let lanes = <I::I32 as SimdI32>::LANES;
        let table = [1.0f32; 4];
        let mut idx = [0i32; 8];
        idx[self.lane % lanes] = self.bad;
        let _ = I::F32::gather(&table, I::I32::load(&idx));
    }
}

#[test]
fn gather_panics_on_any_out_of_bounds_or_negative_lane() {
    // The hardware gather on AVX2 would read arbitrary memory; the
    // contract is a panic, whichever lane holds the bad index.
    for kind in available_kinds() {
        for bad in [4, 9, i32::MAX, -1, i32::MIN] {
            for lane in [0, 3, 7] {
                let r =
                    std::panic::catch_unwind(|| dispatch_on(kind, GatherWithBadLane { bad, lane }));
                assert!(r.is_err(), "{kind}: index {bad} in lane {lane} must panic");
            }
        }
    }
}

/// Gathers with every lane at `index` from a table of `len` distinct values.
struct GatherEveryLaneAt {
    len: usize,
    index: i32,
}

impl IsaOp for GatherEveryLaneAt {
    type Output = Vec<f32>;
    fn run<I: Isa>(self) -> Vec<f32> {
        let table: Vec<f32> = (0..self.len).map(|i| 10.0 + i as f32).collect();
        let mut out = vec![0.0f32; <I::F32 as SimdF32>::LANES];
        I::F32::gather(&table, I::I32::splat(self.index)).store(&mut out);
        out
    }
}

#[test]
fn gather_reads_the_last_element_in_every_lane() {
    // The bound is exclusive: `len - 1` is the largest index that passes.
    for kind in available_kinds() {
        for len in [1usize, 2, 7, 8, 9, 1000] {
            let got = dispatch_on(
                kind,
                GatherEveryLaneAt {
                    len,
                    index: len as i32 - 1,
                },
            );
            let want = 10.0 + (len - 1) as f32;
            assert!(
                got.iter().all(|&v| v == want),
                "{kind}: len {len}: {got:?}, want {want} in every lane"
            );
        }
    }
}

#[test]
fn gather_on_an_empty_table_panics_for_index_zero() {
    for kind in available_kinds() {
        let r =
            std::panic::catch_unwind(|| dispatch_on(kind, GatherEveryLaneAt { len: 0, index: 0 }));
        assert!(r.is_err(), "{kind}: index 0 into an empty table must panic");
    }
}

/// A full-width load or store on a slice one element short.
struct ShortSlice {
    store: bool,
}

impl IsaOp for ShortSlice {
    type Output = ();
    fn run<I: Isa>(self) {
        let mut short = vec![0.0f32; <I::F32 as SimdF32>::LANES - 1];
        if self.store {
            I::F32::zero().store(&mut short);
        } else {
            let _ = I::F32::load(&short);
        }
    }
}

#[test]
fn full_width_load_and_store_panic_on_a_short_slice() {
    // The partial forms exist for tails; the full forms must refuse.
    for kind in available_kinds() {
        for store in [false, true] {
            let r = std::panic::catch_unwind(|| dispatch_on(kind, ShortSlice { store }));
            assert!(
                r.is_err(),
                "{kind}: store={store} on a short slice must panic"
            );
        }
    }
}
