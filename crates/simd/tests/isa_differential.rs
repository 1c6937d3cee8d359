//! Cross-ISA differential conformance suite.
//!
//! Every `Isa` operation is property-tested on each backend reachable on
//! this host against the one-lane `Scalar` reference:
//!
//! * `i32` operations must agree bit-for-bit;
//! * `f32`/`f64` lane operations other than `mul_add` must agree
//!   bit-for-bit, including NaN and infinity propagation (NaN payloads
//!   are not compared — any NaN matches any NaN);
//! * `mul_add` must land within 2 ULP of either the fused or the
//!   unfused scalar reference (backends differ in FMA contraction);
//! * `rsqrt` must land within 2 ULP of `1.0 / x.sqrt()` for normal
//!   positive inputs (backends differ in estimate and refinement);
//! * width-dependent operations (reductions, interleave, reverse) are
//!   checked per backend against a lane-count-parameterized scalar model.
//!
//! Buffers are `LCM(1, 2, 4, 8) = 8` elements so every backend covers
//! them with whole vectors.

use ninja_simd::isa::{
    available_kinds, dispatch_on, Isa, IsaKind, IsaOp, SimdF32, SimdF64, SimdI32,
};
use proptest::prelude::*;

const N: usize = 8;

fn same_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// ULP distance between two finite same-sign-comparable f32 values.
fn ulp_diff_f32(a: f32, b: f32) -> u32 {
    if same_f32(a, b) {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    let to_ordered = |x: f32| {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

fn ulp_diff_f64(a: f64, b: f64) -> u64 {
    if same_f64(a, b) {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let to_ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

/// f32 values including the edge cases the contract covers: NaN, both
/// infinities, both zeros, subnormals, and arbitrary finite bit
/// patterns across the whole dynamic range.
fn wild_f32() -> impl Strategy<Value = f32> {
    any::<u64>().prop_map(|bits| match bits % 12 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f32::MIN_POSITIVE / 2.0, // subnormal
        6 => f32::MAX,
        _ => {
            let x = f32::from_bits((bits >> 32) as u32);
            if x.is_finite() {
                x
            } else {
                (bits >> 40) as f32 * 1e-3 - 8e3
            }
        }
    })
}

fn wild_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| match bits % 10 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => {
            let x = f64::from_bits(bits.rotate_left(17));
            if x.is_finite() {
                x
            } else {
                (bits >> 20) as f64 * 1e-6
            }
        }
    })
}

#[derive(Copy, Clone, Debug)]
enum F32Op {
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Min,
    Max,
    Abs,
    Sqrt,
    SelEq,
    SelLt,
    SelLe,
    SelGt,
    SelGe,
    BitsRoundtrip,
}

const F32_OPS: [F32Op; 15] = [
    F32Op::Add,
    F32Op::Sub,
    F32Op::Mul,
    F32Op::Div,
    F32Op::Neg,
    F32Op::Min,
    F32Op::Max,
    F32Op::Abs,
    F32Op::Sqrt,
    F32Op::SelEq,
    F32Op::SelLt,
    F32Op::SelLe,
    F32Op::SelGt,
    F32Op::SelGe,
    F32Op::BitsRoundtrip,
];

/// Applies one lane-wise f32 op across an N-element buffer at the
/// backend's native width.
struct ApplyF32 {
    op: F32Op,
    a: [f32; N],
    b: [f32; N],
    c: [f32; N],
}

impl IsaOp for ApplyF32 {
    type Output = Vec<f32>;
    fn run<I: Isa>(self) -> Vec<f32> {
        let lanes = <I::F32 as SimdF32>::LANES;
        let mut out = vec![0.0f32; N];
        for k in (0..N).step_by(lanes) {
            let a = I::F32::load(&self.a[k..]);
            let b = I::F32::load(&self.b[k..]);
            let c = I::F32::load(&self.c[k..]);
            let r = match self.op {
                F32Op::Add => a + b,
                F32Op::Sub => a - b,
                F32Op::Mul => a * b,
                F32Op::Div => a / b,
                F32Op::Neg => -a,
                F32Op::Min => a.min(b),
                F32Op::Max => a.max(b),
                F32Op::Abs => a.abs(),
                F32Op::Sqrt => a.abs().sqrt(),
                F32Op::SelEq => I::F32::select(a.simd_eq(b), c, a),
                F32Op::SelLt => I::F32::select(a.simd_lt(b), c, a),
                F32Op::SelLe => I::F32::select(a.simd_le(b), c, a),
                F32Op::SelGt => I::F32::select(a.simd_gt(b), c, a),
                F32Op::SelGe => I::F32::select(a.simd_ge(b), c, a),
                F32Op::BitsRoundtrip => I::F32::from_bits(a.to_bits()),
            };
            r.store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn f32_lanewise_ops_match_scalar_bitwise(
        a in prop::array::uniform8(wild_f32()),
        b in prop::array::uniform8(wild_f32()),
        c in prop::array::uniform8(wild_f32()),
    ) {
        for op in F32_OPS {
            let want = dispatch_on(IsaKind::Scalar, ApplyF32 { op, a, b, c });
            for kind in available_kinds() {
                let got = dispatch_on(kind, ApplyF32 { op, a, b, c });
                for i in 0..N {
                    prop_assert!(
                        same_f32(got[i], want[i]),
                        "{kind} {op:?} lane {i}: a={} b={} c={} got={} ({:#010x}) want={} ({:#010x})",
                        a[i], b[i], c[i], got[i], got[i].to_bits(), want[i], want[i].to_bits()
                    );
                }
            }
        }
    }
}

struct MulAddF32 {
    a: [f32; N],
    b: [f32; N],
    c: [f32; N],
}

impl IsaOp for MulAddF32 {
    type Output = Vec<f32>;
    fn run<I: Isa>(self) -> Vec<f32> {
        let lanes = <I::F32 as SimdF32>::LANES;
        let mut out = vec![0.0f32; N];
        for k in (0..N).step_by(lanes) {
            let a = I::F32::load(&self.a[k..]);
            let b = I::F32::load(&self.b[k..]);
            let c = I::F32::load(&self.c[k..]);
            a.mul_add(b, c).store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn f32_mul_add_within_2ulp_of_either_reference(
        a in prop::array::uniform8(wild_f32()),
        b in prop::array::uniform8(wild_f32()),
        c in prop::array::uniform8(wild_f32()),
    ) {
        for kind in available_kinds() {
            let got = dispatch_on(kind, MulAddF32 { a, b, c });
            for i in 0..N {
                let fused = a[i].mul_add(b[i], c[i]);
                let unfused = a[i] * b[i] + c[i];
                let ok = ulp_diff_f32(got[i], fused) <= 2 || ulp_diff_f32(got[i], unfused) <= 2;
                prop_assert!(
                    ok,
                    "{kind} lane {i}: {}*{}+{} got {} (fused {}, unfused {})",
                    a[i], b[i], c[i], got[i], fused, unfused
                );
            }
        }
    }
}

/// `rsqrt` over a strided sweep of the bit patterns of `[first, last)`.
struct RsqrtSweep {
    first: f32,
    last: f32,
    stride: u32,
}

impl IsaOp for RsqrtSweep {
    /// Worst (input, got, ULP distance) of the sweep.
    type Output = (f32, f32, u32);
    fn run<I: Isa>(self) -> (f32, f32, u32) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let mut worst = (0.0, 0.0, 0);
        let mut xs = [1.0f32; N];
        let mut ys = [0.0f32; N];
        let (mut bits, last) = (self.first.to_bits(), self.last.to_bits());
        while bits < last {
            for x in xs.iter_mut().take(lanes) {
                *x = f32::from_bits(bits.min(last - 1));
                bits = bits.saturating_add(self.stride);
            }
            I::F32::load(&xs).rsqrt().store(&mut ys);
            for (&x, &y) in xs.iter().zip(&ys).take(lanes) {
                let ulps = ulp_diff_f32(y, 1.0 / x.sqrt());
                if ulps > worst.2 {
                    worst = (x, y, ulps);
                }
            }
        }
        worst
    }
}

#[test]
fn f32_rsqrt_within_2ulp_for_normal_positive_inputs() {
    // Every 4099th pattern of the whole normal range (about half a
    // million inputs in every binade), plus every input in [1, 4): the
    // error depends only on the mantissa and the exponent's parity, so
    // two adjacent binades at full density stand for all of them.
    for (first, last, stride) in [(f32::MIN_POSITIVE, f32::MAX, 4099), (1.0, 4.0, 1)] {
        for kind in available_kinds() {
            let (x, y, ulps) = dispatch_on(
                kind,
                RsqrtSweep {
                    first,
                    last,
                    stride,
                },
            );
            assert!(
                ulps <= 2,
                "{kind}: rsqrt({x:e}) = {y:e}, {ulps} ULP from {:e}",
                1.0 / x.sqrt()
            );
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum RangedOp {
    Floor,
    Trunc,
    FromI32,
}

/// Ops whose SSE2 lowering converts through i32: tested on a reduced
/// range where the contract guarantees agreement.
struct ApplyRanged {
    op: RangedOp,
    a: [f32; N],
}

impl IsaOp for ApplyRanged {
    type Output = Vec<f32>;
    fn run<I: Isa>(self) -> Vec<f32> {
        let lanes = <I::F32 as SimdF32>::LANES;
        let mut out = vec![0.0f32; N];
        for k in (0..N).step_by(lanes) {
            let a = I::F32::load(&self.a[k..]);
            let r = match self.op {
                RangedOp::Floor => a.floor(),
                RangedOp::Trunc => I::F32::from_i32(a.to_i32_trunc()),
                RangedOp::FromI32 => I::F32::from_i32(a.to_i32_trunc() + I::I32::splat(3)),
            };
            r.store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn f32_floor_and_i32_conversions_match_scalar_in_range(
        a in prop::array::uniform8(-1e9f32..1e9f32),
    ) {
        for op in [RangedOp::Floor, RangedOp::Trunc, RangedOp::FromI32] {
            let want = dispatch_on(IsaKind::Scalar, ApplyRanged { op, a });
            for kind in available_kinds() {
                let got = dispatch_on(kind, ApplyRanged { op, a });
                for i in 0..N {
                    prop_assert!(
                        same_f32(got[i], want[i]),
                        "{kind} {op:?} lane {i}: x={} got={} want={}",
                        a[i], got[i], want[i]
                    );
                }
            }
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum I32Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Shl,
    Shr,
    Min,
    Max,
    SelEq,
    SelGt,
    SelLt,
}

const I32_OPS: [I32Op; 12] = [
    I32Op::Add,
    I32Op::Sub,
    I32Op::Mul,
    I32Op::And,
    I32Op::Or,
    I32Op::Shl,
    I32Op::Shr,
    I32Op::Min,
    I32Op::Max,
    I32Op::SelEq,
    I32Op::SelGt,
    I32Op::SelLt,
];

struct ApplyI32 {
    op: I32Op,
    a: [i32; N],
    b: [i32; N],
    shift: i32,
}

impl IsaOp for ApplyI32 {
    type Output = Vec<i32>;
    fn run<I: Isa>(self) -> Vec<i32> {
        let lanes = <I::I32 as SimdI32>::LANES;
        let mut out = vec![0i32; N];
        for k in (0..N).step_by(lanes) {
            let a = I::I32::load(&self.a[k..]);
            let b = I::I32::load(&self.b[k..]);
            let r = match self.op {
                I32Op::Add => a + b,
                I32Op::Sub => a - b,
                I32Op::Mul => a * b,
                I32Op::And => a & b,
                I32Op::Or => a | b,
                I32Op::Shl => a << self.shift,
                I32Op::Shr => a >> self.shift,
                I32Op::Min => a.min(b),
                I32Op::Max => a.max(b),
                I32Op::SelEq => I::I32::select(a.simd_eq(b), a, b),
                I32Op::SelGt => I::I32::select(a.simd_gt(b), a, b),
                I32Op::SelLt => I::I32::select(a.simd_lt(b), a, b),
            };
            r.store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn i32_ops_match_scalar_exactly(
        a in prop::array::uniform8(any::<i32>()),
        b in prop::array::uniform8(any::<i32>()),
        shift in 0i32..32,
    ) {
        for op in I32_OPS {
            let want = dispatch_on(IsaKind::Scalar, ApplyI32 { op, a, b, shift });
            for kind in available_kinds() {
                let got = dispatch_on(kind, ApplyI32 { op, a, b, shift });
                prop_assert_eq!(
                    &got, &want,
                    "{} {:?} (shift={}) a={:?} b={:?}", kind, op, shift, a, b
                );
            }
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum F64Op {
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Min,
    Max,
    Abs,
    Sqrt,
    SelLt,
    SelGt,
}

const F64_OPS: [F64Op; 11] = [
    F64Op::Add,
    F64Op::Sub,
    F64Op::Mul,
    F64Op::Div,
    F64Op::Neg,
    F64Op::Min,
    F64Op::Max,
    F64Op::Abs,
    F64Op::Sqrt,
    F64Op::SelLt,
    F64Op::SelGt,
];

struct ApplyF64 {
    op: F64Op,
    a: [f64; N],
    b: [f64; N],
}

impl IsaOp for ApplyF64 {
    type Output = Vec<f64>;
    fn run<I: Isa>(self) -> Vec<f64> {
        let lanes = <I::F64 as SimdF64>::LANES;
        let mut out = vec![0.0f64; N];
        for k in (0..N).step_by(lanes) {
            let a = I::F64::load(&self.a[k..]);
            let b = I::F64::load(&self.b[k..]);
            let r = match self.op {
                F64Op::Add => a + b,
                F64Op::Sub => a - b,
                F64Op::Mul => a * b,
                F64Op::Div => a / b,
                F64Op::Neg => -a,
                F64Op::Min => a.min(b),
                F64Op::Max => a.max(b),
                F64Op::Abs => a.abs(),
                F64Op::Sqrt => a.abs().sqrt(),
                F64Op::SelLt => I::F64::select(a.simd_lt(b), a, b),
                F64Op::SelGt => I::F64::select(a.simd_gt(b), a, b),
            };
            r.store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn f64_lanewise_ops_match_scalar_bitwise(
        a in prop::array::uniform8(wild_f64()),
        b in prop::array::uniform8(wild_f64()),
    ) {
        for op in F64_OPS {
            let want = dispatch_on(IsaKind::Scalar, ApplyF64 { op, a, b });
            for kind in available_kinds() {
                let got = dispatch_on(kind, ApplyF64 { op, a, b });
                for i in 0..N {
                    prop_assert!(
                        same_f64(got[i], want[i]),
                        "{kind} {op:?} lane {i}: a={} b={} got={} want={}",
                        a[i], b[i], got[i], want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn f64_mul_add_within_2ulp_of_either_reference(
        a in prop::array::uniform8(wild_f64()),
        b in prop::array::uniform8(wild_f64()),
        c in prop::array::uniform8(wild_f64()),
    ) {
        struct Op { a: [f64; N], b: [f64; N], c: [f64; N] }
        impl IsaOp for Op {
            type Output = Vec<f64>;
            fn run<I: Isa>(self) -> Vec<f64> {
                let lanes = <I::F64 as SimdF64>::LANES;
                let mut out = vec![0.0f64; N];
                for k in (0..N).step_by(lanes) {
                    let a = I::F64::load(&self.a[k..]);
                    let b = I::F64::load(&self.b[k..]);
                    let c = I::F64::load(&self.c[k..]);
                    a.mul_add(b, c).store(&mut out[k..]);
                }
                out
            }
        }
        for kind in available_kinds() {
            let got = dispatch_on(kind, Op { a, b, c });
            for i in 0..N {
                let fused = a[i].mul_add(b[i], c[i]);
                let unfused = a[i] * b[i] + c[i];
                let ok = ulp_diff_f64(got[i], fused) <= 2 || ulp_diff_f64(got[i], unfused) <= 2;
                prop_assert!(
                    ok,
                    "{kind} lane {i}: {}*{}+{} got {} (fused {}, unfused {})",
                    a[i], b[i], c[i], got[i], fused, unfused
                );
            }
        }
    }
}

struct GatherOp {
    table: Vec<f32>,
    idx: [i32; N],
}

impl IsaOp for GatherOp {
    type Output = Vec<f32>;
    fn run<I: Isa>(self) -> Vec<f32> {
        let lanes = <I::F32 as SimdF32>::LANES;
        let mut out = vec![0.0f32; N];
        for k in (0..N).step_by(lanes) {
            let idx = I::I32::load(&self.idx[k..]);
            I::F32::gather(&self.table, idx).store(&mut out[k..]);
        }
        out
    }
}

proptest! {
    #[test]
    fn gather_matches_scalar_indexing(
        table in prop::collection::vec(-1e6f32..1e6f32, 1..64),
        raw_idx in prop::array::uniform8(any::<u16>()),
    ) {
        let idx = raw_idx.map(|r| (r as usize % table.len()) as i32);
        let want: Vec<f32> = idx.iter().map(|&i| table[i as usize]).collect();
        for kind in available_kinds() {
            let got = dispatch_on(kind, GatherOp { table: table.clone(), idx });
            for i in 0..N {
                prop_assert!(
                    same_f32(got[i], want[i]),
                    "{kind} lane {i}: idx={} got={} want={}",
                    idx[i], got[i], want[i]
                );
            }
        }
    }
}

/// Width-dependent ops checked against a lane-count-parameterized model.
struct WidthOps {
    a: [f32; N],
    b: [f32; N],
}

/// (lanes, sums, mins, maxs, interleaved, reversed) per vector processed.
type WidthReport = (usize, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

impl IsaOp for WidthOps {
    type Output = WidthReport;
    fn run<I: Isa>(self) -> WidthReport {
        let lanes = <I::F32 as SimdF32>::LANES;
        let (mut sums, mut mins, mut maxs, mut inter, mut rev) =
            (vec![], vec![], vec![], vec![], vec![]);
        for k in (0..N).step_by(lanes) {
            let a = I::F32::load(&self.a[k..]);
            let b = I::F32::load(&self.b[k..]);
            sums.push(a.reduce_sum());
            mins.push(a.reduce_min());
            maxs.push(a.reduce_max());
            let (lo, hi) = a.interleave(b);
            let mut buf = vec![0.0f32; lanes];
            lo.store(&mut buf);
            inter.extend_from_slice(&buf);
            hi.store(&mut buf);
            inter.extend_from_slice(&buf);
            a.reverse().store(&mut buf);
            rev.extend_from_slice(&buf);
        }
        (lanes, sums, mins, maxs, inter, rev)
    }
}

proptest! {
    #[test]
    fn reductions_and_permutes_match_width_model(
        a in prop::array::uniform8(-1e4f32..1e4f32),
        b in prop::array::uniform8(-1e4f32..1e4f32),
    ) {
        for kind in available_kinds() {
            let (lanes, sums, mins, maxs, inter, rev) = dispatch_on(kind, WidthOps { a, b });
            for (v, chunk) in sums.iter().zip(a.chunks_exact(lanes)) {
                let want: f64 = chunk.iter().map(|&x| x as f64).sum();
                prop_assert!(
                    (*v as f64 - want).abs() <= 1e-2 * want.abs().max(1.0),
                    "{kind} reduce_sum: {v} vs {want}"
                );
            }
            for (v, chunk) in mins.iter().zip(a.chunks_exact(lanes)) {
                let want = chunk.iter().copied().fold(f32::INFINITY, f32::min);
                prop_assert_eq!(*v, want, "{} reduce_min", kind);
            }
            for (v, chunk) in maxs.iter().zip(a.chunks_exact(lanes)) {
                let want = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert_eq!(*v, want, "{} reduce_max", kind);
            }
            // interleave spec: processing a,b per vector yields [a0,b0,a1,b1,...]
            let mut want = Vec::new();
            for k in (0..N).step_by(lanes) {
                for i in 0..lanes {
                    want.push(a[k + i]);
                    want.push(b[k + i]);
                }
            }
            prop_assert_eq!(&inter, &want, "{} interleave", kind);
            // reverse spec: each vector's lanes come back last-first.
            let want: Vec<f32> = a.chunks_exact(lanes).flat_map(|c| c.iter().rev().copied()).collect();
            prop_assert_eq!(&rev, &want, "{} reverse", kind);
        }
    }
}

/// `i32` and `f64` horizontal sums, one per vector processed.
struct OtherSums {
    ints: [i32; N],
    doubles: [f64; N],
}

impl IsaOp for OtherSums {
    type Output = (Vec<i32>, Vec<f64>);
    fn run<I: Isa>(self) -> (Vec<i32>, Vec<f64>) {
        let int_sums = self
            .ints
            .chunks_exact(<I::I32 as SimdI32>::LANES)
            .map(|c| I::I32::load(c).reduce_sum())
            .collect();
        let double_sums = self
            .doubles
            .chunks_exact(<I::F64 as SimdF64>::LANES)
            .map(|c| I::F64::load(c).reduce_sum())
            .collect();
        (int_sums, double_sums)
    }
}

proptest! {
    #[test]
    fn i32_and_f64_reductions_match_width_model(
        ints in prop::array::uniform8(any::<i32>()),
        doubles in prop::array::uniform8(-1e9f64..1e9),
    ) {
        for kind in available_kinds() {
            let (int_sums, double_sums) = dispatch_on(kind, OtherSums { ints, doubles });
            // Integer sums wrap, so they are exact whatever the order.
            let lanes = N / int_sums.len();
            for (got, chunk) in int_sums.iter().zip(ints.chunks_exact(lanes)) {
                let want = chunk.iter().fold(0i32, |a, &b| a.wrapping_add(b));
                prop_assert_eq!(*got, want, "{} i32 reduce_sum", kind);
            }
            let lanes = N / double_sums.len();
            for (got, chunk) in double_sums.iter().zip(doubles.chunks_exact(lanes)) {
                let want: f64 = chunk.iter().sum();
                prop_assert!(
                    (got - want).abs() <= 1e-12 * chunk.iter().map(|x| x.abs()).sum::<f64>(),
                    "{kind} f64 reduce_sum: {got} vs {want}"
                );
            }
        }
    }
}
