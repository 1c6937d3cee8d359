//! Runtime backend selection and the [`IsaOp`] dispatch trampoline.
//!
//! Selection order: a `NINJA_ISA` environment override wins if set (and
//! errors cleanly if the named backend cannot run here); otherwise
//! CPUID-based detection picks the best available backend —
//! AVX2+FMA > SSE2 on x86_64, Scalar elsewhere (the vector backends are
//! x86-64 only).
//!
//! Dispatch uses a visitor ([`IsaOp`]) rather than returning a trait
//! object: the selected arm monomorphizes the op body for that backend,
//! and the AVX2 arm runs it inside a `#[target_feature(enable =
//! "avx2,fma")]` trampoline so LLVM can inline the 256-bit intrinsics.
//! Note `#[target_feature]` does not travel across thread boundaries:
//! parallel kernels must call [`dispatch`] *inside* the per-chunk
//! closure, not around the thread-pool loop. [`active`] is cached, so a
//! per-chunk call costs one atomic load.

use super::scalar::Scalar;
use super::Isa;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use super::{avx2::Avx2, sse2::Sse2};

/// Environment variable that forces a backend (`scalar`, `sse2`,
/// `avx2`) instead of CPUID-based detection.
pub const NINJA_ISA_ENV: &str = "NINJA_ISA";

/// Identifier for one ISA backend.
///
/// Every variant exists on every architecture so reports, perfdb
/// records, and CLI parsing are arch-independent; [`IsaKind::available`]
/// says whether the backend can actually run here.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// One-lane pure-Rust reference backend.
    Scalar,
    /// 128-bit SSE2 (x86_64 baseline).
    Sse2,
    /// 256-bit AVX2+FMA (x86_64 with CPUID support).
    Avx2,
}

impl IsaKind {
    /// All backend kinds, in dispatch-preference order (widest first).
    pub const ALL: [IsaKind; 3] = [IsaKind::Avx2, IsaKind::Sse2, IsaKind::Scalar];

    /// Lower-case name as used in `NINJA_ISA`, reports, and perfdb.
    pub fn name(self) -> &'static str {
        match self {
            IsaKind::Scalar => Scalar::NAME,
            IsaKind::Sse2 => "sse2",
            IsaKind::Avx2 => "avx2",
        }
    }

    /// `f32` vector width in bits.
    pub fn width_bits(self) -> usize {
        match self {
            IsaKind::Scalar => 32,
            IsaKind::Sse2 => 128,
            IsaKind::Avx2 => 256,
        }
    }

    /// Parses a backend name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(IsaKind::Scalar),
            "sse2" => Some(IsaKind::Sse2),
            "avx2" => Some(IsaKind::Avx2),
            _ => None,
        }
    }

    /// Whether this backend can run on the current CPU and build.
    pub fn available(self) -> bool {
        match self {
            IsaKind::Scalar => Scalar::available(),
            #[cfg(target_arch = "x86_64")]
            IsaKind::Sse2 => Sse2::available(),
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => Avx2::available(),
            #[cfg(not(target_arch = "x86_64"))]
            IsaKind::Sse2 | IsaKind::Avx2 => false,
        }
    }
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Backends that can run on this host, widest first.
pub fn available_kinds() -> Vec<IsaKind> {
    IsaKind::ALL.into_iter().filter(|k| k.available()).collect()
}

/// The best backend the current CPU supports (ignores `NINJA_ISA`).
pub fn detect_best() -> IsaKind {
    IsaKind::ALL
        .into_iter()
        .find(|k| k.available())
        .unwrap_or(IsaKind::Scalar)
}

/// Resolves an optional backend-name override against this host.
///
/// `None` picks [`detect_best`]. `Some(name)` selects that backend, or
/// returns a descriptive error if the name is unknown or the backend
/// cannot run here — callers (like `reproduce`) surface that error
/// instead of silently falling back.
pub fn resolve(override_name: Option<&str>) -> Result<IsaKind, String> {
    let Some(name) = override_name else {
        return Ok(detect_best());
    };
    let kind = IsaKind::parse(name)
        .ok_or_else(|| format!("unknown ISA backend {name:?} (expected scalar, sse2, or avx2)"))?;
    if !kind.available() {
        return Err(unavailable(kind, &available_kinds()));
    }
    Ok(kind)
}

/// Why `kind` cannot run where only `available` can: the message
/// [`resolve`] returns and [`dispatch_on`] panics with.
#[cold]
fn unavailable(kind: IsaKind, available: &[IsaKind]) -> String {
    let names: Vec<&str> = available.iter().map(|k| k.name()).collect();
    format!(
        "ISA backend '{}' is not available on this CPU/build (available: {})",
        kind.name(),
        names.join(", ")
    )
}

/// [`resolve`] driven by the `NINJA_ISA` environment variable; an unset
/// or empty variable means auto-detection.
pub fn resolve_from_env() -> Result<IsaKind, String> {
    match std::env::var(NINJA_ISA_ENV) {
        Ok(v) if !v.trim().is_empty() => resolve(Some(v.trim())),
        _ => Ok(detect_best()),
    }
}

/// Test-only override slot: 0 = none, otherwise IsaKind discriminant + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Caches the environment/CPUID resolution for [`active`].
static ACTIVE: OnceLock<IsaKind> = OnceLock::new();

/// Forces [`active`] (and thus [`dispatch`]) to the given backend for
/// the rest of the process, or restores normal resolution with `None`.
///
/// Intended for tests that pin a backend without spawning a process per
/// `NINJA_ISA` value. The caller must pick an available backend —
/// [`dispatch`] still asserts availability.
pub fn force_for_test(kind: Option<IsaKind>) {
    let v = match kind {
        None => 0,
        Some(IsaKind::Scalar) => 1,
        Some(IsaKind::Sse2) => 2,
        Some(IsaKind::Avx2) => 3,
    };
    FORCED.store(v, Ordering::SeqCst);
}

/// The backend every [`dispatch`] call runs on: the `NINJA_ISA`
/// override if set and usable, otherwise the best detected backend.
///
/// The environment is read once and cached. An *invalid* `NINJA_ISA`
/// value falls back to detection here — binaries that want a hard error
/// call [`resolve_from_env`] at startup and report it before any kernel
/// runs.
pub fn active() -> IsaKind {
    match FORCED.load(Ordering::SeqCst) {
        1 => return IsaKind::Scalar,
        2 => return IsaKind::Sse2,
        3 => return IsaKind::Avx2,
        _ => {}
    }
    *ACTIVE.get_or_init(|| resolve_from_env().unwrap_or_else(|_| detect_best()))
}

/// A width-generic computation, dispatched to one backend at runtime.
///
/// Implementors put the kernel body in [`IsaOp::run`], written against
/// the [`Isa`] associated types; [`dispatch`] monomorphizes it per
/// backend and runs the selected instantiation inside that backend's
/// `#[target_feature]` context.
pub trait IsaOp {
    /// Result of the computation.
    type Output;

    /// The width-generic body.
    ///
    /// Mark implementations (and the generic helpers they call)
    /// `#[inline(always)]`. The body only becomes straight-line vector
    /// code once it is inlined into the backend's `#[target_feature]`
    /// trampoline; left to LLVM's cost model, a large body stays a
    /// function of its own, compiled at the baseline feature level,
    /// where every wide intrinsic is an out-of-line call.
    fn run<I: Isa>(self) -> Self::Output;
}

/// Runs `op` on the [`active`] backend.
#[inline]
pub fn dispatch<Op: IsaOp>(op: Op) -> Op::Output {
    dispatch_on(active(), op)
}

/// Runs `op` on an explicitly chosen backend.
///
/// # Panics
///
/// Panics if `kind` is not available on this CPU/build.
#[inline]
pub fn dispatch_on<Op: IsaOp>(kind: IsaKind, op: Op) -> Op::Output {
    assert!(
        kind.available(),
        "{}",
        unavailable(kind, &available_kinds())
    );
    match kind {
        IsaKind::Scalar => op.run::<Scalar>(),
        #[cfg(target_arch = "x86_64")]
        IsaKind::Sse2 => op.run::<Sse2>(),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the availability assert above verified avx2+fma via
        // CPUID, so entering the target_feature trampoline is sound.
        IsaKind::Avx2 => unsafe { run_avx2(op) },
        #[allow(unreachable_patterns)]
        _ => unreachable!("backend passed the availability check but has no dispatch arm"),
    }
}

/// The AVX2 trampoline: everything `op.run::<Avx2>()` inlines into this
/// frame compiles with AVX2+FMA enabled, so the backend's intrinsics
/// become straight-line 256-bit code even at a baseline `target-cpu`.
// SAFETY: unsafe to call because of `target_feature` — the caller must
// verify avx2+fma via CPUID first (`dispatch_on` asserts availability
// before entering).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<Op: IsaOp>(op: Op) -> Op::Output {
    op.run::<Avx2>()
}

/// What a feature frame tells the scalar code compiled inside it: the
/// one fact a compiler flag like `-fp:fast` acts on that a `#[target_feature]`
/// frame alone does not, whether `a * b + c` may be contracted.
///
/// Only a [`dispatch_on`] arm builds a fused frame (from [`Isa::FMA`]);
/// `Frame::default()` is unfused. The closure is inlined into each arm,
/// so [`Frame::mul_add`] folds to one instruction there: `vfmadd` in the
/// AVX2 arm, a multiply and an add in the others.
#[derive(Copy, Clone, Debug, Default)]
pub struct Frame {
    fma: bool,
}

impl Frame {
    /// `a * b + c`, rounded once (`f32::mul_add`) where the frame has
    /// FMA and twice otherwise: bit-identical to the frame's backend
    /// [`SimdF32::mul_add`](super::SimdF32::mul_add) on every lane.
    ///
    /// Outside the frame that built it, a fused `Frame` still computes
    /// the fused result, but through a libm `fmaf` call.
    #[inline(always)]
    pub fn mul_add(self, a: f32, b: f32, c: f32) -> f32 {
        if self.fma {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }
}

/// A plain closure riding the [`IsaOp`] trampoline: it ignores the
/// backend type and only wants the backend's `#[target_feature]` frame,
/// and the [`Frame`] that says what that frame may fuse.
struct Framed<F>(F);

impl<R, F: FnOnce(Frame) -> R> IsaOp for Framed<F> {
    type Output = R;
    #[inline(always)]
    fn run<I: Isa>(self) -> R {
        (self.0)(Frame { fma: I::FMA })
    }
}

/// Runs the scalar closure `f` compiled for the [`active`] backend's
/// feature set: the stand-in for a compiler's auto-dispatch (`icc -ax`).
///
/// `f` names no vector type. It is instantiated once per [`dispatch_on`]
/// arm, and whatever inlines into the AVX2 arm is auto-vectorized with
/// 256-bit registers even at a baseline `target-cpu`; the other arms are
/// the baseline build. `f` receives the arm's [`Frame`]: a multiply-add
/// written as `f.mul_add(a, b, c)` is fused in the AVX2 arm and not in
/// the others, as `-fp:fast` contraction would be (Rust never contracts
/// `a * b + c` itself). Write the closure as `#[inline(always)] |f| ..`
/// and mark everything hot it calls `#[inline(always)]`, exactly as for
/// [`IsaOp::run`]: the closure has one call site per arm, so LLVM keeps a
/// large one out of line, and anything out of line is compiled at
/// baseline, silently (the frame becomes a `jmp` to 128-bit code, and
/// each fused `mul_add` a libm `fmaf` call).
#[inline(always)]
pub fn with_active_features<R>(f: impl FnOnce(Frame) -> R) -> R {
    with_features_on(active(), f)
}

/// [`with_active_features`] on an explicitly chosen backend.
///
/// # Panics
///
/// Panics if `kind` is not available on this CPU/build.
#[inline(always)]
pub fn with_features_on<R>(kind: IsaKind, f: impl FnOnce(Frame) -> R) -> R {
    dispatch_on(kind, Framed(f))
}

#[cfg(test)]
mod tests {
    use super::super::{SimdF32, SimdI32};
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for kind in IsaKind::ALL {
            assert_eq!(IsaKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(IsaKind::parse("AVX2"), Some(IsaKind::Avx2));
        assert_eq!(IsaKind::parse("sse4"), None);
        assert_eq!(IsaKind::parse("neon"), None, "x86-64 backends only");
        assert_eq!(IsaKind::parse(""), None);
    }

    #[test]
    fn widths_match_backends() {
        assert_eq!(IsaKind::Scalar.width_bits(), 32);
        assert_eq!(IsaKind::Sse2.width_bits(), 128);
        assert_eq!(IsaKind::Avx2.width_bits(), 256);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(IsaKind::Scalar.available());
        assert!(available_kinds().contains(&IsaKind::Scalar));
        assert!(detect_best().available());
    }

    #[test]
    fn resolve_picks_named_backend() {
        assert_eq!(resolve(Some("scalar")), Ok(IsaKind::Scalar));
        assert_eq!(resolve(None), Ok(detect_best()));
    }

    #[test]
    fn resolve_rejects_unknown_names() {
        let err = resolve(Some("avx512")).unwrap_err();
        assert!(err.contains("unknown ISA backend"), "got: {err}");
        assert!(err.contains("avx512"), "got: {err}");
    }

    #[test]
    fn unavailable_backends_are_refused_naming_what_can_run() {
        // An AVX2 host runs every backend, so the message is driven with
        // an explicit availability set: one without avx2.
        assert_eq!(
            unavailable(IsaKind::Avx2, &[IsaKind::Sse2, IsaKind::Scalar]),
            "ISA backend 'avx2' is not available on this CPU/build (available: sse2, scalar)"
        );
    }

    struct SumSquares(Vec<f32>);
    impl IsaOp for SumSquares {
        type Output = f32;
        fn run<I: Isa>(self) -> f32 {
            let lanes = <I::F32 as SimdF32>::LANES;
            let mut acc = I::F32::zero();
            let mut chunks = self.0.chunks_exact(lanes);
            for c in chunks.by_ref() {
                let v = I::F32::load(c);
                acc = v.mul_add(v, acc);
            }
            acc.reduce_sum() + chunks.remainder().iter().map(|x| x * x).sum::<f32>()
        }
    }

    #[test]
    fn dispatch_on_agrees_across_available_backends() {
        let xs: Vec<f32> = (0..103).map(|i| i as f32 * 0.25).collect();
        let want: f32 = xs.iter().map(|x| x * x).sum();
        for kind in available_kinds() {
            let got = dispatch_on(kind, SumSquares(xs.clone()));
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-5, "{kind}: got {got}, want {want}");
        }
    }

    struct LaneCount;
    impl IsaOp for LaneCount {
        type Output = usize;
        fn run<I: Isa>(self) -> usize {
            <I::I32 as SimdI32>::LANES
        }
    }

    #[test]
    fn feature_frame_returns_the_closure_result_on_every_backend() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32).collect();
        for kind in available_kinds() {
            let mut calls = 0;
            let sum = with_features_on(kind, |_| {
                calls += 1;
                xs.iter().sum::<f32>()
            });
            assert_eq!((sum, calls), (4950.0, 1), "{kind}");
        }
        assert_eq!(with_active_features(|_| xs.len()), 100);
    }

    /// A triple whose product needs more than 24 bits: fused and unfused
    /// `a * b + c` differ in the last place.
    const SPLIT: (f32, f32, f32) = (1.0 + f32::EPSILON, 1.0 - f32::EPSILON, -1.0);

    #[test]
    fn the_default_frame_is_unfused() {
        let (a, b, c) = SPLIT;
        assert_ne!(a.mul_add(b, c), a * b + c, "the triple tells fusion apart");
        for (a, b, c) in [
            SPLIT,
            (3.1, -0.7, 2.2),
            (f32::MAX, 2.0, -f32::MAX),
            (f32::NAN, 1.0, 0.0),
        ] {
            let got = Frame::default().mul_add(a, b, c);
            assert_eq!(got.to_bits(), (a * b + c).to_bits(), "{a} {b} {c}");
        }
    }

    /// Each arm's frame fuses exactly when its backend's vector
    /// `mul_add` does, and agrees with it bit for bit.
    #[test]
    fn each_frame_fuses_as_its_backend_does() {
        struct VectorMulAdd;
        impl IsaOp for VectorMulAdd {
            type Output = (bool, f32);
            fn run<I: Isa>(self) -> (bool, f32) {
                let (a, b, c) = SPLIT;
                let v = I::F32::splat(a).mul_add(I::F32::splat(b), I::F32::splat(c));
                let mut out = [0.0; crate::isa::MAX_ISA_F32_LANES];
                v.store_partial(&mut out);
                (I::FMA, out[0])
            }
        }
        for kind in available_kinds() {
            let (a, b, c) = SPLIT;
            let (fma, want) = dispatch_on(kind, VectorMulAdd);
            let got = with_features_on(kind, |f| f.mul_add(a, b, c));
            assert_eq!(got.to_bits(), want.to_bits(), "{kind}");
            assert_eq!(fma, kind == IsaKind::Avx2, "{kind}");
            assert_eq!(got == a.mul_add(b, c), fma, "{kind}");
        }
    }

    #[test]
    fn force_for_test_overrides_active() {
        force_for_test(Some(IsaKind::Scalar));
        assert_eq!(active(), IsaKind::Scalar);
        assert_eq!(dispatch(LaneCount), 1);
        force_for_test(None);
        assert!(active().available());
    }
}
