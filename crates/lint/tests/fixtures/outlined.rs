//! Fixture: an `IsaOp` whose `run` lacks `#[inline(always)]`, so LLVM
//! keeps it out of the AVX2 trampoline and compiles it at the baseline
//! feature level, where every intrinsic is a call. NL012 must fire
//! exactly once when `check_asm` pairs this file with `asm/outlined.s`;
//! the `Debug` impl also calls an intrinsic, but outside any trampoline.

/// One fused multiply-add over three equal-length slices.
pub struct Op<'a> {
    pub acc: &'a mut [f32],
    pub a: &'a [f32],
    pub b: &'a [f32],
}

impl IsaOp for Op<'_> {
    type Output = ();
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        for (i, out) in self.acc.chunks_exact_mut(lanes).enumerate() {
            let at = i * lanes;
            let acc = I::F32::load(out);
            let a = I::F32::load(&self.a[at..at + lanes]);
            let b = I::F32::load(&self.b[at..at + lanes]);
            acc.mul_add(a, b).store(out);
        }
    }
}

impl std::fmt::Debug for Op<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Op").field("len", &self.acc.len()).finish()
    }
}
