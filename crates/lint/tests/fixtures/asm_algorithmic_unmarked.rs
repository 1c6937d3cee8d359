//! Fixture: an algorithmic rung with no `expect(...)` marker and no
//! `allow(NL008, ..)` waiver — NL008 must fire exactly once when
//! `check_asm` pairs this file with `asm/algorithmic.s`, even though the
//! listing shows the rung vectorized. The parallel rung beside it needs
//! no marker.

/// Parallel rung: carries no marker, and none is required.
// ninja-lint: variant(parallel)
pub fn run_parallel(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= 2.0;
    }
}

/// Algorithmic rung: vectorized in the paired listing, but unmarked.
// ninja-lint: variant(algorithmic)
pub fn run_algorithmic(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= 2.0;
    }
}
