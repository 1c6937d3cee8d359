//! Shared vocabulary of the benchmark suite: variants, sizes, validation,
//! and the type-erased instance interface consumed by the harness.

use ninja_parallel::ThreadPool;
use ninja_simd::isa::{Isa, SimdF32, MAX_ISA_F32_LANES};
use std::fmt;

/// Problem-size preset for a kernel instance.
///
/// The paper ran server-class sizes (e.g. one million bodies, 256M-element
/// sorts); this reproduction scales them to laptop class while keeping every
/// working set large enough to exercise the same cache/bandwidth regimes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum ProblemSize {
    /// Tiny inputs for unit tests (milliseconds per variant).
    Test,
    /// Default measurement size (fractions of a second per variant).
    #[default]
    Quick,
    /// The largest size this host can run in reasonable time; closest in
    /// spirit to the paper's inputs.
    Paper,
}

impl ProblemSize {
    /// All presets, smallest first.
    pub const ALL: [ProblemSize; 3] = [ProblemSize::Test, ProblemSize::Quick, ProblemSize::Paper];

    /// Short lowercase label (`test`, `quick`, `paper`).
    pub fn name(self) -> &'static str {
        match self {
            ProblemSize::Test => "test",
            ProblemSize::Quick => "quick",
            ProblemSize::Paper => "paper",
        }
    }

    /// Parses a label produced by [`ProblemSize::name`].
    pub fn from_name(name: &str) -> Option<ProblemSize> {
        ProblemSize::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for ProblemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rung of the paper's optimization ladder.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// Serial, scalar, parallelism-unaware code.
    Naive,
    /// Naive plus a `parallel_for` annotation (threads only).
    Parallel,
    /// Serial code restructured for compiler auto-vectorization.
    Simd,
    /// The paper's "low effort" endpoint: algorithmic changes (SoA,
    /// blocking, SIMD-friendly restructuring) plus threads plus compiler
    /// vectorization.
    Algorithmic,
    /// Hand-written SIMD intrinsics plus threads plus tuning.
    Ninja,
}

impl Variant {
    /// Every variant, in ladder order.
    pub const ALL: [Variant; 5] = [
        Variant::Naive,
        Variant::Parallel,
        Variant::Simd,
        Variant::Algorithmic,
        Variant::Ninja,
    ];

    /// Short lowercase label used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Naive => "naive",
            Variant::Parallel => "parallel",
            Variant::Simd => "simd",
            Variant::Algorithmic => "algorithmic",
            Variant::Ninja => "ninja",
        }
    }

    /// Parses a label produced by [`Variant::name`].
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == name)
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-kernel metadata for one variant.
#[derive(Copy, Clone, Debug)]
pub struct VariantInfo {
    /// Which rung of the ladder this is.
    pub variant: Variant,
    /// Lines of code added/changed relative to the naive version — the
    /// paper's programming-effort metric (its Figure on effort compares
    /// exactly this). Registry kernels hold `ninja_lint::measured_effort`
    /// of their source file, pinned by the root `effort_measured` test.
    pub effort_loc: u32,
    /// One-line description of what was changed.
    pub what_changed: &'static str,
}

/// Roofline-style characterization of a kernel, consumed by `ninja-model`
/// to project results onto machines this host cannot measure.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Characterization {
    /// Useful arithmetic operations per output element.
    pub flops_per_elem: f64,
    /// Bytes moved to/from memory per output element (streaming estimate).
    pub bytes_per_elem: f64,
    /// Fraction of naive-code work the compiler can already vectorize
    /// without restructuring (usually 0: AoS layout or branches block it).
    pub naive_simd_frac: f64,
    /// Fraction of work the compiler can vectorize after the *low-effort
    /// restructuring* of the `Simd` tier (loop interchange, hoisted bounds)
    /// but before any real algorithmic change. Zero for kernels like
    /// search/sort/VR whose naive algorithm is inherently scalar.
    pub restructure_simd_frac: f64,
    /// Fraction of work that is vectorizable after the algorithmic changes.
    pub simd_friendly_frac: f64,
    /// Parallelizable fraction of total work (Amdahl).
    pub parallel_frac: f64,
    /// Gather (irregular load) operations per element — drives the paper's
    /// hardware gather/scatter programmability discussion.
    pub gather_per_elem: f64,
    /// Pure-algorithm speedup of the `Algorithmic` tier over naive that is
    /// *independent* of SIMD/threads (e.g. cache blocking, better asymptotic
    /// constant). 1.0 when the change only enables vectorization.
    pub algorithmic_factor: f64,
    /// SIMD efficiency loss from branch divergence in the Ninja version
    /// (1.0 = no divergence; volume rendering ≈ 0.6).
    pub simd_efficiency: f64,
}

/// Work accounting for a concrete instance, used to compute achieved
/// GFLOP/s and GB/s.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Work {
    /// Total useful arithmetic operations for one run.
    pub flops: f64,
    /// Total bytes streamed for one run.
    pub bytes: f64,
    /// Number of output elements.
    pub elems: u64,
}

/// A variant produced an output that disagrees with the reference.
#[derive(Debug, Clone)]
pub struct ValidationError {
    /// Kernel name.
    pub kernel: &'static str,
    /// Variant that failed.
    pub variant: Variant,
    /// Human-readable mismatch description (worst element, error metric).
    pub detail: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel '{}' variant '{}' failed validation: {}",
            self.kernel, self.variant, self.detail
        )
    }
}

impl std::error::Error for ValidationError {}

/// A runnable, validated kernel instance (inputs already generated).
///
/// Implementations own their inputs; `run` is the timed unit. One call
/// runs the rung, which allocates its output, then reads every output
/// element into a checksum (so the optimizer cannot dead-code-eliminate
/// the work, and a NaN/inf anywhere surfaces as a non-finite result), then
/// drops the output.
pub trait Instance: Send {
    /// Executes `variant` once, returning the [`OutputData::checksum`] of
    /// its whole output.
    fn run(&mut self, variant: Variant, pool: &ThreadPool) -> f64;

    /// Executes `variant` and compares its full output against the
    /// reference implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] describing the worst mismatch if the
    /// output differs beyond the kernel's documented tolerance.
    fn validate(&mut self, variant: Variant, pool: &ThreadPool) -> Result<(), ValidationError>;

    /// Flop/byte accounting for one `run`.
    fn work(&self) -> Work;
}

/// Static description of one benchmark: metadata, characterization, and an
/// instance factory.
pub struct KernelSpec {
    /// Kernel name as used in the paper (e.g. `"nbody"`).
    pub name: &'static str,
    /// One-line description of the computation.
    pub description: &'static str,
    /// Whether the kernel is compute-bound or bandwidth-bound at paper
    /// sizes (the paper's Table 1 column).
    pub bound: &'static str,
    /// Per-variant effort metadata, in [`Variant::ALL`] order.
    pub variants: [VariantInfo; 5],
    /// Roofline characterization for the machine model.
    pub character: Characterization,
    /// Builds a runnable instance with deterministic inputs for `seed`.
    pub make: fn(ProblemSize, u64) -> Box<dyn Instance>,
}

impl fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSpec")
            .field("name", &self.name)
            .field("bound", &self.bound)
            .finish()
    }
}

/// Output buffers that can be checksummed and compared against a reference.
pub trait OutputData {
    /// Sum of every element as `f64`: it keeps the optimizer honest, and
    /// a NaN or infinity anywhere in the output makes it non-finite.
    fn checksum(&self) -> f64;
    /// Largest relative mismatch vs `reference`, plus its position, or
    /// `None` if shapes differ.
    fn worst_error(&self, reference: &Self) -> Option<(f64, usize)>;
}

/// Sums `values` as `f64` over eight independent lane accumulators, so
/// the adds pipeline instead of waiting on one serial chain. Every
/// element is read, and a NaN or infinity propagates to the result.
fn lane_sum<T: Copy>(values: &[T], widen: impl Fn(T) -> f64) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = values.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc += widen(x);
        }
    }
    let mut total: f64 = lanes.iter().sum();
    for &x in tail {
        total += widen(x);
    }
    total
}

impl OutputData for Vec<f32> {
    fn checksum(&self) -> f64 {
        lane_sum(self, f64::from)
    }

    fn worst_error(&self, reference: &Self) -> Option<(f64, usize)> {
        if self.len() != reference.len() {
            return None;
        }
        let mut worst = (0.0f64, 0usize);
        for (i, (&a, &b)) in self.iter().zip(reference.iter()).enumerate() {
            let scale = (b.abs() as f64).max(1.0);
            let err = ((a - b).abs() as f64) / scale;
            if err > worst.0 {
                worst = (err, i);
            }
        }
        Some(worst)
    }
}

impl OutputData for Vec<f64> {
    fn checksum(&self) -> f64 {
        lane_sum(self, |x| x)
    }

    fn worst_error(&self, reference: &Self) -> Option<(f64, usize)> {
        if self.len() != reference.len() {
            return None;
        }
        let mut worst = (0.0f64, 0usize);
        for (i, (&a, &b)) in self.iter().zip(reference.iter()).enumerate() {
            let err = (a - b).abs() / b.abs().max(1.0);
            if err > worst.0 {
                worst = (err, i);
            }
        }
        Some(worst)
    }
}

impl OutputData for Vec<u32> {
    fn checksum(&self) -> f64 {
        lane_sum(self, f64::from)
    }

    fn worst_error(&self, reference: &Self) -> Option<(f64, usize)> {
        if self.len() != reference.len() {
            return None;
        }
        for (i, (&a, &b)) in self.iter().zip(reference.iter()).enumerate() {
            if a != b {
                return Some((1.0, i));
            }
        }
        Some((0.0, 0))
    }
}

/// Glue that turns a concrete kernel (with typed outputs) into a type-erased
/// [`Instance`].
///
/// `K` supplies input state; `run` maps a variant to its typed output.
pub(crate) struct Adapter<K, O> {
    pub kernel: K,
    pub name: &'static str,
    pub tolerance: f64,
    pub run: fn(&K, Variant, &ThreadPool) -> O,
    pub work: fn(&K) -> Work,
    pub reference: Option<O>,
}

impl<K: Send, O: OutputData + Send> Adapter<K, O> {
    fn reference_output(&mut self, pool: &ThreadPool) -> &O {
        if self.reference.is_none() {
            self.reference = Some((self.run)(&self.kernel, Variant::Naive, pool));
        }
        self.reference.as_ref().expect("reference just computed")
    }
}

impl<K: Send, O: OutputData + Send> Instance for Adapter<K, O> {
    fn run(&mut self, variant: Variant, pool: &ThreadPool) -> f64 {
        (self.run)(&self.kernel, variant, pool).checksum()
    }

    fn validate(&mut self, variant: Variant, pool: &ThreadPool) -> Result<(), ValidationError> {
        let out = (self.run)(&self.kernel, variant, pool);
        let name = self.name;
        let tolerance = self.tolerance;
        let reference = self.reference_output(pool);
        match out.worst_error(reference) {
            None => Err(ValidationError {
                kernel: name,
                variant,
                detail: "output shape differs from reference".to_owned(),
            }),
            Some((err, pos)) if err > tolerance => Err(ValidationError {
                kernel: name,
                variant,
                detail: format!(
                    "worst relative error {err:.3e} at element {pos} (tolerance {tolerance:.1e})"
                ),
            }),
            Some(_) => Ok(()),
        }
    }

    fn work(&self) -> Work {
        (self.work)(&self.kernel)
    }
}

/// `[0.0, 1.0, 2.0, ..]`: each lane's own index, for ninja rungs that
/// map lanes to adjacent pixels.
#[inline(always)]
pub(crate) fn lane_ramp<I: Isa>() -> I::F32 {
    let ramp: [f32; MAX_ISA_F32_LANES] = std::array::from_fn(|lane| lane as f32);
    I::F32::load(&ramp)
}

/// The conformance check for code instantiated per ISA backend — every
/// ninja rung, and the loop bodies the compiler rungs run inside a
/// feature frame: for each size and each backend reachable on this host,
/// `rung_on` forced onto that backend must match the naive reference
/// within the kernel's tolerance.
#[cfg(test)]
pub(crate) fn assert_conforms_on_every_backend<K, O: OutputData>(
    sizes: impl IntoIterator<Item = usize>,
    tolerance: f64,
    make: impl Fn(usize) -> K,
    naive: impl Fn(&K) -> O,
    rung_on: impl Fn(&K, ninja_simd::isa::IsaKind, &ThreadPool) -> O,
) {
    let pool = ThreadPool::with_threads(2);
    for size in sizes {
        let kernel = make(size);
        let reference = naive(&kernel);
        for kind in ninja_simd::isa::available_kinds() {
            let (err, at) = rung_on(&kernel, kind, &pool)
                .worst_error(&reference)
                .unwrap_or_else(|| panic!("{kind} size {size}: output shape differs"));
            assert!(
                err <= tolerance,
                "{kind} size {size}: error {err:.3e} at element {at} (tolerance {tolerance:.1e})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_roundtrip_names() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
            assert_eq!(format!("{v}"), v.name());
        }
        assert_eq!(Variant::from_name("bogus"), None);
    }

    #[test]
    fn problem_size_labels() {
        assert_eq!(ProblemSize::Test.name(), "test");
        assert_eq!(ProblemSize::default(), ProblemSize::Quick);
        assert_eq!(format!("{}", ProblemSize::Paper), "paper");
        for s in ProblemSize::ALL {
            assert_eq!(ProblemSize::from_name(s.name()), Some(s));
        }
        assert_eq!(ProblemSize::from_name("huge"), None);
    }

    #[test]
    fn f32_output_worst_error() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![1.0f32, 2.2, 3.0];
        let (err, pos) = a.worst_error(&b).unwrap();
        assert_eq!(pos, 1);
        assert!((err - 0.2 / 2.2).abs() < 1e-6);
        assert!(a.worst_error(&vec![1.0f32]).is_none());
    }

    #[test]
    fn u32_output_exact_compare() {
        let a = vec![1u32, 2, 3];
        assert_eq!(a.worst_error(&a).unwrap().0, 0.0);
        let b = vec![1u32, 9, 3];
        assert_eq!(a.worst_error(&b).unwrap(), (1.0, 1));
    }

    #[test]
    fn checksums_sum_elements() {
        assert_eq!(vec![1.0f32, 2.0].checksum(), 3.0);
        assert_eq!(vec![1.0f64, 2.0].checksum(), 3.0);
        assert_eq!(vec![1u32, 2].checksum(), 3.0);
    }

    /// Every length up to two full lane groups plus a remainder: the
    /// lane sum matches the serial sum.
    #[test]
    fn lane_checksum_matches_the_serial_sum_at_every_length() {
        for len in 0..=17usize {
            let f32s: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37 - 2.0) * 1.5e3).collect();
            let f64s: Vec<f64> = f32s.iter().map(|&x| f64::from(x) * 1e-3).collect();
            let u32s: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect();
            let close = |lanes: f64, serial: f64| {
                assert!(
                    (lanes - serial).abs() <= 1e-12 * serial.abs().max(1.0),
                    "len {len}: lane sum {lanes} vs serial {serial}"
                );
            };
            close(f32s.checksum(), f32s.iter().map(|&x| f64::from(x)).sum());
            close(f64s.checksum(), f64s.iter().sum());
            close(u32s.checksum(), u32s.iter().map(|&x| f64::from(x)).sum());
        }
    }

    /// A NaN or an infinity in any lane or in the remainder makes the
    /// checksum non-finite, which the harness reports as `NonFinite`.
    #[test]
    fn lane_checksum_propagates_non_finite_from_every_position() {
        for len in 1..=18usize {
            for pos in 0..len {
                for bad in [f32::NAN, f32::INFINITY] {
                    let mut out = vec![1.0f32; len];
                    out[pos] = bad;
                    assert!(!out.checksum().is_finite(), "{bad} at {pos} of {len}");
                    let mut out: Vec<f64> = vec![1.0; len];
                    out[pos] = f64::from(bad);
                    assert!(!out.checksum().is_finite(), "{bad} at {pos} of {len} (f64)");
                }
            }
        }
    }

    #[test]
    fn adapter_detects_wrong_output() {
        // A fake kernel whose "ninja" variant returns a corrupted output.
        struct Fake;
        fn fake_run(_: &Fake, v: Variant, _: &ninja_parallel::ThreadPool) -> Vec<f32> {
            match v {
                Variant::Ninja => vec![1.0, 2.0, 99.0],
                _ => vec![1.0, 2.0, 3.0],
            }
        }
        fn fake_work(_: &Fake) -> Work {
            Work {
                flops: 1.0,
                bytes: 1.0,
                elems: 3,
            }
        }
        let mut adapter = Adapter {
            kernel: Fake,
            name: "fake",
            tolerance: 1e-6,
            run: fake_run,
            work: fake_work,
            reference: None,
        };
        let pool = ninja_parallel::ThreadPool::with_threads(1);
        assert!(Instance::validate(&mut adapter, Variant::Simd, &pool).is_ok());
        let err = Instance::validate(&mut adapter, Variant::Ninja, &pool).unwrap_err();
        assert_eq!(err.variant, Variant::Ninja);
        assert!(err.detail.contains("element 2"), "{}", err.detail);
        // Checksums still work through the erased interface.
        assert_eq!(Instance::run(&mut adapter, Variant::Naive, &pool), 6.0);
        assert_eq!(Instance::work(&adapter).elems, 3);
    }

    #[test]
    fn adapter_detects_shape_mismatch() {
        struct Fake;
        fn fake_run(_: &Fake, v: Variant, _: &ninja_parallel::ThreadPool) -> Vec<f32> {
            match v {
                Variant::Ninja => vec![1.0],
                _ => vec![1.0, 2.0],
            }
        }
        fn fake_work(_: &Fake) -> Work {
            Work::default()
        }
        let mut adapter = Adapter {
            kernel: Fake,
            name: "fake",
            tolerance: 0.0,
            run: fake_run,
            work: fake_work,
            reference: None,
        };
        let pool = ninja_parallel::ThreadPool::with_threads(1);
        let err = Instance::validate(&mut adapter, Variant::Ninja, &pool).unwrap_err();
        assert!(err.detail.contains("shape"), "{}", err.detail);
    }

    #[test]
    fn validation_error_displays_context() {
        let e = ValidationError {
            kernel: "nbody",
            variant: Variant::Ninja,
            detail: "oops".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("nbody") && s.contains("ninja") && s.contains("oops"));
    }
}
