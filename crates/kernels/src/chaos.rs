//! Fault-injection kernel for exercising the harness's failure paths.
//!
//! Not part of [`crate::registry`] — the chaos kernel never contributes to
//! measured results. Tests and the `reproduce --chaos` flag inject it to
//! prove that one misbehaving variant cannot take down a suite run: the
//! victim variant fails in a chosen [`FailureMode`] while every other
//! variant does honest, validated work.
//!
//! Because [`KernelSpec::make`] is a plain function pointer, the failure
//! mode selects between four spec constructors and the *victim variant* is
//! encoded in the instance seed (`seed % 5` indexes [`Variant::ALL`]), so
//! tests can aim the fault at any rung of the ladder.

// ninja-lint: skip-file("fault-injection harness kernel; its variants fake work by design")

use crate::framework::{
    Characterization, Instance, KernelSpec, OutputData, ProblemSize, ValidationError, Variant,
    VariantInfo, Work,
};
use ninja_parallel::ThreadPool;

/// How the victim variant misbehaves.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// Panic during validation/measurement.
    Panic,
    /// Block forever (sleeps rather than spins, so a watchdog-abandoned
    /// thread does not burn a core for the rest of the process).
    Hang,
    /// Complete normally but return a NaN checksum.
    NonFinite,
    /// Return subtly wrong output that only validation can catch.
    WrongOutput,
}

impl FailureMode {
    /// Every mode, in the order the CLI documents them.
    pub const ALL: [FailureMode; 4] = [
        FailureMode::Panic,
        FailureMode::Hang,
        FailureMode::NonFinite,
        FailureMode::WrongOutput,
    ];

    /// Short CLI label (`panic`, `hang`, `nan`, `wrong`).
    pub fn name(self) -> &'static str {
        match self {
            FailureMode::Panic => "panic",
            FailureMode::Hang => "hang",
            FailureMode::NonFinite => "nan",
            FailureMode::WrongOutput => "wrong",
        }
    }

    /// Parses a label produced by [`FailureMode::name`].
    pub fn from_name(name: &str) -> Option<FailureMode> {
        FailureMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for FailureMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The victim variant encoded by an instance seed (`seed % 5`).
pub fn victim_of_seed(seed: u64) -> Variant {
    Variant::ALL[(seed % Variant::ALL.len() as u64) as usize]
}

/// SplitMix64 step: the statistically solid minimal PRNG used anywhere
/// the workspace needs cheap deterministic hashing of a counter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded probabilistic fault schedule, shared by `reproduce --chaos`
/// (via [`spec_scheduled`]) and the `ninja-serve` fault injector.
///
/// The schedule is a pure function of `(seed, rate, index)`: slot `index`
/// either faults with one of the four [`FailureMode`]s or passes clean,
/// and the same seed and rate reproduce the same decision sequence
/// bit-for-bit on every host. Consumers assign their own meaning to the
/// slot index (ladder rung for the chaos kernel, batch-attempt counter
/// for the serving layer).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    seed: u64,
    rate: f64,
}

impl ChaosSchedule {
    /// Builds a schedule; `rate` is clamped to `[0, 1]` (NaN becomes 0).
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        Self { seed, rate }
    }

    /// The seed the schedule was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-slot fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The fault injected at schedule slot `index`, if any. Pure and
    /// order-independent: callers may query slots in any order.
    pub fn fault_at(&self, index: u64) -> Option<FailureMode> {
        let x = splitmix64(self.seed ^ splitmix64(index));
        // 53 high bits -> uniform in [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        let pick = splitmix64(x) % FailureMode::ALL.len() as u64;
        Some(FailureMode::ALL[pick as usize])
    }

    /// One schedule decision per ladder rung, in [`Variant::ALL`] order —
    /// the fault map the scheduled chaos kernel runs under.
    pub fn variant_faults(&self) -> [Option<FailureMode>; 5] {
        std::array::from_fn(|i| self.fault_at(i as u64))
    }
}

/// Process-global schedule consumed by [`spec_scheduled`] instances.
/// Global because [`KernelSpec::make`] is a plain function pointer and
/// cannot capture the schedule; `reproduce` sets it once before running.
static SCHEDULE: std::sync::Mutex<Option<ChaosSchedule>> = std::sync::Mutex::new(None);

/// Installs (or clears) the schedule that future [`spec_scheduled`]
/// instances fault under.
pub fn set_schedule(schedule: Option<ChaosSchedule>) {
    *SCHEDULE.lock().unwrap_or_else(|e| e.into_inner()) = schedule;
}

fn current_schedule() -> Option<ChaosSchedule> {
    *SCHEDULE.lock().unwrap_or_else(|e| e.into_inner())
}

struct ChaosInstance {
    /// Per-rung fault map, [`Variant::ALL`] order.
    faults: [Option<FailureMode>; 5],
    data: Vec<f32>,
}

fn variant_index(v: Variant) -> usize {
    Variant::ALL
        .iter()
        .position(|&x| x == v)
        .expect("every variant is in Variant::ALL")
}

impl ChaosInstance {
    fn chaos_data(size: ProblemSize) -> Vec<f32> {
        let n = match size {
            ProblemSize::Test => 1 << 10,
            ProblemSize::Quick => 1 << 14,
            ProblemSize::Paper => 1 << 16,
        };
        // Deterministic, seed-independent inputs: the seed is reserved for
        // victim selection, and re-created instances (after a timeout or
        // panic) must regenerate identical data.
        (0..n).map(|i| ((i % 97) as f32) * 0.25 + 1.0).collect()
    }

    fn new(mode: FailureMode, size: ProblemSize, seed: u64) -> Self {
        let mut faults = [None; 5];
        faults[variant_index(victim_of_seed(seed))] = Some(mode);
        Self {
            faults,
            data: Self::chaos_data(size),
        }
    }

    fn new_scheduled(size: ProblemSize) -> Self {
        Self {
            faults: current_schedule()
                .map(|s| s.variant_faults())
                .unwrap_or([None; 5]),
            data: Self::chaos_data(size),
        }
    }

    fn fault_for(&self, v: Variant) -> Option<FailureMode> {
        self.faults[variant_index(v)]
    }

    /// The honest computation every non-victim variant performs.
    fn honest_output(&self) -> Vec<f32> {
        self.data.iter().map(|&x| x * 1.5 + 2.0).collect()
    }

    fn output(&self, variant: Variant) -> Vec<f32> {
        let mut out = self.honest_output();
        if self.fault_for(variant) == Some(FailureMode::WrongOutput) {
            // Subtle corruption: one element, ~3% relative error — small
            // enough to keep the checksum plausible, large enough that a
            // per-element validator must flag it.
            let mid = out.len() / 2;
            out[mid] *= 1.03;
        }
        out
    }
}

impl Instance for ChaosInstance {
    fn run(&mut self, variant: Variant, _pool: &ThreadPool) -> f64 {
        if let Some(mode) = self.fault_for(variant) {
            match mode {
                FailureMode::Panic => {
                    panic!("chaos: injected panic in variant {variant}")
                }
                FailureMode::Hang => loop {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                },
                FailureMode::NonFinite => return f64::NAN,
                FailureMode::WrongOutput => {}
            }
        }
        self.output(variant).checksum()
    }

    fn validate(&mut self, variant: Variant, _pool: &ThreadPool) -> Result<(), ValidationError> {
        if let Some(mode) = self.fault_for(variant) {
            match mode {
                FailureMode::Panic => {
                    panic!("chaos: injected panic in variant {variant}")
                }
                FailureMode::Hang => loop {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                },
                // NonFinite sabotages only the measured checksum, so
                // validation passes and the harness's non-finite check is
                // the one that must catch it.
                FailureMode::NonFinite => return Ok(()),
                FailureMode::WrongOutput => {}
            }
        }
        let (err, pos) = self
            .output(variant)
            .worst_error(&self.honest_output())
            .expect("every variant emits the honest output's shape");
        if err > 1e-6 {
            return Err(ValidationError {
                kernel: "chaos",
                variant,
                detail: format!(
                    "worst relative error {err:.3e} at element {pos} (injected corruption)"
                ),
            });
        }
        Ok(())
    }

    fn work(&self) -> Work {
        Work {
            flops: 2.0 * self.data.len() as f64,
            bytes: 8.0 * self.data.len() as f64,
            elems: self.data.len() as u64,
        }
    }
}

fn make_panic(size: ProblemSize, seed: u64) -> Box<dyn Instance> {
    Box::new(ChaosInstance::new(FailureMode::Panic, size, seed))
}

fn make_hang(size: ProblemSize, seed: u64) -> Box<dyn Instance> {
    Box::new(ChaosInstance::new(FailureMode::Hang, size, seed))
}

fn make_nan(size: ProblemSize, seed: u64) -> Box<dyn Instance> {
    Box::new(ChaosInstance::new(FailureMode::NonFinite, size, seed))
}

fn make_wrong(size: ProblemSize, seed: u64) -> Box<dyn Instance> {
    Box::new(ChaosInstance::new(FailureMode::WrongOutput, size, seed))
}

fn variants() -> [VariantInfo; 5] {
    let mut infos = Variant::ALL.map(|v| VariantInfo {
        variant: v,
        effort_loc: 1,
        what_changed: "fault injection — not a real optimization tier",
    });
    for (i, info) in infos.iter_mut().enumerate() {
        info.effort_loc = i as u32 + 1;
    }
    infos
}

/// The spec for one failure mode. The kernel is named `chaos-<mode>` so
/// reports make the injection obvious.
pub fn spec(mode: FailureMode) -> KernelSpec {
    let (name, description, make): (&'static str, &'static str, _) = match mode {
        FailureMode::Panic => (
            "chaos-panic",
            "fault injection: panics on the victim variant",
            make_panic as fn(_, _) -> _,
        ),
        FailureMode::Hang => (
            "chaos-hang",
            "fault injection: hangs on the victim variant",
            make_hang as fn(_, _) -> _,
        ),
        FailureMode::NonFinite => (
            "chaos-nan",
            "fault injection: NaN checksum on the victim variant",
            make_nan as fn(_, _) -> _,
        ),
        FailureMode::WrongOutput => (
            "chaos-wrong",
            "fault injection: wrong output on the victim variant",
            make_wrong as fn(_, _) -> _,
        ),
    };
    KernelSpec {
        name,
        description,
        bound: "compute",
        variants: variants(),
        character: Characterization {
            flops_per_elem: 2.0,
            bytes_per_elem: 8.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.0,
            parallel_frac: 0.5,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.0,
            simd_efficiency: 1.0,
        },
        make,
    }
}

/// One spec per failure mode, in [`FailureMode::ALL`] order.
pub fn all_specs() -> Vec<KernelSpec> {
    FailureMode::ALL.into_iter().map(spec).collect()
}

fn make_scheduled(size: ProblemSize, _seed: u64) -> Box<dyn Instance> {
    Box::new(ChaosInstance::new_scheduled(size))
}

/// The spec for the schedule-driven chaos kernel: each ladder rung faults
/// (or not) per the process-global [`ChaosSchedule`] installed with
/// [`set_schedule`]. Named `chaos-sched` so the `chaos` prefix keeps it
/// out of perfdb, like the single-victim specs.
pub fn spec_scheduled() -> KernelSpec {
    KernelSpec {
        name: "chaos-sched",
        description: "fault injection: seeded probabilistic per-rung schedule",
        bound: "compute",
        variants: variants(),
        character: Characterization {
            flops_per_elem: 2.0,
            bytes_per_elem: 8.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 0.0,
            simd_friendly_frac: 0.0,
            parallel_frac: 0.5,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.0,
            simd_efficiency: 1.0,
        },
        make: make_scheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_roundtrip() {
        for m in FailureMode::ALL {
            assert_eq!(FailureMode::from_name(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(FailureMode::from_name("bogus"), None);
    }

    #[test]
    fn victim_selection_covers_all_variants() {
        for (i, v) in Variant::ALL.into_iter().enumerate() {
            assert_eq!(victim_of_seed(i as u64), v);
            assert_eq!(victim_of_seed(i as u64 + 5), v);
        }
    }

    #[test]
    fn non_victim_variants_do_honest_work() {
        let pool = ThreadPool::with_threads(1);
        // Victim = ninja (seed 4); every other variant validates and
        // produces a matching finite checksum.
        let spec = spec(FailureMode::Panic);
        let mut inst = (spec.make)(ProblemSize::Test, 4);
        for v in [
            Variant::Naive,
            Variant::Parallel,
            Variant::Simd,
            Variant::Algorithmic,
        ] {
            inst.validate(v, &pool).unwrap();
            let c = inst.run(v, &pool);
            assert!(c.is_finite() && c > 0.0);
        }
    }

    #[test]
    fn panic_mode_panics_on_victim_only() {
        let pool = ThreadPool::with_threads(1);
        let spec = spec(FailureMode::Panic);
        let mut inst = (spec.make)(ProblemSize::Test, 0); // victim = naive
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inst.run(Variant::Naive, &pool)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn nan_mode_passes_validation_but_poisons_checksum() {
        let pool = ThreadPool::with_threads(1);
        let spec = spec(FailureMode::NonFinite);
        let mut inst = (spec.make)(ProblemSize::Test, 2); // victim = simd
        inst.validate(Variant::Simd, &pool).unwrap();
        assert!(inst.run(Variant::Simd, &pool).is_nan());
        assert!(inst.run(Variant::Naive, &pool).is_finite());
    }

    #[test]
    fn wrong_mode_fails_validation_with_detail() {
        let pool = ThreadPool::with_threads(1);
        let spec = spec(FailureMode::WrongOutput);
        let mut inst = (spec.make)(ProblemSize::Test, 3); // victim = algorithmic
        let err = inst.validate(Variant::Algorithmic, &pool).unwrap_err();
        assert!(err.detail.contains("injected corruption"), "{}", err.detail);
        inst.validate(Variant::Ninja, &pool).unwrap();
        // The corrupted checksum is still finite and close to honest.
        let bad = inst.run(Variant::Algorithmic, &pool);
        let good = inst.run(Variant::Naive, &pool);
        assert!(bad.is_finite());
        assert!(
            (bad - good).abs() / good > 0.0,
            "corruption must move the checksum"
        );
    }

    #[test]
    fn all_specs_have_unique_chaos_names() {
        let specs = all_specs();
        assert_eq!(specs.len(), 4);
        for s in &specs {
            assert!(s.name.starts_with("chaos-"));
        }
        assert!(spec_scheduled().name.starts_with("chaos-"));
    }

    #[test]
    fn schedule_is_deterministic_and_order_independent() {
        let s = ChaosSchedule::new(42, 0.3);
        let forward: Vec<_> = (0..256).map(|i| s.fault_at(i)).collect();
        let backward: Vec<_> = (0..256).rev().map(|i| s.fault_at(i)).collect();
        let rev: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev);
        // Same seed+rate rebuilt from scratch reproduces bit-for-bit.
        let s2 = ChaosSchedule::new(42, 0.3);
        assert_eq!(
            forward,
            (0..256).map(|i| s2.fault_at(i)).collect::<Vec<_>>()
        );
        // A different seed gives a different sequence.
        let s3 = ChaosSchedule::new(43, 0.3);
        assert_ne!(
            forward,
            (0..256).map(|i| s3.fault_at(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_rate_extremes() {
        let never = ChaosSchedule::new(7, 0.0);
        let always = ChaosSchedule::new(7, 1.0);
        for i in 0..128 {
            assert_eq!(never.fault_at(i), None);
            assert!(always.fault_at(i).is_some());
        }
        // Clamping: out-of-range and NaN rates are safe.
        assert_eq!(ChaosSchedule::new(7, -0.5).rate(), 0.0);
        assert_eq!(ChaosSchedule::new(7, 2.0).rate(), 1.0);
        assert_eq!(ChaosSchedule::new(7, f64::NAN).rate(), 0.0);
    }

    #[test]
    fn schedule_rate_roughly_matches_empirical_frequency() {
        let s = ChaosSchedule::new(1234, 0.25);
        let n = 4096;
        let hits = (0..n).filter(|&i| s.fault_at(i).is_some()).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.25).abs() < 0.05,
            "empirical fault rate {freq} too far from 0.25"
        );
        // All four modes should appear at this rate and sample count.
        for mode in FailureMode::ALL {
            assert!(
                (0..n).any(|i| s.fault_at(i) == Some(mode)),
                "mode {mode} never drawn"
            );
        }
    }

    #[test]
    fn scheduled_spec_faults_per_installed_schedule() {
        let pool = ThreadPool::with_threads(1);
        // With no schedule installed every rung does honest work.
        set_schedule(None);
        let mut inst = (spec_scheduled().make)(ProblemSize::Test, 0);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
            assert!(inst.run(v, &pool).is_finite());
        }
        // Find a seed whose rate-1.0 schedule puts WrongOutput on naive
        // (rate 1.0 faults every rung; scan seeds for the mode we want).
        let seed = (0..1000u64)
            .find(|&s| {
                ChaosSchedule::new(s, 1.0).variant_faults()[0] == Some(FailureMode::WrongOutput)
            })
            .expect("some seed maps rung 0 to WrongOutput");
        set_schedule(Some(ChaosSchedule::new(seed, 1.0)));
        let mut inst = (spec_scheduled().make)(ProblemSize::Test, 0);
        set_schedule(None); // instance captured the map at construction
        let err = inst.validate(Variant::Naive, &pool).unwrap_err();
        assert!(err.detail.contains("injected corruption"), "{}", err.detail);
    }
}
