//! The `reproduce` command line: an optional mode word, then flags.
//!
//! Each mode accepts exactly the flags its code path reads. Any other flag
//! is a usage error that names the mode, so a flag meant for another mode
//! can never be silently ignored.

use ninja_kernels::chaos::FailureMode;
use ninja_kernels::ProblemSize;

/// What one invocation runs, chosen by the optional first word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No mode word: the measured suite and every artifact.
    Suite,
    /// `model`: the eight artifacts that need no measurement.
    Model,
    /// `scale`: the size × thread scaling sweep.
    Scale,
    /// `serve`: the `ninja-serve` SLO load sweep.
    Serve,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Suite, Mode::Model, Mode::Scale, Mode::Serve];

    fn name(self) -> &'static str {
        match self {
            Mode::Suite => "suite",
            Mode::Model => "model",
            Mode::Scale => "scale",
            Mode::Serve => "serve",
        }
    }

    /// The flags this mode's code path reads: `run_suite`, `run_scale`
    /// (through [`Cli::sweep_config`]) and `run_serve` respectively.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Mode::Suite => &[
                "--size",
                "--threads",
                "--reps",
                "--timeout",
                "--fail-fast",
                "--kernels",
                "--chaos",
                "--chaos-seed",
                "--chaos-rate",
                "--asm",
                "--record",
                "--baseline",
                "--store",
                "--trace",
                "--probe-metrics",
                "--counters",
            ],
            Mode::Model => &[],
            Mode::Scale => &[
                "--size",
                "--sizes",
                "--threads-max",
                "--reps",
                "--timeout",
                "--kernels",
                "--record",
                "--store",
            ],
            Mode::Serve => &[
                "--size",
                "--threads",
                "--kernels",
                "--chaos-seed",
                "--chaos-rate",
                "--serve-rates",
                "--serve-duration-ms",
                "--record",
                "--store",
            ],
        }
    }

    fn flag_list(self) -> String {
        match self.flags() {
            [] => "no flags".to_owned(),
            flags => flags.join(" "),
        }
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: reproduce [model|scale|serve] [flags]  (no mode word runs the suite)\n",
    );
    for mode in Mode::ALL {
        out.push_str(&format!("  {:<6} {}\n", mode.name(), mode.flag_list()));
    }
    out
}

/// Parsed command line. Fields a mode does not read keep their defaults.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Cli {
    /// Which code path runs.
    pub(crate) mode: Mode,
    /// Problem-size preset.
    pub(crate) size: ProblemSize,
    /// Pool threads for parallel variants (and the serving pool).
    pub(crate) threads: usize,
    /// Timed repetitions per variant.
    pub(crate) reps: u32,
    /// Per-variant wall-clock budget in seconds; `0` disables the watchdog.
    pub(crate) timeout_s: u64,
    /// Stop the suite at the first failed variant instead of keeping going.
    pub(crate) fail_fast: bool,
    /// Optional chaos kernel to append to the suite (harness self-test).
    pub(crate) chaos: Option<FailureMode>,
    /// Compile the kernels to assembly and run the vectorization oracle
    /// before measuring; a Simd/Ninja rung with no vector evidence aborts
    /// the run, and the per-rung profiles ride along in the suite report.
    pub(crate) asm: bool,
    /// Append the run to the persistent perf store (and, for the suite,
    /// regenerate the `BENCH_history.json` trajectory artifact).
    pub(crate) record: bool,
    /// Baseline to compare against (`latest`, `latest~N`, a record id, or
    /// a file path); a confirmed regression makes the exit nonzero.
    pub(crate) baseline: Option<String>,
    /// Perf-store directory (shared with the `perfdb` binary).
    pub(crate) store: String,
    /// Output path for a Chrome `trace_event` JSON of the run's spans.
    pub(crate) trace: Option<String>,
    /// Collect pool utilization and raw per-rep samples, calibrate the
    /// host, attribute cells against it and print the C1 table.
    pub(crate) probe_metrics: bool,
    /// Open hardware performance counters around every measured rep;
    /// degrades to a printed reason without a PMU.
    pub(crate) counters: bool,
    /// Largest thread count of the `scale` grid; `None` uses the hardware
    /// thread count.
    pub(crate) threads_max: Option<usize>,
    /// Problem sizes of the `scale` grid; `None` sweeps only `--size`.
    pub(crate) sizes: Option<Vec<ProblemSize>>,
    /// Registry kernels the suite or the sweep is restricted to; `None`
    /// runs the whole registry. `serve` takes exactly one: the served
    /// kernel.
    pub(crate) kernels: Option<Vec<String>>,
    /// Offered request rates (requests/second) of the `serve` sweep.
    pub(crate) serve_rates: Vec<f64>,
    /// Wall-clock length of each `serve` rate point, milliseconds.
    pub(crate) serve_duration_ms: u64,
    /// Seed of the deterministic probabilistic fault schedule; either
    /// `--chaos-seed` or `--chaos-rate` opts scheduled chaos in.
    pub(crate) chaos_seed: Option<u64>,
    /// Per-attempt fault probability of the schedule, in `[0, 1]`.
    pub(crate) chaos_rate: Option<f64>,
}

impl Cli {
    /// The watchdog budget as a `Duration`, or `None` when disabled.
    pub(crate) fn timeout(&self) -> Option<std::time::Duration> {
        (self.timeout_s > 0).then(|| std::time::Duration::from_secs(self.timeout_s))
    }

    /// The registry specs the measured suite runs: all ten, or the
    /// `--kernels` subset in registry order.
    pub(crate) fn suite_specs(&self) -> Vec<ninja_kernels::KernelSpec> {
        let mut specs = ninja_kernels::registry();
        if let Some(names) = &self.kernels {
            specs.retain(|s| names.iter().any(|n| n == s.name));
        }
        specs
    }

    /// The `scale` grid: `--sizes` (defaulting to the single `--size`
    /// preset) crossed with `thread_grid(--threads-max)`, carrying over
    /// reps/timeout and the optional `--kernels` filter.
    pub(crate) fn sweep_config(&self) -> ninja_core::SweepConfig {
        ninja_core::SweepConfig {
            sizes: self.sizes.clone().unwrap_or_else(|| vec![self.size]),
            threads: ninja_core::thread_grid(
                self.threads_max
                    .unwrap_or_else(ninja_parallel::hardware_threads),
            ),
            reps: self.reps,
            timeout: self.timeout(),
            kernels: self.kernels.clone(),
            ..Default::default()
        }
    }

    /// The seeded chaos schedule implied by `--chaos-seed`/`--chaos-rate`.
    /// Either flag opts in; the one left out takes its default (seed
    /// 2012, rate 0.1). The same `(seed, rate)` pair produces the same
    /// fault sequence here and inside `ninja-serve`, bit for bit.
    pub(crate) fn chaos_schedule(&self) -> Option<ninja_kernels::chaos::ChaosSchedule> {
        (self.chaos_seed.is_some() || self.chaos_rate.is_some()).then(|| {
            ninja_kernels::chaos::ChaosSchedule::new(
                self.chaos_seed.unwrap_or(2012),
                self.chaos_rate.unwrap_or(0.1),
            )
        })
    }
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            mode: Mode::Suite,
            size: ProblemSize::Quick,
            threads: ninja_parallel::hardware_threads(),
            reps: 3,
            timeout_s: 120,
            fail_fast: false,
            chaos: None,
            asm: false,
            record: false,
            baseline: None,
            store: ninja_perfdb::DEFAULT_DIR.to_owned(),
            trace: None,
            probe_metrics: false,
            counters: false,
            threads_max: None,
            sizes: None,
            kernels: None,
            serve_rates: vec![500.0, 2_000.0, 8_000.0],
            serve_duration_ms: 1_000,
            chaos_seed: None,
            chaos_rate: None,
        }
    }
}

/// Parses an argument iterator (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for an unknown mode word, an unknown
/// flag, a flag the mode does not read, or a malformed value.
pub(crate) fn parse_args<I: Iterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut args = args.peekable();
    let mut cli = Cli::default();
    if let Some(word) = args.next_if(|a| !a.starts_with('-')) {
        // Every mode but the suite has a word.
        cli.mode = Mode::ALL[1..]
            .iter()
            .copied()
            .find(|m| m.name() == word)
            .ok_or_else(|| {
                format!("unknown mode '{word}' (modes: model, scale, serve; none runs the suite)")
            })?;
    }
    while let Some(flag) = args.next() {
        let accepted = cli.mode.flags();
        if !accepted.contains(&flag.as_str())
            && Mode::ALL.iter().any(|m| m.flags().contains(&flag.as_str()))
        {
            return Err(format!(
                "{flag} is not a {} flag (it takes {})",
                cli.mode.name(),
                cli.mode.flag_list()
            ));
        }
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--size" => {
                let v = value("--size")?;
                cli.size = ProblemSize::from_name(&v)
                    .ok_or_else(|| format!("unknown size '{v}' (test|quick|paper)"))?;
            }
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if cli.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--reps" => {
                cli.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if cli.reps == 0 {
                    return Err("--reps must be positive".into());
                }
            }
            "--timeout" => {
                cli.timeout_s = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
            }
            "--threads-max" => {
                let max: usize = value("--threads-max")?
                    .parse()
                    .map_err(|e| format!("--threads-max: {e}"))?;
                if max == 0 {
                    return Err("--threads-max must be positive".into());
                }
                cli.threads_max = Some(max);
            }
            "--sizes" => {
                let list = value("--sizes")?;
                let mut sizes = Vec::new();
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    sizes.push(ProblemSize::from_name(name).ok_or_else(|| {
                        format!("unknown size '{name}' in --sizes (test|quick|paper)")
                    })?);
                }
                if sizes.is_empty() {
                    return Err("--sizes needs at least one size".into());
                }
                cli.sizes = Some(sizes);
            }
            "--kernels" => {
                let list = value("--kernels")?;
                let kernels: Vec<String> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if kernels.is_empty() {
                    return Err("--kernels needs at least one kernel name".into());
                }
                let valid: Vec<&str> = ninja_kernels::registry().iter().map(|s| s.name).collect();
                if let Some(unknown) = kernels.iter().find(|k| !valid.contains(&k.as_str())) {
                    return Err(format!(
                        "--kernels: unknown kernel '{unknown}' (valid: {})",
                        valid.join(", ")
                    ));
                }
                if cli.mode == Mode::Serve && kernels.len() > 1 {
                    return Err("--kernels: serve runs one kernel".into());
                }
                cli.kernels = Some(kernels);
            }
            "--fail-fast" => cli.fail_fast = true,
            "--trace" => cli.trace = Some(value("--trace")?),
            "--probe-metrics" => cli.probe_metrics = true,
            "--counters" => cli.counters = true,
            "--asm" => cli.asm = true,
            "--record" => cli.record = true,
            "--baseline" => cli.baseline = Some(value("--baseline")?),
            "--store" => cli.store = value("--store")?,
            "--chaos" => {
                let v = value("--chaos")?;
                cli.chaos =
                    Some(FailureMode::from_name(&v).ok_or_else(|| {
                        format!("unknown chaos mode '{v}' (panic|hang|nan|wrong)")
                    })?);
            }
            "--chaos-seed" => {
                cli.chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?,
                );
            }
            "--chaos-rate" => {
                let rate: f64 = value("--chaos-rate")?
                    .parse()
                    .map_err(|e| format!("--chaos-rate: {e}"))?;
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    return Err("--chaos-rate must be in [0, 1]".into());
                }
                cli.chaos_rate = Some(rate);
            }
            "--serve-rates" => {
                let list = value("--serve-rates")?;
                let mut rates = Vec::new();
                for part in list.split(',').filter(|s| !s.is_empty()) {
                    let rate: f64 = part
                        .parse()
                        .map_err(|e| format!("--serve-rates '{part}': {e}"))?;
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(format!(
                            "--serve-rates '{part}': rates must be positive and finite"
                        ));
                    }
                    rates.push(rate);
                }
                if rates.is_empty() {
                    return Err("--serve-rates needs at least one rate".into());
                }
                cli.serve_rates = rates;
            }
            "--serve-duration-ms" => {
                cli.serve_duration_ms = value("--serve-duration-ms")?
                    .parse()
                    .map_err(|e| format!("--serve-duration-ms: {e}"))?;
                if cli.serve_duration_ms == 0 {
                    return Err("--serve-duration-ms must be positive".into());
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(cli)
}

/// Parses `std::env::args()` and exits 2 with a message on error.
pub(crate) fn from_env() -> Cli {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Cli, String> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.mode, Mode::Suite);
        assert_eq!(cli.size, ProblemSize::Quick);
        assert_eq!(cli.reps, 3);
        assert!(cli.threads >= 1);
        assert_eq!(cli.timeout_s, 120);
        assert!(!cli.fail_fast);
        assert_eq!(cli.chaos, None);
        assert!(!cli.record);
        assert_eq!(cli.baseline, None);
        assert_eq!(cli.store, ninja_perfdb::DEFAULT_DIR);
        assert_eq!(cli.chaos_schedule(), None);
    }

    #[test]
    fn each_mode_takes_only_the_flags_it_reads() {
        let cases: &[(&[&str], Result<Mode, &str>)] = &[
            (&["model"], Ok(Mode::Model)),
            (
                &["model", "--size", "test"],
                Err("--size is not a model flag"),
            ),
            (&["scale", "--sizes", "test"], Ok(Mode::Scale)),
            (
                &["scale", "--trace", "t.json"],
                Err("--trace is not a scale flag"),
            ),
            (
                &["scale", "--threads", "2"],
                Err("--threads is not a scale flag"),
            ),
            (&["scale", "--probe-metrics"], Err("not a scale flag")),
            (&["scale", "--asm"], Err("not a scale flag")),
            (&["scale", "--chaos", "panic"], Err("not a scale flag")),
            (&["scale", "--baseline", "latest"], Err("not a scale flag")),
            (&["scale", "--serve-rates", "100"], Err("not a scale flag")),
            (&["serve", "--serve-rates", "100"], Ok(Mode::Serve)),
            (&["serve", "--reps", "2"], Err("--reps is not a serve flag")),
            (&["serve", "--timeout", "5"], Err("not a serve flag")),
            (&["serve", "--trace", "t.json"], Err("not a serve flag")),
            (&["serve", "--asm"], Err("not a serve flag")),
            (&["serve", "--counters"], Err("not a serve flag")),
            (
                &["serve", "--kernels", "libor,nbody"],
                Err("serve runs one kernel"),
            ),
            (&["--sizes", "test"], Err("--sizes is not a suite flag")),
            (&["--threads-max", "2"], Err("not a suite flag")),
            (&["--serve-duration-ms", "5"], Err("not a suite flag")),
            (
                &["unknown-word"],
                Err("unknown mode 'unknown-word' (modes: model, scale, serve"),
            ),
            (&["--size", "test", "model"], Err("unknown flag 'model'")),
            // Retired flags: the mode words replace two, `--affinity` pinned
            // workers no workload asked to pin, the rest had no effect.
            (&["--scale"], Err("unknown flag '--scale'")),
            (&["--serve"], Err("unknown flag '--serve'")),
            (&["--quick"], Err("unknown flag '--quick'")),
            (&["--keep-going"], Err("unknown flag '--keep-going'")),
            (&["--lint"], Err("unknown flag '--lint'")),
            (&["--affinity"], Err("unknown flag '--affinity'")),
            (&["serve", "--affinity"], Err("unknown flag '--affinity'")),
            (
                &["--noise-floor", "0.1"],
                Err("unknown flag '--noise-floor'"),
            ),
        ];
        for (args, want) in cases {
            match (parse(args), want) {
                (Ok(cli), Ok(mode)) => assert_eq!(cli.mode, *mode, "{args:?}"),
                (Err(e), Err(fragment)) => assert!(e.contains(fragment), "{args:?}: {e}"),
                (got, want) => panic!("{args:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn every_flag_a_mode_lists_parses_in_that_mode() {
        let sample = |flag: &str| match flag {
            "--size" => Some("test"),
            "--threads" | "--threads-max" | "--reps" | "--timeout" => Some("2"),
            "--kernels" => Some("libor"),
            "--chaos" => Some("hang"),
            "--chaos-seed" => Some("7"),
            "--chaos-rate" => Some("0.25"),
            "--baseline" => Some("latest~2"),
            "--store" | "--trace" => Some("out"),
            "--sizes" => Some("test,quick"),
            "--serve-rates" => Some("100,1500.5"),
            "--serve-duration-ms" => Some("250"),
            _ => None,
        };
        for mode in Mode::ALL {
            let mut args: Vec<&str> = Vec::new();
            if mode != Mode::Suite {
                args.push(mode.name());
            }
            for &flag in mode.flags() {
                args.push(flag);
                args.extend(sample(flag));
            }
            let cli = parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(cli.mode, mode);
        }
    }

    #[test]
    fn suite_flags_land_in_their_fields() {
        let cli = parse(&[
            "--size",
            "paper",
            "--threads",
            "4",
            "--reps",
            "7",
            "--timeout",
            "30",
            "--fail-fast",
            "--chaos",
            "hang",
            "--record",
            "--baseline",
            "latest~2",
            "--store",
            "/tmp/perfstore",
            "--trace",
            "out.json",
            "--probe-metrics",
            "--counters",
            "--asm",
        ])
        .unwrap();
        assert_eq!(cli.size, ProblemSize::Paper);
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.reps, 7);
        assert_eq!(cli.timeout(), Some(std::time::Duration::from_secs(30)));
        assert!(cli.fail_fast && cli.record);
        assert!(cli.probe_metrics && cli.counters && cli.asm);
        assert_eq!(cli.chaos, Some(FailureMode::Hang));
        assert_eq!(cli.baseline.as_deref(), Some("latest~2"));
        assert_eq!(cli.store, "/tmp/perfstore");
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert!(parse(&["--trace"]).is_err(), "--trace needs a path");
    }

    #[test]
    fn kernels_flag_restricts_the_measured_suite() {
        let names = |cli: &Cli| -> Vec<&str> { cli.suite_specs().iter().map(|s| s.name).collect() };
        assert_eq!(names(&parse(&[]).unwrap()).len(), 10);
        // Registry order, whatever order the flag lists them in.
        let cli = parse(&["--kernels", "libor,nbody"]).unwrap();
        assert_eq!(names(&cli), ["nbody", "libor"]);
    }

    #[test]
    fn kernels_flag_rejects_unknown_names_with_the_valid_list() {
        let err = parse(&["--kernels", "nbody,black_scholes"]).unwrap_err();
        assert!(err.contains("unknown kernel 'black_scholes'"), "{err}");
        for spec in ninja_kernels::registry() {
            assert!(err.contains(spec.name), "{err} should list {}", spec.name);
        }
    }

    #[test]
    fn sweep_config_reflects_the_flags() {
        let cli = parse(&[
            "scale",
            "--threads-max",
            "4",
            "--sizes",
            "test",
            "--reps",
            "2",
            "--timeout",
            "0",
        ])
        .unwrap();
        let config = cli.sweep_config();
        assert_eq!(config.sizes, vec![ProblemSize::Test]);
        assert_eq!(config.threads, vec![1, 2, 3, 4]);
        assert_eq!(config.reps, 2);
        assert_eq!(config.timeout, None);
        assert_eq!(config.kernels, None);
        // Without --sizes the sweep uses the --size preset.
        let config = parse(&["scale", "--size", "paper"]).unwrap().sweep_config();
        assert_eq!(config.sizes, vec![ProblemSize::Paper]);
    }

    #[test]
    fn serve_flags_default_and_parse() {
        let cli = parse(&["serve"]).unwrap();
        assert_eq!(cli.serve_rates, vec![500.0, 2_000.0, 8_000.0]);
        assert_eq!(cli.serve_duration_ms, 1_000);
        let cli = parse(&[
            "serve",
            "--serve-rates",
            "100,1500.5",
            "--serve-duration-ms",
            "250",
            "--kernels",
            "libor",
        ])
        .unwrap();
        assert_eq!(cli.serve_rates, vec![100.0, 1500.5]);
        assert_eq!(cli.serve_duration_ms, 250);
        assert_eq!(cli.kernels.as_deref(), Some(&["libor".to_owned()][..]));
    }

    #[test]
    fn chaos_schedule_flags_parse_and_default_each_other() {
        let sched = parse(&["--chaos-seed", "7", "--chaos-rate", "0.25"])
            .unwrap()
            .chaos_schedule()
            .unwrap();
        assert_eq!(sched.seed(), 7);
        assert!((sched.rate() - 0.25).abs() < 1e-12);
        // Either flag alone opts in, the other takes its default.
        let sched = parse(&["--chaos-rate", "1.0"]).unwrap().chaos_schedule();
        assert_eq!(sched.unwrap().seed(), 2012);
        let sched = parse(&["--chaos-seed", "9"]).unwrap().chaos_schedule();
        assert!((sched.unwrap().rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_timeout_disables_watchdog() {
        let cli = parse(&["--timeout", "0"]).unwrap();
        assert_eq!(cli.timeout(), None);
    }

    #[test]
    fn rejects_bad_values() {
        for args in [
            &["--size", "huge"][..],
            &["--threads", "0"],
            &["--reps"],
            &["--timeout", "soon"],
            &["--chaos", "gremlins"],
            &["--chaos-rate", "1.5"],
            &["--chaos-rate", "-0.1"],
            &["--chaos-seed", "soon"],
            &["--kernels", ","],
            &["--help"],
            &["scale", "--threads-max", "0"],
            &["scale", "--sizes", "huge"],
            &["scale", "--sizes", ","],
            &["scale", "--sizes"],
            &["serve", "--serve-rates", "0"],
            &["serve", "--serve-rates", "-5"],
            &["serve", "--serve-rates", "fast"],
            &["serve", "--serve-rates", ","],
            &["serve", "--serve-duration-ms", "0"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
