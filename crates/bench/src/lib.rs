//! Shared plumbing for the `fig*`/`table*` reproduction binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --size test|quick|paper   problem-size preset (default: quick)
//! --threads N               measurement pool threads (default: hardware)
//! --affinity                round-robin-pin pool workers to cores (best
//!                           effort; no-op where `sched_setaffinity` is
//!                           unavailable or denied)
//! --reps N                  timed repetitions per variant (default: 3)
//! --timeout SECONDS         per-variant wall-clock budget; 0 disables
//!                           (default: 120)
//! --fail-fast               stop the suite at the first failed variant
//! --keep-going              run every kernel even after failures (default)
//! --chaos panic|hang|nan|wrong
//!                           inject one fault-injection kernel (testing the
//!                           harness itself; forces a nonzero exit code)
//! --chaos-seed N            seed of the deterministic probabilistic fault
//!                           schedule; opts the chaos kernel into scheduled
//!                           mode (shared bit-for-bit with ninja-serve)
//! --chaos-rate F            per-attempt fault probability of the schedule,
//!                           in [0, 1] (default 0.1 when only the seed is
//!                           given; the seed defaults to 2012)
//! --lint                    run the ninja-lint taxonomy audit as a
//!                           preflight and refuse to measure on findings
//! --asm                     compile the kernels to assembly and run the
//!                           ninja-asm vectorization oracle as a preflight;
//!                           refuses to measure when a Simd/Ninja rung has
//!                           no vector evidence, and embeds the per-rung
//!                           VecProfile table into suite_report.json
//! --record                  append this run to the persistent perf store
//!                           and regenerate BENCH_history.json
//! --baseline REF            compare against a baseline (a store ref like
//!                           `latest`/`latest~N`/an id, or a file path) and
//!                           exit nonzero on a confirmed regression
//! --store DIR               perf-store directory (default: perfdb)
//! --noise-floor F           relative floor for the regression gate
//!                           (default: the CI-host gate preset, 0.25)
//! --trace PATH              record harness/pool spans and write a Chrome
//!                           trace_event JSON (load in Perfetto / about:tracing)
//! --probe-metrics           collect thread-pool utilization + raw per-rep
//!                           samples and attribute cells against the
//!                           calibrated host machine
//! --counters                open hardware performance counters
//!                           (perf_event_open) around every measured rep
//!                           and pool job: per-cell IPC / LLC miss rate /
//!                           estimated DRAM GB/s cross-checked against the
//!                           modeled roofline bound, plus per-worker
//!                           local-vs-steal cache windows; degrades to a
//!                           printed reason where the PMU is unavailable
//! --scale                   run a thread/size scaling sweep instead of the
//!                           single-point suite: speedup curves per rung,
//!                           Amdahl/USL fits, sweep_report.json/.csv
//! --threads-max N           largest thread count in the --scale grid
//!                           (default: hardware threads)
//! --sizes a,b,c             comma-separated problem sizes for the --scale
//!                           grid (default: the --size preset)
//! --kernels a,b,c           restrict the suite (or the --scale sweep) to
//!                           these registry kernels; unknown names exit 2
//! --serve                   run the ninja-serve SLO load sweep instead of
//!                           the suite: open-loop load at each offered rate,
//!                           p50/p99 + shed/expired/degraded per point,
//!                           serve_report.json (`--kernels` picks the served
//!                           kernel; `--chaos-seed`/`--chaos-rate` inject
//!                           faults at the serving layer)
//! --serve-rates a,b,c       offered request rates (req/s) for the --serve
//!                           sweep (default: 500,2000,8000)
//! --serve-duration-ms N     wall-clock length of each --serve rate point
//!                           (default: 1000)
//! --quick                   shorthand for --size quick
//! ```
//!
//! Run `cargo run --release -p ninja-bench --bin reproduce` to regenerate
//! every table and figure in one go.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use ninja_kernels::chaos::FailureMode;
use ninja_kernels::ProblemSize;

/// Parsed command-line options shared by the reproduction binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// Problem-size preset.
    pub size: ProblemSize,
    /// Pool threads for parallel variants.
    pub threads: usize,
    /// Round-robin-pin pool workers to cores (best effort).
    pub affinity: bool,
    /// Timed repetitions per variant.
    pub reps: u32,
    /// Per-variant wall-clock budget in seconds; `0` disables the watchdog.
    pub timeout_s: u64,
    /// Stop the suite at the first failed variant instead of keeping going.
    pub fail_fast: bool,
    /// Optional chaos kernel to append to the suite (harness self-test).
    pub chaos: Option<FailureMode>,
    /// Run the `ninja-lint` taxonomy audit before measuring; findings
    /// abort the run so mislabeled variants cannot produce numbers.
    pub lint: bool,
    /// Compile the kernels to assembly and run the vectorization oracle
    /// before measuring; a Simd/Ninja rung with no vector evidence aborts
    /// the run, and the per-rung profiles ride along in the suite report.
    pub asm: bool,
    /// Append the run to the persistent perf store and regenerate the
    /// `BENCH_history.json` trajectory artifact.
    pub record: bool,
    /// Baseline to compare against (`latest`, `latest~N`, a record id, or
    /// a file path); a confirmed regression makes the exit nonzero.
    pub baseline: Option<String>,
    /// Perf-store directory (shared by `--record`/`--baseline` and the
    /// `perfdb` binary).
    pub store: String,
    /// Relative noise floor for the `--baseline` regression gate;
    /// `None` uses the shared-CI-host gate preset.
    pub noise_floor: Option<f64>,
    /// Output path for a Chrome `trace_event` JSON of the run's spans
    /// (`None` leaves tracing off).
    pub trace: Option<String>,
    /// Collect thread-pool utilization metrics and raw per-repetition
    /// samples, and attribute cells against the calibrated host.
    pub probe_metrics: bool,
    /// Open hardware performance counters around every measured rep and
    /// pool job; measured IPC / LLC miss rate / DRAM GB/s cross-check the
    /// modeled roofline bound. Degrades to an explained no-op where
    /// `perf_event_open` is unavailable.
    pub counters: bool,
    /// Run a thread/size scaling sweep (speedup curves + Amdahl/USL fits)
    /// instead of the single-point suite.
    pub scale: bool,
    /// Largest thread count in the `--scale` grid; `None` uses the
    /// hardware thread count.
    pub threads_max: Option<usize>,
    /// Problem sizes for the `--scale` grid; `None` sweeps only the
    /// `--size` preset.
    pub sizes: Option<Vec<ProblemSize>>,
    /// Registry kernel names the suite and the `--scale` sweep are
    /// restricted to; `None` runs the whole registry. For `--serve` the
    /// first name picks the served kernel.
    pub kernels: Option<Vec<String>>,
    /// Run the `ninja-serve` SLO load sweep instead of the suite.
    pub serve: bool,
    /// Offered request rates (requests/second) of the `--serve` sweep.
    pub serve_rates: Vec<f64>,
    /// Wall-clock length of each `--serve` rate point, milliseconds.
    pub serve_duration_ms: u64,
    /// Seed of the deterministic probabilistic fault schedule; either
    /// `--chaos-seed` or `--chaos-rate` opts scheduled chaos in.
    pub chaos_seed: Option<u64>,
    /// Per-attempt fault probability of the schedule, in `[0, 1]`.
    pub chaos_rate: Option<f64>,
}

impl Cli {
    /// The watchdog budget as a `Duration`, or `None` when disabled.
    pub fn timeout(&self) -> Option<std::time::Duration> {
        (self.timeout_s > 0).then(|| std::time::Duration::from_secs(self.timeout_s))
    }

    /// The registry specs the measured suite runs: all ten, or the
    /// `--kernels` subset in registry order.
    pub fn suite_specs(&self) -> Vec<ninja_kernels::KernelSpec> {
        let mut specs = ninja_kernels::registry();
        if let Some(names) = &self.kernels {
            specs.retain(|s| names.iter().any(|n| n == s.name));
        }
        specs
    }

    /// Builds the `--scale` sweep grid from the parsed flags:
    /// `--sizes` (defaulting to the single `--size` preset) crossed with
    /// `thread_grid(--threads-max)`, carrying over reps/timeout and the
    /// optional `--kernels` filter.
    pub fn sweep_config(&self) -> ninja_core::SweepConfig {
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
    pub fn chaos_schedule(&self) -> Option<ninja_kernels::chaos::ChaosSchedule> {
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
            size: ProblemSize::Quick,
            threads: ninja_parallel::hardware_threads(),
            affinity: false,
            reps: 3,
            timeout_s: 120,
            fail_fast: false,
            chaos: None,
            lint: false,
            asm: false,
            record: false,
            baseline: None,
            store: ninja_perfdb::DEFAULT_DIR.to_owned(),
            noise_floor: None,
            trace: None,
            probe_metrics: false,
            counters: false,
            scale: false,
            threads_max: None,
            sizes: None,
            kernels: None,
            serve: false,
            serve_rates: vec![500.0, 2_000.0, 8_000.0],
            serve_duration_ms: 1_000,
            chaos_seed: None,
            chaos_rate: None,
        }
    }
}

/// Parses an argument iterator (without the program name).
///
/// Unknown flags are rejected with an error message so typos don't
/// silently measure the wrong configuration.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed values.
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--size" => {
                let v = value("--size")?;
                cli.size = match v.as_str() {
                    "test" => ProblemSize::Test,
                    "quick" => ProblemSize::Quick,
                    "paper" => ProblemSize::Paper,
                    other => return Err(format!("unknown size '{other}' (test|quick|paper)")),
                };
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
            "--quick" => cli.size = ProblemSize::Quick,
            "--affinity" => cli.affinity = true,
            "--scale" => cli.scale = true,
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
                cli.kernels = Some(kernels);
            }
            "--fail-fast" => cli.fail_fast = true,
            "--keep-going" => cli.fail_fast = false,
            "--trace" => cli.trace = Some(value("--trace")?),
            "--probe-metrics" => cli.probe_metrics = true,
            "--counters" => cli.counters = true,
            "--lint" => cli.lint = true,
            "--asm" => cli.asm = true,
            "--record" => cli.record = true,
            "--baseline" => cli.baseline = Some(value("--baseline")?),
            "--store" => cli.store = value("--store")?,
            "--noise-floor" => {
                let floor: f64 = value("--noise-floor")?
                    .parse()
                    .map_err(|e| format!("--noise-floor: {e}"))?;
                if !(floor >= 0.0 && floor.is_finite()) {
                    return Err("--noise-floor must be a finite non-negative number".into());
                }
                cli.noise_floor = Some(floor);
            }
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
            "--serve" => cli.serve = true,
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
            "--help" | "-h" => {
                return Err(concat!(
                    "usage: [--size test|quick|paper] [--threads N] [--affinity]\n",
                    "       [--reps N] [--timeout SECONDS] [--fail-fast|--keep-going]\n",
                    "       [--chaos panic|hang|nan|wrong] [--chaos-seed N]\n",
                    "       [--chaos-rate F] [--lint] [--asm]\n",
                    "       [--record] [--baseline REF|PATH] [--store DIR]\n",
                    "       [--noise-floor F] [--trace PATH] [--probe-metrics]\n",
                    "       [--counters]\n",
                    "       [--scale] [--threads-max N] [--sizes a,b,c]\n",
                    "       [--kernels a,b,c] [--serve] [--serve-rates a,b,c]\n",
                    "       [--serve-duration-ms N] [--quick]"
                )
                .into())
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cli.serve && cli.scale {
        return Err("--serve and --scale are mutually exclusive".into());
    }
    Ok(cli)
}

/// Runs the `ninja-lint` workspace audit as a measurement preflight.
///
/// Returns the number of files scanned when the tree is clean.
///
/// # Errors
///
/// Returns the rendered findings when the audit fails, or the underlying
/// I/O message when the workspace sources cannot be read.
pub fn lint_preflight() -> Result<u64, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    let report = ninja_lint::analyze_workspace(root).map_err(|e| e.to_string())?;
    if report.clean {
        Ok(report.files_scanned)
    } else {
        Err(report.render_text())
    }
}

/// Runs the ninja-asm vectorization oracle as a measurement preflight.
///
/// Compiles `crates/kernels` to assembly (toolchain-default target-cpu),
/// classifies every rung's emitted instructions, and returns the per-rung
/// profiles converted to the suite-report record form so callers can embed
/// them into `suite_report.json` / the perf store.
///
/// # Errors
///
/// Returns the rendered findings when a Simd/Ninja rung has no vector
/// evidence (NL008) or a `Relaxed` ordering lacks justification (NL010),
/// or the underlying compiler/I/O message when `cargo rustc` fails.
pub fn asm_preflight() -> Result<Vec<ninja_core::VecProfileRecord>, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    let audit = ninja_lint::asm_audit(root, &ninja_lint::AsmOptions::default())
        .map_err(|e| e.to_string())?;
    if !audit.report.clean {
        return Err(audit.report.render_text());
    }
    // The oracle names kernels by source-file stem (`black_scholes`);
    // measured cells use the registry name (`blackscholes`). Map the stem
    // onto the registry name so `perfdb compare`/`trend` lookups line up.
    let registry: Vec<&'static str> = ninja_kernels::registry()
        .into_iter()
        .map(|spec| spec.name)
        .collect();
    Ok(audit
        .profiles
        .into_iter()
        .map(|p| ninja_core::VecProfileRecord {
            kernel: registry
                .iter()
                .find(|name| p.kernel.replace('_', "") == **name)
                .map_or(p.kernel, |name| (*name).to_owned()),
            rung: p.rung,
            width_bits: p.width_bits,
            vector_fp_ops: p.vector_fp_ops,
            scalar_fp_ops: p.scalar_fp_ops,
            vector_int_ops: p.vector_int_ops,
            matched_symbols: p.matched_symbols,
            fma: p.fma,
            gather: p.gather,
            scatter: p.scatter,
            classification: p.classification,
        })
        .collect())
}

/// Parses `std::env::args()` and exits with a message on error.
pub fn cli_from_env() -> Cli {
    match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
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
        assert_eq!(cli.size, ProblemSize::Quick);
        assert_eq!(cli.reps, 3);
        assert!(cli.threads >= 1);
    }

    #[test]
    fn parses_all_flags() {
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
            "--lint",
            "--record",
            "--baseline",
            "latest~2",
            "--store",
            "/tmp/perfstore",
            "--noise-floor",
            "0.1",
        ])
        .unwrap();
        assert_eq!(cli.size, ProblemSize::Paper);
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.reps, 7);
        assert_eq!(cli.timeout_s, 30);
        assert_eq!(cli.timeout(), Some(std::time::Duration::from_secs(30)));
        assert!(cli.fail_fast);
        assert_eq!(cli.chaos, Some(FailureMode::Hang));
        assert!(cli.lint);
        assert!(cli.record);
        assert_eq!(cli.baseline.as_deref(), Some("latest~2"));
        assert_eq!(cli.store, "/tmp/perfstore");
        assert_eq!(cli.noise_floor, Some(0.1));
    }

    #[test]
    fn perf_store_flags_default_off() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.record);
        assert_eq!(cli.baseline, None);
        assert_eq!(cli.store, ninja_perfdb::DEFAULT_DIR);
        assert_eq!(cli.noise_floor, None);
    }

    #[test]
    fn affinity_defaults_off_and_parses() {
        assert!(!parse(&[]).unwrap().affinity);
        let cli = parse(&["--affinity", "--threads", "2"]).unwrap();
        assert!(cli.affinity);
        assert_eq!(cli.threads, 2);
    }

    #[test]
    fn probe_flags_default_off_and_parse() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.trace, None);
        assert!(!cli.probe_metrics);
        let cli = parse(&["--quick", "--trace", "out.json", "--probe-metrics"]).unwrap();
        assert_eq!(cli.size, ProblemSize::Quick);
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert!(cli.probe_metrics);
        assert!(parse(&["--trace"]).is_err(), "--trace needs a path");
    }

    #[test]
    fn counters_flag_defaults_off_and_parses() {
        assert!(!parse(&[]).unwrap().counters);
        let cli = parse(&["--counters", "--probe-metrics"]).unwrap();
        assert!(cli.counters);
        assert!(cli.probe_metrics);
    }

    #[test]
    fn scale_flags_default_off_and_parse() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.scale);
        assert_eq!(cli.threads_max, None);
        assert_eq!(cli.sizes, None);
        assert_eq!(cli.kernels, None);
        let cli = parse(&[
            "--scale",
            "--threads-max",
            "4",
            "--sizes",
            "test,quick",
            "--kernels",
            "blackscholes,nbody",
        ])
        .unwrap();
        assert!(cli.scale);
        assert_eq!(cli.threads_max, Some(4));
        assert_eq!(cli.sizes, Some(vec![ProblemSize::Test, ProblemSize::Quick]));
        assert_eq!(
            cli.kernels.as_deref(),
            Some(&["blackscholes".to_owned(), "nbody".to_owned()][..])
        );
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
            "--scale",
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
        let config = parse(&["--scale", "--size", "paper"])
            .unwrap()
            .sweep_config();
        assert_eq!(config.sizes, vec![ProblemSize::Paper]);
    }

    #[test]
    fn scale_flags_reject_garbage() {
        assert!(parse(&["--threads-max", "0"]).is_err());
        assert!(parse(&["--sizes", "huge"]).is_err());
        assert!(parse(&["--sizes", ","]).is_err());
        assert!(parse(&["--kernels", ","]).is_err());
        assert!(parse(&["--sizes"]).is_err());
    }

    #[test]
    fn serve_flags_default_off_and_parse() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.serve);
        assert_eq!(cli.serve_rates, vec![500.0, 2_000.0, 8_000.0]);
        assert_eq!(cli.serve_duration_ms, 1_000);
        let cli = parse(&[
            "--serve",
            "--serve-rates",
            "100,1500.5",
            "--serve-duration-ms",
            "250",
            "--kernels",
            "libor",
        ])
        .unwrap();
        assert!(cli.serve);
        assert_eq!(cli.serve_rates, vec![100.0, 1500.5]);
        assert_eq!(cli.serve_duration_ms, 250);
        assert_eq!(cli.kernels.as_deref(), Some(&["libor".to_owned()][..]));
    }

    #[test]
    fn serve_flags_reject_garbage() {
        assert!(parse(&["--serve-rates", "0"]).is_err());
        assert!(parse(&["--serve-rates", "-5"]).is_err());
        assert!(parse(&["--serve-rates", "fast"]).is_err());
        assert!(parse(&["--serve-rates", ","]).is_err());
        assert!(parse(&["--serve-duration-ms", "0"]).is_err());
        assert!(parse(&["--serve", "--scale"]).is_err());
    }

    #[test]
    fn chaos_schedule_flags_parse_and_default_each_other() {
        assert_eq!(parse(&[]).unwrap().chaos_schedule(), None);
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
        assert!(parse(&["--chaos-rate", "1.5"]).is_err());
        assert!(parse(&["--chaos-rate", "-0.1"]).is_err());
        assert!(parse(&["--chaos-seed", "soon"]).is_err());
    }

    #[test]
    fn noise_floor_rejects_garbage() {
        assert!(parse(&["--noise-floor", "-0.5"]).is_err());
        assert!(parse(&["--noise-floor", "NaN"]).is_err());
        assert!(parse(&["--noise-floor", "tight"]).is_err());
    }

    #[test]
    fn lint_defaults_off_and_preflight_passes_on_this_tree() {
        assert!(!parse(&[]).unwrap().lint);
        let files = lint_preflight().expect("the merged tree must lint clean");
        assert!(files > 20);
    }

    #[test]
    fn asm_flag_defaults_off_and_parses() {
        assert!(!parse(&[]).unwrap().asm);
        let cli = parse(&["--asm", "--lint"]).unwrap();
        assert!(cli.asm);
        assert!(cli.lint);
    }

    // The real-tree `asm_preflight()` drives `cargo rustc --emit asm` on
    // the kernels crate; the end-to-end run lives in the lint crate's
    // `real_tree_asm_audit_is_clean` (ignored) test and the CI asm-audit
    // job rather than in this unit suite.

    #[test]
    fn failure_flags_default_to_keep_going_with_watchdog() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.timeout_s, 120);
        assert!(!cli.fail_fast);
        assert_eq!(cli.chaos, None);
    }

    #[test]
    fn zero_timeout_disables_watchdog() {
        let cli = parse(&["--timeout", "0"]).unwrap();
        assert_eq!(cli.timeout(), None);
    }

    #[test]
    fn keep_going_overrides_earlier_fail_fast() {
        let cli = parse(&["--fail-fast", "--keep-going"]).unwrap();
        assert!(!cli.fail_fast);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--size", "huge"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--reps"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["--timeout", "soon"]).is_err());
        assert!(parse(&["--chaos", "gremlins"]).is_err());
    }
}
