//! `ninja-benchmark`: the one command that runs the repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
//!     [--check-repeat] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs
//! untraced and then traced. Every run prints one `workload metric value
//! unit` line per metric and ends with one JSON object on a line of its
//! own. Exit codes: 0 clean, 1 a wrong output or a failed repeat check,
//! 2 usage or I/O error.

use std::process::ExitCode;

use ninja_benchmark::run::{run, write_out, Config, Output};
use ninja_benchmark::spec::{workload, Better, Workload, END_TO_END, RUN_SECONDS, WORKLOADS};
use ninja_benchmark::trace::chrome_json;
use serde::{Number, Value};

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: untraced, then traced.
    trace: Option<bool>,
    check_repeat: bool,
    smoke: bool,
}

const USAGE: &str = "usage: ninja-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--check-repeat] [--smoke]";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        check_repeat: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = workload(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (expected one of {names:?})")
                })?;
                cli.workloads = vec![known];
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}\n{USAGE}"))?;
                if !(1.0..=60.0).contains(&cli.seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--check-repeat" => cli.check_repeat = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn number(v: f64) -> Value {
    if v.is_finite() {
        Value::Num(Number {
            raw: format!("{v}"),
        })
    } else {
        Value::Null
    }
}

fn result_value(out: &Output) -> Value {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let metric = Value::Object(vec![
                ("value".to_owned(), number(*value)),
                ("unit".to_owned(), Value::Str((*unit).to_owned())),
            ]);
            ((*name).to_owned(), metric)
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(out.correct)),
        ("attempted".to_owned(), number(out.attempted as f64)),
        ("failed".to_owned(), number(out.failed as f64)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

/// Prints a run: notes, one line per metric, then the result object.
fn print(out: &Output) {
    let mode = if out.traced { "traced" } else { "untraced" };
    for note in &out.notes {
        println!("# {} {mode}: {note}", out.workload);
    }
    for (name, value, unit) in &out.metrics {
        println!("{} {name} {value} {unit}", out.workload);
    }
    let line = serde_json::to_string(&result_value(out)).expect("values serialize");
    println!("{line}");
}

fn run_one(w: &Workload, cfg: &Config) -> Result<Output, String> {
    let out = run(w, cfg)?;
    if cfg.traced {
        let path = write_out(&format!("trace-{}.json", w.name), &chrome_json(&out.spans))?;
        eprintln!("wrote {}", path.display());
    }
    print(&out);
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn results_json(cli: &Cli, runs: &[Output]) -> String {
    let text = |s: String| Value::Str(s);
    let runs = runs
        .iter()
        .map(|out| {
            let Value::Object(mut fields) = result_value(out) else {
                unreachable!("a result is an object");
            };
            fields.insert(0, ("traced".to_owned(), Value::Bool(out.traced)));
            fields.insert(0, ("workload".to_owned(), text(out.workload.to_owned())));
            Value::Object(fields)
        })
        .collect();
    let doc = Value::Object(vec![
        ("seed".to_owned(), number(cli.seed as f64)),
        ("seconds".to_owned(), number(cli.seconds)),
        (
            "nproc".to_owned(),
            number(ninja_parallel::hardware_threads() as f64),
        ),
        (
            "isa".to_owned(),
            text(ninja_simd::isa::active().name().to_owned()),
        ),
        ("rustc".to_owned(), text(command_line("rustc", &["-V"]))),
        (
            "git_commit".to_owned(),
            text(ninja_perfdb::schema::detect_git_commit()),
        ),
        ("runs".to_owned(), Value::Array(runs)),
    ]);
    serde_json::to_string_pretty(&doc).expect("values serialize")
}

/// Runs every selected workload twice untraced and holds the two runs to
/// each end-to-end metric's own bound.
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let cfg = Config {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: false,
        smoke: cli.smoke,
    };
    let mut pass = true;
    for w in &cli.workloads {
        let first = run_one(w, &cfg)?;
        let second = run_one(w, &cfg)?;
        pass &= first.correct && second.correct && first.failed + second.failed == 0;
        for ((def, a), b) in END_TO_END.iter().zip(&first.metrics).zip(&second.metrics) {
            let worse = match def.better {
                Better::Lower => (b.1 - a.1) / a.1,
                Better::Higher => (a.1 - b.1) / a.1,
            };
            let ok = worse.abs() <= def.bound;
            pass &= ok;
            println!(
                "repeat {} {} {} {} {} {:+.4} bound {} {}",
                w.name,
                def.name,
                a.1,
                b.1,
                def.unit,
                worse,
                def.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut runs = Vec::new();
    for w in &cli.workloads {
        for traced in [false, true] {
            if cli.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let cfg = Config {
                seed: cli.seed,
                seconds: cli.seconds,
                traced,
                smoke: cli.smoke,
            };
            runs.push(run_one(w, &cfg)?);
        }
    }
    write_out("results.json", &results_json(cli, &runs))?;
    Ok(runs.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let verdict = if cli.check_repeat {
        check_repeat(&cli)
    } else {
        run_all(&cli)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ninja-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
