//! The `ninja-lint` binary: taxonomy enforcement for CI and preflights.
//!
//! ```text
//! ninja-lint [--root DIR] [--json PATH] [--deny-warnings] [--list-rules] [FILES...]
//! ninja-lint --asm [--target-cpu LEVEL] [--asm-file PATH]... [--deny-warnings]
//! ```
//!
//! With no `FILES`, lints the audited crates of the workspace found at
//! `--root` (default: walk up from the current directory). Findings are
//! printed one per line as `file:line: [ID name] message`; `--json`
//! additionally writes the machine-readable report (`-` for stdout).
//! With `--deny-warnings` any warning-severity finding makes the exit
//! status 1; I/O and usage errors exit 2.
//!
//! `--asm` switches to the vectorization oracle: it compiles
//! `crates/kernels` with `--emit asm` (optionally at a specific
//! `-C target-cpu` level), attributes the emitted symbols back to rungs,
//! prints one grep-friendly `vecprofile kernel/rung: ...` line per cell,
//! and runs the NL008/NL009/NL011/NL012 evidence rules: each rung is
//! held to its `expect(...)` marker, and no intrinsic may be called out
//! of line inside the AVX2 trampoline's reach. `--asm-file` audits
//! pre-emitted `.s` listings instead of driving cargo.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    root: Option<PathBuf>,
    json: Option<String>,
    deny_warnings: bool,
    list_rules: bool,
    asm: bool,
    target_cpu: Option<String>,
    asm_files: Vec<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        deny_warnings: false,
        list_rules: false,
        asm: false,
        target_cpu: None,
        asm_files: Vec::new(),
        files: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    argv.next().ok_or("--root needs a directory")?,
                ));
            }
            "--json" => {
                args.json = Some(argv.next().ok_or("--json needs a path (or -)")?);
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--list-rules" => args.list_rules = true,
            "--asm" => args.asm = true,
            "--target-cpu" => {
                args.target_cpu = Some(
                    argv.next()
                        .ok_or("--target-cpu needs a level (e.g. x86-64-v3)")?,
                );
            }
            "--asm-file" => {
                args.asm_files.push(PathBuf::from(
                    argv.next().ok_or("--asm-file needs a .s path")?,
                ));
            }
            "--help" | "-h" => {
                return Err(concat!(
                    "usage: ninja-lint [--root DIR] [--json PATH|-] ",
                    "[--deny-warnings] [--list-rules] [FILES...]\n",
                    "       ninja-lint --asm [--target-cpu LEVEL] ",
                    "[--asm-file PATH]... [--deny-warnings]"
                )
                .into());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.asm && (args.target_cpu.is_some() || !args.asm_files.is_empty()) {
        return Err("--target-cpu/--asm-file require --asm".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in ninja_lint::ALL_RULES {
            println!("{}  {:<28} {}", rule.id(), rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| ninja_lint::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("ninja-lint: no workspace root found; pass --root DIR");
            return ExitCode::from(2);
        }
    };

    let report = if args.asm {
        let opts = ninja_lint::AsmOptions {
            target_cpu: args.target_cpu.clone(),
            asm_files: args.asm_files.clone(),
        };
        match ninja_lint::asm_audit(&root, &opts) {
            Ok(audit) => {
                print!(
                    "{}",
                    ninja_lint::vecprofile::render_profiles(&audit.profiles)
                );
                audit.report.with_profiles(audit.profiles)
            }
            Err(e) => {
                eprintln!("ninja-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let result = if args.files.is_empty() {
            ninja_lint::analyze_workspace(&root)
        } else {
            ninja_lint::analyze_files(&args.files, &root)
        };
        match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ninja-lint: {e}");
                return ExitCode::from(2);
            }
        }
    };

    print!("{}", report.render_text());
    if let Some(dest) = &args.json {
        let json = report.to_json();
        if dest == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(dest, json) {
            eprintln!("ninja-lint: cannot write {dest}: {e}");
            return ExitCode::from(2);
        }
    }

    if args.deny_warnings && !report.clean {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
