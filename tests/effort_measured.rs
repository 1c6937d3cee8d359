//! Programming effort is measured, not declared: every registry kernel's
//! `effort_loc` is exactly what `ninja_lint::measured_effort` counts in
//! the kernel's source file (distinct lines each rung adds or changes
//! against naive; the rule is stated in DESIGN.md). F6 renders these
//! numbers, so this test is what keeps F6 honest. When a rung's source
//! changes, the failure prints the measured values to paste into the
//! kernel's `spec()`.

use ninja_gap::kernels::{registry, Variant};
use std::collections::BTreeMap;
use std::path::Path;

/// Measured effort per kernel file in `crates/kernels/src/`, keyed by the
/// file stem without `_` (`black_scholes.rs` → `blackscholes`). Files
/// without attribution markers or with `skip-file` are not kernels.
fn measured_by_kernel() -> BTreeMap<String, [u32; 5]> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/kernels/src");
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("kernel sources are readable") {
        let path = entry.expect("directory entry").path();
        let src = std::fs::read_to_string(&path).expect("kernel source is readable");
        if let Some(effort) = ninja_lint::measured_effort(&src) {
            let stem = path.file_stem().expect("file stem").to_string_lossy();
            out.insert(stem.replace('_', ""), effort);
        }
    }
    out
}

#[test]
fn kernel_files_map_one_to_one_onto_the_registry() {
    let files: Vec<String> = measured_by_kernel().into_keys().collect();
    let mut kernels: Vec<String> = registry().iter().map(|s| s.name.to_owned()).collect();
    kernels.sort();
    assert_eq!(files, kernels);
}

#[test]
fn every_effort_loc_is_the_measured_line_count() {
    let measured = measured_by_kernel();
    let mut drift = Vec::new();
    for spec in registry() {
        let Some(effort) = measured.get(spec.name) else {
            drift.push(format!("{}: no kernel source file", spec.name));
            continue;
        };
        for info in &spec.variants {
            let rung = Variant::ALL.iter().position(|v| *v == info.variant);
            let measured = effort[rung.expect("a ladder rung")];
            if info.effort_loc != measured {
                drift.push(format!(
                    "{}/{}: declared effort_loc {}, measured {measured}",
                    spec.name, info.variant, info.effort_loc
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "effort_loc must equal ninja-lint's measurement; paste the measured values:\n{}",
        drift.join("\n")
    );
}
