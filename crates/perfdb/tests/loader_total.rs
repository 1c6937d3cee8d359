//! The store loader is total: whatever bytes a log holds, loading it
//! never panics or aborts, every non-blank line is either a loaded record
//! or a counted skip, and no intact record is lost to a corrupt neighbour.
//!
//! One property, run through the generic loader for each of the three
//! record kinds, over logs assembled from intact records, truncated
//! records (a crashed writer), records of another kind (a misplaced
//! file), nesting far past any stack, arbitrary bytes (not even UTF-8,
//! with embedded newlines) and blank lines.

use ninja_perfdb::{
    record_from_path, MachineFingerprint, Record, RunRecord, ServeRecord, Store, SweepRecord,
    SCHEMA_VERSION,
};
use proptest::prelude::*;

fn run(id: &str) -> RunRecord {
    RunRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: 0,
        git_commit: "unknown".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        size: "test".to_owned(),
        seed: 1,
        threads: 1,
        isa: "avx2".to_owned(),
        excluded: Vec::new(),
        cells: Vec::new(),
        vec_profiles: Vec::new(),
    }
}

fn sweep(id: &str) -> SweepRecord {
    SweepRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: 0,
        git_commit: "unknown".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        seed: 1,
        reps: 1,
        sizes: vec!["test".to_owned()],
        threads: vec![1, 2],
        knee_threshold: 0.5,
        excluded: Vec::new(),
        cells: Vec::new(),
        fits: Vec::new(),
    }
}

fn serve(id: &str) -> ServeRecord {
    ServeRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: 0,
        git_commit: "unknown".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        kernel: "blackscholes".to_owned(),
        threads: 4,
        chaos_seed: None,
        chaos_rate: None,
        deadline_us: 50_000,
        points: Vec::new(),
    }
}

/// Builds a log of kind `R` from `recipes` (one or more lines each),
/// loads it, and checks the accounting. `intact` is a valid line of kind
/// `R`, `foreign` a valid line of another kind.
fn check_log<R: Record>(intact: &str, foreign: &str, recipes: &[u64], noise: &[u8]) {
    let mut log = Vec::new();
    let mut intact_lines = 0;
    for &recipe in recipes {
        let arg = (recipe / 6) as usize;
        match recipe % 6 {
            0 => {
                log.extend_from_slice(intact.as_bytes());
                intact_lines += 1;
            }
            1 => log.extend_from_slice(&intact.as_bytes()[..arg % intact.len()]),
            2 => log.extend_from_slice(foreign.as_bytes()),
            3 => log.extend(std::iter::repeat_n(b'[', [129, 1_000, 200_000][arg % 3])),
            4 if !noise.is_empty() => {
                let from = arg % noise.len();
                let len = (arg / noise.len()) % (noise.len() - from + 1);
                log.extend_from_slice(&noise[from..from + len]);
            }
            _ => log.extend_from_slice(b" \t\r"),
        }
        log.push(b'\n');
    }
    let non_blank = log
        .split(|&b| b == b'\n')
        .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
        .count();

    let dir = std::env::temp_dir().join(format!(
        "perfdb-loader-total-{}-{}",
        R::FILE,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let store = Store::open(&dir);
    std::fs::write(store.path::<R>(), &log).unwrap();
    let loaded = store.load_lossy::<R>();
    // The path-based resolver shares the loader; it may refuse the file
    // but must not panic on it either.
    let _ = record_from_path(&store.path::<R>());
    let _ = std::fs::remove_dir_all(&dir);

    let (records, skipped) = loaded.expect("a readable log never fails a lossy load");
    prop_assert_eq!(records.len(), intact_lines, "intact records survive");
    prop_assert_eq!(records.len() + skipped, non_blank, "every line accounted");
}

proptest! {
    #[test]
    fn lossy_load_accounts_for_every_line_of_any_log(
        recipes in prop::collection::vec(any::<u64>(), 0..12),
        noise in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let (run, sweep, serve) = (
            run("run-0").to_jsonl_line(),
            sweep("sweep-0").to_jsonl_line(),
            serve("serve-0").to_jsonl_line(),
        );
        check_log::<RunRecord>(&run, &sweep, &recipes, &noise);
        check_log::<SweepRecord>(&sweep, &serve, &recipes, &noise);
        check_log::<ServeRecord>(&serve, &run, &recipes, &noise);
    }
}
