//! Exit-code contract of the `experiments` binary: bad input is a usage
//! error (exit 2 with the usage text on stderr), never a silent default,
//! a run of the wrong thing, or a library panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `experiments` with `args` in a scratch directory (the warmstart
/// and federate subcommands write `BENCH_*.json` into the working dir).
fn experiments(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn experiments")
}

const USAGE_ERRORS: &[&[&str]] = &[
    // The figure path.
    &[],
    &["fig99"],
    &["table1", "fig99"],
    &["table1", "--seeds", "abc"],
    &["table1", "--seeds"],
    &["table1", "--seeds", "0"],
    &["table1", "--cycles", "abc"],
    &["table1", "--seedz", "3"],
    // optimize has no intra-run parallelism and never took the flag.
    &["optimize", "--run-threads", "2"],
    // Grid values the run would panic on.
    &["sweep", "--trees", "0"],
    &["multiq", "--trees", "0"],
    &["sweep", "--sizes", "0"],
    &["sweep", "--sizes", "100,7"],
    &["sweep", "--sizes", "10", "--densities", "dense"],
    &["recovery", "--sizes", "1"],
    &["multiq", "--nodes", "0"],
    &["optimize", "--nodes", "0"],
    &["optimize", "--nodes", "5"],
    &["warmstart", "--episodes", "1"],
    &["federate", "--nodes-b", "39"],
];

const GRIDS: [&str; 6] = [
    "sweep",
    "recovery",
    "multiq",
    "optimize",
    "warmstart",
    "federate",
];

#[test]
fn bad_input_exits_2_with_the_usage() {
    let shared: Vec<Vec<&str>> = GRIDS
        .iter()
        .flat_map(|&g| {
            [
                vec![g, "--seeds", "0"],
                vec![g, "--seeds", "x"],
                vec![g, "--threads", "x"],
                vec![g, "--bogus", "1"],
                vec![g, "--out"],
            ]
        })
        .collect();
    let cases = USAGE_ERRORS.iter().map(|a| a.to_vec()).chain(shared);
    for args in cases {
        let out = experiments(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "experiments {args:?} should exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains("usage: experiments"),
            "experiments {args:?} should print the usage; stderr:\n{stderr}"
        );
        // Rejected before anything ran.
        assert!(out.stdout.is_empty(), "experiments {args:?} ran");
    }
}

#[test]
fn grid_help_lists_own_and_shared_flags() {
    for g in GRIDS {
        let out = experiments(&[g, "--help"]);
        assert_eq!(out.status.code(), Some(0));
        let help = String::from_utf8_lossy(&out.stdout);
        for flag in [
            "--quick",
            "--seeds",
            "--threads",
            "--out",
            "--check-determinism",
        ] {
            assert!(help.contains(flag), "{g} --help lacks {flag}:\n{help}");
        }
    }
}

/// The binary's stdout is the golden `.txt` fixture, byte for byte (the
/// golden suite checks the same text from the library side).
#[test]
fn optimize_quick_stdout_matches_golden() {
    let prefix = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-optimize/optimize");
    let out = experiments(&["optimize", "--quick", "--out", prefix.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/optimize_quick.txt"),
    )
    .expect("golden fixture");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
    assert!(prefix.with_extension("json").exists());
    assert!(prefix.with_extension("csv").exists());
}
