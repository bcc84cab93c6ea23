//! Golden-output snapshot tests: for each of the six grid experiments
//! (`experiments sweep|recovery|multiq|optimize|warmstart|federate
//! --quick`) the JSON report, the CSV report and the stdout (table plus
//! headline line) are compared byte-for-byte against committed fixtures,
//! so a report-format change or a determinism regression (seeding, float
//! formatting, aggregation order, engine behavior) fails loudly instead
//! of silently shifting every downstream number.
//!
//! When a change is *intentional*, re-bless the fixtures:
//!
//! ```text
//! BLESS=1 cargo test -q -p aspen_bench --test golden_outputs
//! ```
//!
//! and commit the updated files under `crates/bench/tests/golden/`,
//! explaining in the commit message why the numbers moved (see
//! EXPERIMENTS.md § Golden outputs).

use aspen_bench::federate::FederateConfig;
use aspen_bench::harness::{Experiment, Report};
use aspen_bench::multiq::MultiqConfig;
use aspen_bench::optimize::OptimizeConfig;
use aspen_bench::sweep::{Recovery, SweepGrid};
use aspen_bench::warmstart::WarmstartConfig;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare against the committed fixture, or rewrite it under `BLESS=1`.
/// On mismatch, point at the first differing line instead of dumping two
/// multi-kilobyte strings.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    // Bless only on a truthy value: `BLESS=0` / `BLESS=` must still
    // *compare* (silently rewriting fixtures would mask the very drift
    // this suite exists to catch).
    let bless = std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("bless golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — create it with BLESS=1 cargo test -p aspen_bench --test golden_outputs",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let mismatch = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e);
    match mismatch {
        Some((i, (a, e))) => panic!(
            "{name} drifted at line {}:\n  expected: {e}\n  actual:   {a}\n\
             (re-bless with BLESS=1 if the change is intentional)",
            i + 1
        ),
        None => panic!(
            "{name} drifted in length: expected {} lines, got {} \
             (re-bless with BLESS=1 if the change is intentional)",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

/// Check one quick experiment's three outputs against
/// `NAME_quick.json`, `NAME_quick.csv` and `NAME_quick.txt` (stdout).
fn check_quick<E: Experiment>() {
    let r = E::quick().run();
    check_golden(&format!("{}_quick.json", E::NAME), &r.to_json());
    check_golden(&format!("{}_quick.csv", E::NAME), &r.to_csv());
    check_golden(&format!("{}_quick.txt", E::NAME), &E::stdout(&r));
}

#[test]
fn sweep_quick_outputs_match_golden() {
    check_quick::<SweepGrid>();
}

#[test]
fn recovery_quick_outputs_match_golden() {
    check_quick::<Recovery>();
}

#[test]
fn multiq_quick_outputs_match_golden() {
    check_quick::<MultiqConfig>();
}

#[test]
fn optimize_quick_outputs_match_golden() {
    check_quick::<OptimizeConfig>();
}

#[test]
fn warmstart_quick_outputs_match_golden() {
    check_quick::<WarmstartConfig>();
}

#[test]
fn federate_quick_outputs_match_golden() {
    check_quick::<FederateConfig>();
}
