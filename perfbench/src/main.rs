//! The repository benchmark.
//!
//! ```text
//! perfbench --workload dense-churn|sparse-large|serve-wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds, checks its outputs, and
//! prints two JSON lines on stdout: a run record (metadata, sample
//! counts, check results), then the result line — `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics from
//! spans the benchmark records around its own calls into each layer,
//! and writes the spans out when the run ends. See `README.md` here.

mod sim;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("admit_ms_p50", "ms"),
    ("admit_ms_p90", "ms"),
    ("cmds_per_s", "1/s"),
    ("cmd_ms_p50", "ms"),
    ("cmd_ms_p90", "ms"),
    ("bytes_per_result", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.topology_ms", "ms"),
    ("workload.data_ms", "ms"),
    ("query.parse_us", "us"),
    ("session.build_ms", "ms"),
    ("session.init_ms", "ms"),
    ("session.step_ms_p50", "ms"),
    ("session.step_ms_p99", "ms"),
    ("session.report_ms", "ms"),
    ("session.admit_ms", "ms"),
    ("session.retire_ms", "ms"),
    ("session.admit_graph_ms", "ms"),
    ("session.retire_graph_ms", "ms"),
    ("session.replan_ms", "ms"),
    ("session.replans", "count"),
    ("session.oracle_ratio", "ratio"),
    ("session.oracle_gap", "ratio"),
    ("optimize.plan_space_ms", "ms"),
    ("optimize.dp_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.xfer_bytes", "bytes"),
    ("sim.tx_msgs_per_cycle", "msgs"),
    ("sim.tx_bytes_per_cycle", "bytes"),
    ("sim.ns_per_tx", "ns"),
    ("sim.active_node_share", "ratio"),
    ("sim.send_failures", "count"),
    ("sim.queue_drops", "count"),
    ("routing.repair_attempts", "count"),
    ("routing.repair_successes", "count"),
    ("routing.tuples_rerouted", "count"),
    ("routing.tuples_lost", "count"),
    ("control.decode_us", "us"),
    ("control.apply_ms", "ms"),
    ("control.encode_us", "us"),
    ("serve.OPEN.wire_ms_p50", "ms"),
    ("serve.ADMIT.wire_ms_p50", "ms"),
    ("serve.STEP.wire_ms_p50", "ms"),
    ("serve.REPORT.wire_ms_p50", "ms"),
    ("serve.RETIRE.wire_ms_p50", "ms"),
    ("serve.CLOSE.wire_ms_p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.parity_mismatches", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Seed reserved for verifying a performance claim on inputs not used
/// while the change was written; keep it out of tuning runs.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: &[&str] = &["dense-churn", "serve-wire"];

/// Runnable, but not in `BENCHMARK.json`: on a shared host its timings
/// spread past any usable regression bound (see `README.md`).
pub const EXTRA_WORKLOADS: &[&str] = &["sparse-large"];

/// The run the command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile or median metric.
    pub samples: BTreeMap<&'static str, usize>,
    pub repetitions: usize,
    pub attempted: u64,
    /// One entry per failed operation or check.
    pub failures: Vec<String>,
    pub digest: Option<u64>,
    /// Counted but not failing observations worth keeping in the record.
    pub notes: BTreeMap<&'static str, f64>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one check; record a failure message when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        [WORKLOADS, EXTRA_WORKLOADS].concat().join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, RunArgs)> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(val.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some((
        workload?,
        RunArgs {
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
        },
    ))
}

/// Output of a metadata command, or "unknown" when it cannot run. Git
/// may not look for a repository above the working directory: outside a
/// git checkout the commit is unknown, not some enclosing repository's.
fn command_line(cmd: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(cmd);
    let cwd = std::env::current_dir().ok();
    if let Some(parent) = cwd.as_deref().and_then(std::path::Path::parent) {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (JSON has no NaN or infinity).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let Some((workload, args)) = parse_args() else {
        return usage();
    };
    let mut res = match workload.as_str() {
        "dense-churn" => sim::run(&sim::DENSE_CHURN, args),
        "sparse-large" => sim::run(&sim::SPARSE_LARGE, args),
        "serve-wire" => wire::run(args),
        _ => return usage(),
    };
    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    res.check(rss > 0.0, || "peak RSS unreadable".into());
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        for (name, _) in PER_LAYER {
            res.metrics.entry(name).or_insert(0.0);
        }
    } else {
        res.set("peak_rss_mb", rss);
    }
    for (name, _) in wanted {
        let v = res.metrics.get(name).copied();
        res.check(v.is_some_and(f64::is_finite), || {
            format!("metric {name} missing or not finite")
        });
    }

    let failed = res.failures.len() as u64;
    let join = |items: Vec<String>| items.join(",");
    let record = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{},\"mode\":{},\
         \"seconds\":{},\"repetitions\":{},\"git_commit\":{},\"nproc\":{},\"rustc\":{},\
         \"digest\":{},\"error_rate\":{},\"samples\":{{{}}},\"notes\":{{{}}},\"failures\":[{}]}}}}",
        json_str(&workload),
        args.seed,
        HELD_OUT_SEED,
        json_str(if args.trace { "traced" } else { "untraced" }),
        json_num(args.seconds),
        res.repetitions,
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_line("rustc", &["--version"])),
        res.digest
            .map_or("null".into(), |d| json_str(&format!("{d:016x}"))),
        json_num(failed as f64 / res.attempted.max(1) as f64),
        join(
            res.samples
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect()
        ),
        join(
            res.notes
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
                .collect()
        ),
        join(res.failures.iter().map(|f| json_str(f)).collect()),
    );
    println!("{record}");
    let metrics = join(
        wanted
            .iter()
            .map(|(name, unit)| {
                let v = res.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect(),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0,
        res.attempted.max(1),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
        for w in EXTRA_WORKLOADS {
            assert!(!json.contains(&format!("\"{w}\"")), "workload {w}");
        }
    }
}
