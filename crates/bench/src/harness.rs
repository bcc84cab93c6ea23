//! The one harness behind the six grid subcommands of `experiments`
//! (`sweep`, `recovery`, `multiq`, `optimize`, `warmstart`, `federate`).
//!
//! Each experiment is a config type implementing [`Experiment`]: its own
//! flags, validation, run and stdout. Everything the six share lives here
//! and nowhere else:
//!
//! - [`Metrics`]: ordered, seed-aggregated named [`SummaryStat`]s built
//!   from `(name, fn(&Sample) -> f64)` [`Column`]s, with the JSON object
//!   and the mean/stddev/ci95 CSV cells every report embeds;
//! - `fan_out`: every (cell, seed) run across OS threads, samples
//!   returned grouped per cell in grid order;
//! - [`main`]: the CLI driver for the shared flags (`--help`, `--quick`,
//!   `--seeds`, `--threads`, `--run-threads`, `--out`,
//!   `--check-determinism`) and the subcommand's exit code;
//! - [`check_determinism`]: the determinism contract — a report's JSON,
//!   CSV and stdout are byte-identical for any fan-out and intra-run
//!   thread count;
//! - one writer for `PREFIX.json`, `PREFIX.csv` and the optional
//!   `BENCH_*.json` record stamped with run metadata.
//!
//! Table layouts, headline lines, JSON key order and CSV row shapes stay
//! with each experiment: they differ for real.

use crate::sweep::seed_range;
use sensor_sim::sweep::{parallel_map, stat_json, Json, SummaryStat};
use std::process::ExitCode;
use std::str::FromStr;

/// One named metric column: how to read the metric off one run's sample.
pub type Column<S> = (&'static str, fn(&S) -> f64);

/// Seed-aggregated metrics of one cell, in column order.
#[derive(Debug, Clone)]
pub struct Metrics(Vec<(&'static str, SummaryStat)>);

impl Metrics {
    /// Aggregate every column over the samples.
    pub fn over<S>(columns: &[Column<S>], samples: &[S]) -> Metrics {
        Metrics(
            columns
                .iter()
                .map(|&(name, f)| {
                    let xs: Vec<f64> = samples.iter().map(f).collect();
                    (name, SummaryStat::from_samples(&xs))
                })
                .collect(),
        )
    }

    /// These metrics followed by `more`'s.
    pub fn and(mut self, more: Metrics) -> Metrics {
        self.0.extend(more.0);
        self
    }

    /// The named metric. Names come from the experiment's own column
    /// constants, so an unknown name is a programming error.
    pub fn get(&self, name: &str) -> &SummaryStat {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
    }

    /// `{name: {n, mean, stddev, ci95, min, max}, ...}` in column order.
    pub fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, s)| (name.to_string(), stat_json(s)))
                .collect(),
        )
    }

    /// CSV header cells matching [`Metrics::csv_cells`] for `columns`.
    pub fn csv_header<S>(columns: &[Column<S>]) -> Vec<String> {
        columns
            .iter()
            .flat_map(|&(name, _)| ["mean", "stddev", "ci95"].map(|s| format!("{name}_{s}")))
            .collect()
    }

    /// Mean, stddev and ci95 of every metric, in column order.
    pub fn csv_cells(&self) -> Vec<String> {
        self.0.iter().flat_map(|(_, s)| csv_stat(s)).collect()
    }
}

/// The mean, stddev and ci95 CSV cells of one statistic.
pub(crate) fn csv_stat(s: &SummaryStat) -> [String; 3] {
    [s.mean, s.stddev, s.ci95].map(|x| format!("{x}"))
}

/// The `"seeds"` array every report carries.
pub(crate) fn seeds_json(seeds: &[u64]) -> Json {
    Json::Arr(seeds.iter().map(|&s| Json::num(s as f64)).collect())
}

/// Run `run_one(cell, seed)` for every (cell, seed) pair across
/// `threads` OS threads (0 = all cores). Samples come back grouped per
/// cell in grid order, seeds in order within a cell, whatever the thread
/// count.
pub(crate) fn fan_out<C: Sync, S: Send>(
    cells: &[C],
    seeds: &[u64],
    threads: usize,
    run_one: impl Fn(&C, u64) -> S + Sync,
) -> Vec<Vec<S>> {
    let jobs: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|ci| seeds.iter().map(move |&s| (ci, s)))
        .collect();
    let mut samples = parallel_map(&jobs, threads, |&(ci, s)| run_one(&cells[ci], s)).into_iter();
    cells
        .iter()
        .map(|_| samples.by_ref().take(seeds.len()).collect())
        .collect()
}

/// The knobs every experiment shares, borrowed from its config.
pub struct Knobs<'a> {
    /// Replicate seeds; each cell runs once per seed.
    pub seeds: &'a mut Vec<u64>,
    /// OS threads fanning runs out (0 = all cores).
    pub threads: &'a mut usize,
    /// Transmit-phase workers inside each run (0 = all cores); `None`
    /// when the experiment runs no simulation.
    pub run_threads: Option<&'a mut usize>,
}

/// A seed-aggregated report with its two file formats.
pub trait Report {
    fn json(&self) -> Json;
    fn to_csv(&self) -> String;
    fn to_json(&self) -> String {
        self.json().render()
    }
}

/// One grid subcommand of `experiments`.
///
/// Determinism contract: [`Experiment::run`] is a pure function of the
/// config minus its thread knobs, so the report renders byte-identically
/// for any `threads` and `run_threads` ([`check_determinism`]).
pub trait Experiment: Clone + Default + Sync {
    /// The subcommand name; also names the default output prefix and the
    /// golden fixtures.
    const NAME: &'static str;
    /// One-line description for the `experiments` usage.
    const ABOUT: &'static str;
    /// What `--quick` selects, for the usage text.
    const QUICK: &'static str;
    /// Usage lines of the experiment's own flags.
    const USAGE: &'static str;
    /// Working-dir file that also records the JSON, stamped with run
    /// metadata.
    const BENCH: Option<&'static str> = None;
    type Report: Report;

    /// The CI smoke configuration.
    fn quick() -> Self;
    /// Apply one experiment-specific `--name value` flag.
    fn flag(&mut self, name: &str, value: &str) -> Result<(), String>;
    /// Reject configurations the run would panic on.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
    fn knobs(&mut self) -> Knobs<'_>;
    /// Cells in the grid; each runs once per seed.
    fn cell_count(&self) -> usize;
    fn run(&self) -> Self::Report;
    /// What the subcommand prints: its table, then its headline line if
    /// it has one.
    fn stdout(report: &Self::Report) -> String;

    /// The `--out` prefix when none is given.
    fn default_out(_quick: bool) -> String {
        format!("target/{0}/{0}", Self::NAME)
    }
}

/// The value following `flag`.
pub fn value<'a>(flag: &str, v: Option<&'a String>) -> Result<&'a str, String> {
    v.map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// A numeric flag value.
pub fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// A `--seeds` count: a number, at least 1.
pub fn seed_count(flag: &str, v: &str) -> Result<u64, String> {
    match number(flag, v)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// A comma-separated list value; an empty list is an error (an empty
/// grid dimension would silently yield a 0-cell run).
pub(crate) fn list<T>(
    flag: &str,
    v: &str,
    item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items = v
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| item(s).ok_or_else(|| format!("bad {flag} value {s:?}")))
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        return Err(format!("{flag} needs a comma-separated value list"));
    }
    Ok(items)
}

/// The error for a flag the subcommand does not take.
pub fn unknown_option(name: &str) -> String {
    format!("unknown option {name}")
}

/// The subcommand's usage: its own flags, then the shared ones.
fn usage<E: Experiment>() -> String {
    let pad = " ".repeat(23);
    let mut d = E::default();
    let k = d.knobs();
    let run_threads = k.run_threads.map_or(String::new(), |r| {
        format!(
            "  --run-threads N      transmit-phase workers inside each run, 0 = all cores\n\
             {pad}(default {r}; outcomes are identical for any value)\n"
        )
    });
    let bench = E::BENCH.map_or(String::new(), |b| {
        format!(";\n{pad}the JSON is also recorded as {b} in the working dir")
    });
    format!(
        "usage: experiments {} [options]\n  --quick              {}\n{}\n\
         \x20 --seeds N            replicate seeds per cell (default {})\n\
         \x20 --threads N          OS threads fanning runs out, 0 = all cores (default {})\n\
         {run_threads}\
         \x20 --out PREFIX         output prefix for PREFIX.json / PREFIX.csv\n\
         {pad}(default {}{bench})\n\
         \x20 --check-determinism  re-run at (threads, run-threads) = (1,1), (2,2), (8,8),\n\
         {pad}verifying byte-identical JSON, CSV and stdout\n\
         \x20 --help               print this text",
        E::NAME,
        E::QUICK,
        E::USAGE,
        k.seeds.len(),
        k.threads,
        E::default_out(false)
    )
}

/// A parsed subcommand invocation.
struct Invocation<E> {
    exp: E,
    quick: bool,
    out: String,
    check_determinism: bool,
}

/// Parse a subcommand's arguments; `Ok(None)` asks for the usage text.
/// `--quick` selects the base config first, wherever it appears, so
/// every other flag overrides it in any order.
fn parse<E: Experiment>(args: &[String]) -> Result<Option<Invocation<E>>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut inv = Invocation {
        exp: if quick { E::quick() } else { E::default() },
        quick,
        out: E::default_out(quick),
        check_determinism: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--check-determinism" => inv.check_determinism = true,
            "--seeds" => {
                *inv.exp.knobs().seeds = seed_range(seed_count(a, value(a, it.next())?)?);
            }
            "--threads" => *inv.exp.knobs().threads = number(a, value(a, it.next())?)?,
            "--run-threads" => match inv.exp.knobs().run_threads {
                Some(r) => *r = number(a, value(a, it.next())?)?,
                None => return Err(unknown_option(a)),
            },
            "--out" => inv.out = value(a, it.next())?.to_string(),
            name => inv.exp.flag(name, value(name, it.next())?)?,
        }
    }
    inv.exp.validate()?;
    Ok(Some(inv))
}

/// (fan-out threads, intra-run threads) pairs the determinism check
/// re-runs at: every value 1, 2 and 8 on both axes.
const DETERMINISM_PAIRS: [(usize, usize); 3] = [(1, 1), (2, 2), (8, 8)];

/// Re-run `exp` at (fan-out threads, intra-run threads) = (1,1), (2,2)
/// and (8,8) and compare the JSON, CSV and stdout with `report`'s.
pub fn check_determinism<E: Experiment>(exp: &E, report: &E::Report) -> Result<(), String> {
    let render = |r: &E::Report| [r.to_json(), r.to_csv(), E::stdout(r)];
    let want = render(report);
    for (threads, run_threads) in DETERMINISM_PAIRS {
        let mut e = exp.clone();
        let k = e.knobs();
        *k.threads = threads;
        if let Some(r) = k.run_threads {
            *r = run_threads;
        }
        let got = render(&e.run());
        for (what, (w, g)) in ["JSON", "CSV", "stdout"].iter().zip(want.iter().zip(&got)) {
            if w != g {
                return Err(format!(
                    "{} {what} differs at threads={threads} run_threads={run_threads}",
                    E::NAME
                ));
            }
        }
    }
    Ok(())
}

/// Output of a metadata command, or "unknown" when it cannot run. Git may
/// not look for a repository above the working directory: outside a git
/// checkout the commit is unknown, not some enclosing repository's.
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

/// The `"run"` object a `BENCH_*.json` record carries: where and how the
/// numbers were produced.
fn run_metadata(quick: bool, seeds: usize) -> Json {
    Json::Obj(vec![
        (
            "git_commit".into(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc".into(),
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        (
            "mode".into(),
            Json::str(if quick { "quick" } else { "full" }),
        ),
        ("seeds".into(), Json::num(seeds as f64)),
    ])
}

/// Write `PREFIX.json`, `PREFIX.csv` and, for experiments that keep one,
/// the `BENCH_*.json` record (the JSON plus a `"run"` metadata object).
/// Returns the paths written.
fn write_outputs<E: Experiment>(
    inv: &Invocation<E>,
    report: &E::Report,
    seeds: usize,
) -> std::io::Result<Vec<String>> {
    if let Some(dir) = std::path::Path::new(&inv.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json = report.json();
    let mut files = vec![
        (format!("{}.json", inv.out), json.render()),
        (format!("{}.csv", inv.out), report.to_csv()),
    ];
    if let (Some(bench), Json::Obj(mut fields)) = (E::BENCH, json) {
        fields.push(("run".into(), run_metadata(inv.quick, seeds)));
        files.push((bench.to_string(), Json::Obj(fields).render()));
    }
    for (path, body) in &files {
        std::fs::write(path, body)?;
    }
    Ok(files.into_iter().map(|(path, _)| path).collect())
}

/// Run one grid subcommand: parse `args` (everything after its name),
/// run, print, optionally check determinism, and write the outputs.
/// Usage errors exit 2 with the usage text.
pub fn main<E: Experiment>(args: &[String]) -> ExitCode {
    let mut inv = match parse::<E>(args) {
        Ok(Some(inv)) => inv,
        Ok(None) => {
            println!("{}", usage::<E>());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{}: {msg}\n{}", E::NAME, usage::<E>());
            return ExitCode::from(2);
        }
    };
    let (cells, seeds) = (inv.exp.cell_count(), inv.exp.knobs().seeds.len());
    eprintln!(
        "{}: {cells} cells x {seeds} seeds = {} runs",
        E::NAME,
        cells * seeds
    );
    let t0 = std::time::Instant::now();
    let report = inv.exp.run();
    let elapsed = t0.elapsed().as_secs_f64();
    print!("{}", E::stdout(&report));
    if inv.check_determinism {
        if let Err(msg) = check_determinism(&inv.exp, &report) {
            eprintln!("determinism check failed: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("determinism check: (threads, run-threads) 1|2|8 all identical ✓");
    }
    match write_outputs(&inv, &report, seeds) {
        Ok(files) => {
            eprintln!("{}: done in {elapsed:.1}s -> {}", E::NAME, files.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: cannot write outputs under {}: {e}", E::NAME, inv.out);
            ExitCode::FAILURE
        }
    }
}
