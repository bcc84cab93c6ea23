//! The `serve-wire` workload: `aspen-serve` with two shard workers,
//! driven over TCP by two closed-loop clients through the public
//! `aspen_serve::Client`.
//!
//! The protocol is strict request/reply, so each client waits for every
//! reply before it sends the next line. Each client repeats one script on
//! a fresh session of its own — OPEN (24 nodes), ADMIT, 4×(STEP 1,
//! REPORT), RETIRE, REPORT, CLOSE — until the run's time is up. Sessions
//! are tiny, so socket I/O, line framing, the shard queue and the control
//! codec do most of the work.
//!
//! The served sessions come from a fixed pool of OPEN seeds; the run seed
//! picks where in the pool each client starts. Every final REPORT must be
//! byte-identical to an in-process `Session::apply` of the same script.

use crate::stats::{median, ns_to_ms, quantile};
use crate::trace::Tracer;
use crate::{RunArgs, RunResult};
use aspen_join::control::{Command, Response};
use aspen_serve::{open_session, Client, OpenSpec, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const NODES: usize = 24;
const DEGREE: f64 = 7.0;
/// OPEN seeds of the served sessions.
const POOL: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Server start-ups measured for `setup_s`.
const SETUP_REPS: usize = 9;
const MIN_COMMANDS: usize = 100;
const ADMIT: &str = "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
                     [windowsize=2 sampleinterval=100] \
                     WHERE s.id < 12 AND t.id >= 12 AND s.u = t.u";

/// The session lines of one script; OPEN and CLOSE wrap them.
fn script() -> Vec<&'static str> {
    let mut lines = vec![ADMIT];
    for _ in 0..4 {
        lines.extend(["STEP 1", "REPORT"]);
    }
    lines.extend(["RETIRE q0", "REPORT"]);
    lines
}

fn open_line(name: &str, seed: u64) -> String {
    format!("OPEN {name} nodes={NODES} degree={DEGREE} seed={seed}")
}

fn verb_span(line: &str) -> &'static str {
    match line.split(' ').next().unwrap_or("") {
        "OPEN" => "serve.OPEN",
        "ADMIT" => "serve.ADMIT",
        "STEP" => "serve.STEP",
        "REPORT" => "serve.REPORT",
        "RETIRE" => "serve.RETIRE",
        "CLOSE" => "serve.CLOSE",
        _ => "serve.other",
    }
}

/// One pool session replayed in-process: every reply of the script, and
/// the time `Session::apply` took on each line.
struct Replay {
    replies: Vec<String>,
    apply_ns: Vec<u64>,
}

fn replay(seed: u64, tr: &mut Tracer) -> Replay {
    let mut session = open_session(&OpenSpec {
        nodes: NODES,
        degree: DEGREE,
        seed,
    });
    let mut replies = Vec::new();
    let mut apply_ns = Vec::new();
    for line in script() {
        let cmd = tr
            .span("control.decode", |_| Command::decode(line))
            .expect("script lines decode");
        let t = Instant::now();
        let resp = tr.span("control.apply", |_| session.apply(cmd));
        apply_ns.push(t.elapsed().as_nanos() as u64);
        replies.push(tr.span("control.encode", |_| resp.encode()));
    }
    Replay { replies, apply_ns }
}

/// One wire request as the client saw it.
struct Sample {
    verb: &'static str,
    ms: f64,
    /// Pool index and script line, for lines `Session::apply` answers.
    line: Option<(usize, usize)>,
}

#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    failures: Vec<String>,
    parity_mismatches: usize,
    served: Vec<usize>,
}

/// Serve scripts from one connection until `deadline`.
fn client(
    addr: SocketAddr,
    id: usize,
    start: usize,
    deadline: Instant,
    expected: &[String],
    tr: &mut Tracer,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("client {id}: connect: {e}"));
            return out;
        }
    };
    let mut k = 0usize;
    while Instant::now() < deadline {
        let pool = (start + k) % POOL.len();
        let name = format!("c{id}s{k}");
        let mut lines: Vec<(String, Option<(usize, usize)>)> =
            vec![(open_line(&name, POOL[pool]), None)];
        lines.extend(
            script()
                .iter()
                .enumerate()
                .map(|(i, l)| (l.to_string(), Some((pool, i)))),
        );
        lines.push(("CLOSE".into(), None));
        let mut last_report = String::new();
        tr.set_id((id * 1_000_000 + k) as u64);
        let ok = tr.span("script", |tr| {
            for (line, at) in &lines {
                let verb = verb_span(line);
                let t = Instant::now();
                let reply = tr.span(verb, |_| c.request(line));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                out.samples.push(Sample {
                    verb,
                    ms,
                    line: *at,
                });
                match reply {
                    Ok(r) if r.starts_with("OK") => {
                        if verb == "serve.REPORT" {
                            last_report = r;
                        }
                    }
                    Ok(r) => {
                        out.failures
                            .push(format!("client {id}: '{line}' answered '{r}'"));
                        return false;
                    }
                    Err(e) => {
                        out.failures.push(format!("client {id}: '{line}': {e}"));
                        return false;
                    }
                }
            }
            true
        });
        if !ok {
            break;
        }
        if last_report != expected[pool] {
            out.parity_mismatches += 1;
            out.failures.push(format!(
                "client {id}, session {name}: final REPORT differs from the in-process run"
            ));
        }
        out.served.push(pool);
        k += 1;
    }
    if let Err(e) = c.request("QUIT") {
        out.failures.push(format!("client {id}: QUIT: {e}"));
    }
    out
}

/// Both clients for `secs` seconds; returns their outputs, spans and the
/// wall time.
fn phase(
    addr: SocketAddr,
    args: RunArgs,
    secs: f64,
    traced: bool,
    epoch: Instant,
    expected: &[String],
) -> (Vec<ClientOut>, Vec<Tracer>, f64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let results: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = (args.seed as usize + id * POOL.len() / CLIENTS) % POOL.len();
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let out = client(addr, id, start, deadline, expected, &mut tr);
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let (outs, trs) = results.into_iter().unzip();
    (outs, trs, wall)
}

/// Start a server and open one session per client; the time until both
/// OPENs are answered is one set-up sample.
fn start_server(res: &mut RunResult) -> (Server, f64) {
    let t0 = Instant::now();
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        // One session and one query per script, so a long-lived client
        // would exhaust the per-connection quotas.
        max_sessions_per_client: usize::MAX,
        max_queries_per_client: usize::MAX,
        ..ServeConfig::default()
    })
    .expect("bind a local port");
    let mut clients = Vec::new();
    for (i, &seed) in POOL.iter().enumerate().take(CLIENTS) {
        let opened = Client::connect(server.addr()).and_then(|mut c| {
            let r = c.request(&open_line(&format!("setup{i}"), seed))?;
            Ok((c, r))
        });
        match opened {
            Ok((c, r)) => {
                res.check(r.starts_with("OK OPENED"), || {
                    format!("set-up OPEN answered '{r}'")
                });
                clients.push(c);
            }
            Err(e) => res.check(false, || format!("set-up connect: {e}")),
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    for mut c in clients {
        for line in ["CLOSE", "QUIT"] {
            let r = c.request(line);
            res.check(r.as_ref().is_ok_and(|r| r.starts_with("OK")), || {
                format!("set-up {line} answered {r:?}")
            });
        }
    }
    (server, secs)
}

fn report_counts(line: &str) -> (u64, u64) {
    match Response::decode(line) {
        Ok(Response::Report(r)) => (r.total_traffic_bytes, r.results),
        _ => (0, 0),
    }
}

pub fn run(args: RunArgs) -> RunResult {
    let epoch = Instant::now();
    let mut res = RunResult::default();
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let (s, secs) = start_server(&mut res);
        setup.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    let mut quiet = Tracer::new(false, epoch);
    let replays: Vec<Replay> = POOL.iter().map(|&s| replay(s, &mut quiet)).collect();
    let expected: Vec<String> = replays
        .iter()
        .map(|r| r.replies.last().expect("script ends with REPORT").clone())
        .collect();
    for (i, r) in replays.iter().enumerate() {
        for (line, reply) in script().iter().zip(&r.replies) {
            res.check(reply.starts_with("OK"), || {
                format!("pool session {i}: '{line}' answered '{reply}' in-process")
            });
        }
    }

    let remaining = (args.seconds - epoch.elapsed().as_secs_f64()).max(1.0);
    // A traced run serves its first half untraced and its second half
    // traced, so the tracing overhead is measured in the same process.
    let mut phases = Vec::new();
    if args.trace {
        phases.push(phase(addr, args, remaining / 2.0, false, epoch, &expected));
        phases.push(phase(addr, args, remaining / 2.0, true, epoch, &expected));
    } else {
        phases.push(phase(addr, args, remaining, false, epoch, &expected));
    }
    server.shutdown();

    let mut served = vec![0usize; POOL.len()];
    let mut parity = 0usize;
    for (outs, _, _) in &phases {
        for o in outs {
            res.attempted += o.samples.len() as u64;
            res.failures.extend(o.failures.iter().cloned());
            parity += o.parity_mismatches;
            for &p in &o.served {
                served[p] += 1;
            }
        }
    }
    res.repetitions = served.iter().sum();
    let commands: usize = phases
        .iter()
        .flat_map(|(outs, _, _)| outs.iter().map(|o| o.samples.len()))
        .sum();
    res.check(commands >= MIN_COMMANDS, || {
        format!("{commands} commands served, need {MIN_COMMANDS}")
    });
    res.check(served.iter().all(|&n| n > 0), || {
        format!("pool sessions served {served:?}: every pool seed must be served")
    });

    let rate = |outs: &[ClientOut], wall: f64| {
        outs.iter().map(|o| o.samples.len()).sum::<usize>() as f64 / wall
    };
    if args.trace {
        let base = rate(&phases[0].0, phases[0].2);
        let (outs, trs, wall) = phases.pop().expect("traced phase");
        let mut tr = Tracer::new(true, epoch);
        for t in trs {
            tr.absorb(t);
        }
        let replays: Vec<Replay> = POOL.iter().map(|&s| replay(s, &mut tr)).collect();
        per_layer(&mut res, &tr, &outs, &replays, parity);
        res.set(
            "trace.overhead_pct",
            (base - rate(&outs, wall)) / base * 100.0,
        );
        tr.write_out("serve-wire", args.seed);
    } else {
        let (outs, _, wall) = &phases[0];
        let all: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.samples.iter().map(|s| s.ms))
            .collect();
        let of = |verb: &str| -> Vec<f64> {
            outs.iter()
                .flat_map(|o| o.samples.iter().filter(|s| s.verb == verb).map(|s| s.ms))
                .collect()
        };
        let admit = of("serve.ADMIT");
        let (bytes, results) = expected
            .iter()
            .map(|r| report_counts(r))
            .fold((0, 0), |(b, r), (b1, r1)| (b + b1, r + r1));
        res.check(results > 0, || "pool sessions deliver no results".into());
        res.set("setup_s", median(&setup));
        res.set("cycles_per_s", of("serve.STEP").len() as f64 / wall);
        res.set("admit_ms_p50", median(&admit));
        res.set("admit_ms_p90", quantile(&admit, 0.9));
        res.set("cmds_per_s", all.len() as f64 / wall);
        res.set("cmd_ms_p50", median(&all));
        res.set("cmd_ms_p90", quantile(&all, 0.9));
        res.set("bytes_per_result", bytes as f64 / results.max(1) as f64);
        res.samples.insert("setup_s", setup.len());
        res.samples.insert("admit_ms", admit.len());
        res.samples.insert("cmd_ms", all.len());
    }
    res
}

/// Per-layer metrics: client-side spans per verb from the traced phase,
/// control-codec spans from the in-process replay of the pool.
fn per_layer(
    res: &mut RunResult,
    tr: &Tracer,
    outs: &[ClientOut],
    replays: &[Replay],
    parity: usize,
) {
    let ms = |name: &str| median(&ns_to_ms(&tr.durations(name)));
    for (span, metric) in [
        ("serve.OPEN", "serve.OPEN.wire_ms_p50"),
        ("serve.ADMIT", "serve.ADMIT.wire_ms_p50"),
        ("serve.STEP", "serve.STEP.wire_ms_p50"),
        ("serve.REPORT", "serve.REPORT.wire_ms_p50"),
        ("serve.RETIRE", "serve.RETIRE.wire_ms_p50"),
        ("serve.CLOSE", "serve.CLOSE.wire_ms_p50"),
    ] {
        res.set(metric, ms(span));
        res.samples.insert(metric, tr.durations(span).len());
    }
    res.set("control.decode_us", ms("control.decode") * 1e3);
    res.set("control.apply_ms", ms("control.apply"));
    res.set("control.encode_us", ms("control.encode") * 1e3);
    // Wire round trip minus the in-process apply of the same line.
    let overhead: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.samples.iter())
        .filter_map(|s| {
            s.line
                .map(|(pool, i)| s.ms - replays[pool].apply_ns[i] as f64 / 1e6)
        })
        .collect();
    res.set("serve.overhead_ms", median(&overhead));
    res.samples.insert("serve.overhead_ms", overhead.len());
    res.set("serve.parity_mismatches", parity as f64);
    res.set("trace.unattributed_share", tr.self_share("script"));
}
