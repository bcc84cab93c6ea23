//! In-memory spans recorded around the benchmark's calls into each
//! layer's public API. Nothing inside the program is instrumented: a
//! span covers exactly one call the benchmark makes (or a group of
//! them, for the repetition and setup spans that parent them).

use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Repetition (simulation workloads) or request (serve-wire) id.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. When off, [`Tracer::span`] only runs
/// the closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Run `f` inside a span named `name`; spans `f` opens on the tracer
    /// it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id: self.id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Move another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover (children of one span never overlap: a tracer
    /// belongs to one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of the time inside spans named `name` that no child span
    /// covers: work done outside the traced layer calls.
    pub fn self_share(&self, name: &str) -> f64 {
        let selfs = self.self_ns();
        let (mut own, mut total) = (0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                own += own_ns;
                total += s.dur_ns();
            }
        }
        own as f64 / total.max(1) as f64
    }

    /// Write the spans as JSON lines under the build directory
    /// (`$CARGO_TARGET_DIR`, else `perfbench/target`) and name the file
    /// on stderr.
    pub fn write_out(&self, workload: &str, seed: u64) {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("perfbench-trace");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, self.to_jsonl())) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    /// All spans as JSON lines: name, start, end, parent, id, self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"self_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id, selfs[i]
            ));
        }
        out
    }
}
