//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing is recorded unless the run was
//! started with `--trace 1`; spans are written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`serve.wait` →
//! `serve`). Its self time is its duration minus the part of that
//! interval its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

struct Span {
    name: &'static str,
    phase: &'static str,
    /// Ticket, inference or fan-out id the span belongs to.
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Single-threaded span recorder (only the benchmark's client thread
/// records).
pub struct Tracer {
    available: bool,
    enabled: Cell<bool>,
    epoch: Instant,
    phase: Cell<&'static str>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
}

impl Tracer {
    pub fn new(available: bool) -> Self {
        Tracer {
            available,
            enabled: Cell::new(available),
            epoch: Instant::now(),
            phase: Cell::new("run"),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.available && self.enabled.get()
    }

    /// Pauses or resumes recording (a no-op on an untraced run).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans recorded from now on.
    pub fn set_phase(&self, phase: &'static str) {
        self.phase.set(phase);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost open
    /// [`time`](Self::time) span.
    pub fn time<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let start = Instant::now();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as SpanId;
            spans.push(Span {
                name,
                phase: self.phase.get(),
                op,
                parent: self.stack.borrow().last().copied(),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.ns(Instant::now());
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Records a finished span with an explicit parent (spans of
    /// overlapping tickets cannot nest on one stack).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            phase: self.phase.get(),
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some((spans.len() - 1) as SpanId)
    }

    /// Durations in seconds of every span called `name` in `phase`.
    pub fn durations(&self, phase: &str, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.phase == phase && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time per layer over the spans of `phase`, as a share of the
    /// summed duration of that phase's root spans.
    pub fn self_shares(&self, phase: &str) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.phase == phase) {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut root_ns = 0u64;
        for (id, s) in spans.iter().enumerate() {
            if s.phase != phase {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                root_ns += dur;
            }
            let covered = children
                .get(&(id as SpanId))
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *self_ns.entry(layer).or_default() += dur - covered;
        }
        self_ns
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / root_ns.max(1) as f64))
            .collect()
    }

    /// Writes every span as one JSON object per line; returns the count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"phase\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.phase, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
