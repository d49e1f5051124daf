//! The traced run's span recorder: spans kept in memory, written out when
//! the run ends.
//!
//! Spans are recorded from the benchmark's own files around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! A root span is one replayed request (`request`), a window-level replica
//! step (`replica.window`), one opaque call into a public entry point
//! (`opaque.<crate>.<call>`), or a side measurement outside both
//! (`aside.<crate>.<call>`). Every other span is a layer span: a child of a
//! replica root, named after the crate whose public function it times
//! (`gpu-sim.`, `scan-core.`, ...).
//!
//! Back-to-back calls share one clock read: a span's end instant is the
//! next span's start, so the recorder adds one `Instant::now()` per span
//! and the replica's own bookkeeping stays outside the root spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a root span.
const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: u32,
    request: usize,
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the open replica root, if any.
    open: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: None }
    }

    /// Open a replica root span for `request`, starting now. Returns the
    /// start instant, which the first layer span reuses.
    pub fn begin(&mut self, name: &'static str, request: usize) -> Instant {
        assert!(self.open.is_none(), "replica roots do not nest");
        self.open = Some(self.spans.len() as u32);
        let now = Instant::now();
        self.spans.push(Span { name, start: now, end: now, parent: NO_PARENT, request });
        now
    }

    /// Close the open replica root at `end` (the last layer span's end).
    pub fn end(&mut self, end: Instant) {
        let root = self.open.take().expect("a replica root is open");
        self.spans[root as usize].end = end;
    }

    /// Time `f` as a layer span of the open root, starting at `start`
    /// (the previous span's end when the calls are back to back). Returns
    /// `f`'s result and the span's end instant.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        start: Instant,
        f: impl FnOnce() -> R,
    ) -> (R, Instant) {
        let out = f();
        let end = Instant::now();
        let root = self.open.expect("layer spans run inside a replica root");
        let request = self.spans[root as usize].request;
        self.spans.push(Span { name, start, end, parent: root, request });
        (out, end)
    }

    /// Time `f` as an opaque root span (one call into a public entry
    /// point). Returns `f`'s result and its duration in seconds.
    pub fn opaque<R>(
        &mut self,
        name: &'static str,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        assert!(self.open.is_none(), "opaque calls run outside replica roots");
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span { name, start, end, parent: NO_PARENT, request });
        (out, (end - start).as_secs_f64())
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap their siblings in this recorder).
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> =
            self.spans.iter().map(|s| (s.end - s.start).as_secs_f64()).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// Aggregate the spans into the per-name and per-layer summary.
    pub fn summary(&self) -> Summary {
        let own = self.self_times();
        let mut names: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        let mut replica_wall = 0.0;
        let mut opaque = 0.0;
        for (s, &self_s) in self.spans.iter().zip(&own) {
            let dur = (s.end - s.start).as_secs_f64();
            let root = s.parent == NO_PARENT;
            if root {
                match root_class(s.name) {
                    RootClass::Opaque => opaque += dur,
                    RootClass::Replica => replica_wall += dur,
                    RootClass::Aside => {}
                }
            }
            let e = names.entry(s.name).or_default();
            e.layer = !root;
            e.calls += 1;
            e.self_s += self_s;
            e.durations.push(dur);
        }
        Summary { names, replica_wall, opaque }
    }

    /// Chrome-trace events (`ph: "X"`, microseconds since the recorder's
    /// origin) for every span, one JSON object per line without the
    /// enclosing array. Replica spans go on track 1, opaque calls on
    /// track 2 of process `pid`.
    pub fn chrome_events(&self, pid: u32) -> Vec<String> {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let mut out = Vec::with_capacity(self.spans.len() + 3);
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"host wall-clock (benchmark spans)\"}}}}"
        ));
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"replica\"}}}}"
        ));
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":2,\"name\":\"thread_name\",\"args\":{{\"name\":\"opaque entry points\"}}}}"
        ));
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":3,\"name\":\"thread_name\",\"args\":{{\"name\":\"side measurements\"}}}}"
        ));
        for s in &self.spans {
            let tid = match root_class(s.name) {
                _ if s.parent != NO_PARENT => 1,
                RootClass::Replica => 1,
                RootClass::Opaque => 2,
                RootClass::Aside => 3,
            };
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"request\":{},\"parent\":{parent}}}}}",
                s.name,
                layer_of(s.name),
                us(s.start),
                (s.end - s.start).as_secs_f64() * 1e6,
                s.request,
            ));
        }
        out
    }
}

enum RootClass {
    Replica,
    Opaque,
    Aside,
}

fn root_class(name: &str) -> RootClass {
    match name.split_once('.') {
        Some(("opaque", _)) => RootClass::Opaque,
        Some(("aside", _)) => RootClass::Aside,
        _ => RootClass::Replica,
    }
}

/// The crate a span name belongs to (its prefix), or the root class.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or("replica", |(prefix, _)| prefix)
}

#[derive(Default)]
pub struct NameStats {
    /// Whether these are layer spans (children of a replica root).
    pub layer: bool,
    pub calls: usize,
    pub self_s: f64,
    pub durations: Vec<f64>,
}

/// What the traced run's spans add up to.
pub struct Summary {
    pub names: BTreeMap<&'static str, NameStats>,
    /// Wall time of the replica roots.
    pub replica_wall: f64,
    /// Wall time of the opaque entry-point calls (not the side ones).
    pub opaque: f64,
}

impl Summary {
    /// Self time of the spans called `name` (0 when none ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |n| n.self_s)
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.names.get(name).map_or(0, |n| n.calls)
    }

    /// Median duration of one `name` span, seconds (0 when none ran).
    pub fn median_call(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |n| crate::stats::median(&n.durations))
    }

    /// Self time of every layer span of `layer` (a crate name).
    pub fn layer_self(&self, layer: &str) -> f64 {
        self.names
            .iter()
            .filter(|(name, n)| n.layer && layer_of(name) == layer)
            .map(|(_, n)| n.self_s)
            .sum()
    }

    /// Self time of every layer span.
    pub fn layers_total(&self) -> f64 {
        self.names.values().filter(|n| n.layer).map(|n| n.self_s).sum()
    }

    /// Layer-span self time ÷ replica wall time.
    pub fn accounted_frac(&self) -> f64 {
        self.layers_total() / self.replica_wall
    }

    /// Replica layer time ÷ opaque call time.
    pub fn replica_ratio(&self) -> f64 {
        self.layers_total() / self.opaque
    }

    /// The per-span-name table: calls, self time, share of the replica
    /// wall time, median per-call time. Tab-separated with a header line.
    pub fn table(&self) -> String {
        let mut out = String::from("span\tlayer\tcalls\tself_s\tshare\tmedian_call_us\n");
        for (name, n) in &self.names {
            let share = if n.layer { n.self_s / self.replica_wall } else { f64::NAN };
            out.push_str(&format!(
                "{name}\t{}\t{}\t{:.6}\t{:.4}\t{:.3}\n",
                layer_of(name),
                n.calls,
                n.self_s,
                share,
                crate::stats::median(&n.durations) * 1e6
            ));
        }
        out
    }
}
