//! In-memory spans recorded around layer calls, and the self-time
//! arithmetic that turns a span tree into per-layer times.
//!
//! A span's name is `layer` or `layer:detail`; its layer is the part
//! before the colon. The root span of a traced iteration is named
//! [`ROOT`]: its self time is the part of the iteration no layer span
//! covers, reported as `trace.unattributed_s`. Because every span's self
//! time is its duration minus the union of its children's intervals,
//! the self times of a tree add up to the root's duration exactly (in
//! integer nanoseconds).

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span covering one traced iteration.
pub const ROOT: &str = "run";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span within its trace.
    pub id: usize,
    /// The span that opened it (`None` for a root).
    pub parent: Option<usize>,
    /// `layer` or `layer:detail`.
    pub name: String,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
    /// True for a span laid out from recorder phase totals rather than
    /// read from the clock (see [`Tracer::derived`]).
    pub derived: bool,
}

impl Span {
    /// The layer this span's time belongs to.
    pub fn layer(&self) -> &str {
        self.name.split(':').next().unwrap_or(&self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one workload run, all sharing one trace id. A
/// disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    trace_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            trace_id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for the run identified by `trace_id`.
    pub fn new(trace_id: u64) -> Tracer {
        Tracer {
            enabled: true,
            trace_id,
            ..Tracer::disabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn close(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Adds children to the closed span `parent` for time a recorder
    /// attributed to layers inside it: one span per `(name, ns)`, laid
    /// end to end from the parent's start. Their placement inside the
    /// parent is nominal; their durations are the recorder's. A total
    /// beyond the parent's duration is clipped at its end.
    pub fn derived(&mut self, parent: SpanId, children: &[(&str, u64)]) {
        let Some(parent) = parent.0 else { return };
        let (mut at, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, ns) in children {
            let start_ns = at;
            at = at.saturating_add(ns).min(end);
            self.spans.push(Span {
                id: self.spans.len(),
                parent: Some(parent),
                name: name.to_string(),
                start_ns,
                end_ns: at,
                derived: true,
            });
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"trace_id\": \"{:016x}\", \"span_id\": {}, \"parent\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"derived\": {}}}\n",
                self.trace_id,
                s.id,
                parent,
                green_bench::json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.derived
            ));
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers. Indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer over the tree under the root span `root`
/// (the root's own self time appears under its name, [`ROOT`]).
pub fn layer_self_ns(spans: &[Span], root: usize) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    // Spans are stored in opening order and derived children after their
    // parent, so one forward pass sees every parent before its children.
    for s in spans {
        in_tree[s.id] = s.id == root || s.parent.is_some_and(|p| in_tree[p]);
        if in_tree[s.id] {
            *layers.entry(s.layer().to_string()).or_default() += own[s.id];
        }
    }
    layers
}
