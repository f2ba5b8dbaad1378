//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is wrapped
//! in a span named `<layer>.<what>`; each op is a root span named `op`.
//! Spans stay in a per-rank `Vec` while the run measures and are written
//! out as JSON lines when the benchmark ends. With tracing off, `span` only
//! calls its closure.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are wall ns since the run's shared epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, or `op` for an op's root span.
    pub name: &'static str,
    /// Start, wall ns since the epoch.
    pub start: u64,
    /// End, wall ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Rank that recorded the span.
    pub rank: usize,
    /// For vector reads: the handle's pcache miss count advanced.
    pub miss: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A rank's recorder. Not shared between threads; ranks merge their lists
/// after the run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rank: usize,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder for `rank`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant, rank: usize) -> Self {
        Self { on, epoch, rank, inner: RefCell::new(Inner::default()) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str) -> usize {
        let start = self.now();
        let mut st = self.inner.borrow_mut();
        let parent = st.stack.last().copied();
        let op = st.op;
        st.spans.push(Span { name, start, end: start, parent, op, rank: self.rank, miss: false });
        let id = st.spans.len() - 1;
        st.stack.push(id);
        id
    }

    fn close(&self, id: usize, miss: bool) {
        let end = self.now();
        let mut st = self.inner.borrow_mut();
        let top = st.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        let s = &mut st.spans[id];
        s.end = end;
        s.miss = miss;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.open(name);
        let r = f();
        self.close(id, false);
        r
    }

    /// Run `f`, a vector read, inside a span; `misses` reads the handle's
    /// pcache miss count, and the span is marked a miss read when the
    /// count advanced during `f`.
    pub fn read<R>(&self, misses: impl Fn() -> u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let before = misses();
        let id = self.open("vector.read");
        let r = f();
        let miss = misses() != before;
        self.close(id, miss);
        r
    }

    /// Run op number `op` as a root span.
    pub fn op<R>(&self, op: u64, f: impl FnOnce() -> R) -> R {
        if self.on {
            self.inner.borrow_mut().op = op;
        }
        self.span("op", f)
    }

    /// Hand over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Wall ns each span covers that no child of it covers.
///
/// `spans` is one rank's list (parents precede children). Children of one
/// span run one after another on the rank's thread, so they never overlap
/// and the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    spans.iter().zip(&child).map(|(s, c)| s.dur().saturating_sub(*c)).collect()
}

/// Check, for every op of one rank, that the self times of its spans sum to
/// the op's duration. The op span's own self time is the op's unattributed
/// time. Returns the number of ops checked, or the first op that fails.
pub fn reconcile(spans: &[Span], selfs: &[u64]) -> Result<usize, String> {
    let mut sum = std::collections::BTreeMap::<u64, u64>::new();
    for (s, t) in spans.iter().zip(selfs) {
        *sum.entry(s.op).or_default() += t;
    }
    let mut ops = 0;
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let got = sum.get(&s.op).copied().unwrap_or(0);
        if got != s.dur() {
            return Err(format!(
                "rank {} op {}: self times sum to {got} ns, op lasted {} ns",
                s.rank,
                s.op,
                s.dur()
            ));
        }
        ops += 1;
    }
    Ok(ops)
}

/// Write spans as JSON lines: one object per span, `id` unique per rank.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut idx = std::collections::HashMap::<usize, usize>::new();
    for s in spans {
        let id = idx.entry(s.rank).or_insert(0);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"rank\":{},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"miss\":{}}}",
            s.rank, id, parent, s.op, s.name, s.start, s.end, s.miss
        )?;
        *id += 1;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span { name, start, end, parent, op, rank: 0, miss: false }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", 0, 100, None, 0),
            span("vector.read", 10, 40, Some(0), 0),
            span("comm.allreduce", 50, 90, Some(0), 0),
            span("txguard.end", 60, 70, Some(2), 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![30, 30, 30, 10]);
        assert_eq!(reconcile(&spans, &selfs), Ok(1));
    }

    #[test]
    fn recorder_nests_and_closes() {
        let tr = Tracer::new(true, Instant::now(), 3);
        tr.op(7, || tr.span("vector.read", || tr.span("txguard.begin", || ())));
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7 && s.rank == 3));
        let selfs = self_times(&spans);
        assert_eq!(reconcile(&spans, &selfs), Ok(1));
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tr.op(1, || tr.span("x.y", || 5)), 5);
        assert!(tr.into_spans().is_empty());
    }
}
