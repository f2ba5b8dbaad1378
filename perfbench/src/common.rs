//! What the three workloads share: how a run stops, what each rank logs,
//! and the layer counters read before and after the measured phase.

use std::collections::BTreeMap;
use std::time::Instant;

use megammap::Runtime;
use megammap_cluster::Proc;
use megammap_telemetry::HistogramSnapshot;

use crate::trace::{Span, Tracer};

/// When the measured phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At a wall-clock deadline (benchmark runs).
    At(Instant),
    /// After this many ops per rank (tests, warm-up).
    Ops(u64),
}

impl Stop {
    /// Whether a rank that has finished `done` ops should stop.
    pub fn reached(&self, done: u64) -> bool {
        match *self {
            Stop::At(t) => Instant::now() >= t,
            Stop::Ops(n) => done >= n,
        }
    }
}

/// One rank's record of its measured phase.
#[derive(Debug, Default)]
pub struct RankLog {
    /// Wall ns of each op.
    pub op_wall_ns: Vec<u64>,
    /// Wall time each op ended.
    pub op_end: Vec<Instant>,
    /// Bytes each op read plus wrote through `MmVec`.
    pub op_bytes: Vec<u64>,
    /// Virtual clock at the end of each op.
    pub op_virt_end: Vec<u64>,
    /// Virtual clock on entering each op's collective, for workloads whose
    /// ops end in one.
    pub op_virt_sync: Vec<u64>,
    /// Virtual clock when the measured phase began.
    pub virt_start: u64,
    /// Wall time the phase began and ended on this rank.
    pub wall_start: Option<Instant>,
    /// See `wall_start`.
    pub wall_end: Option<Instant>,
    /// Ops that returned an `Err`.
    pub err_ops: Vec<u64>,
    /// Bytes written through `MmVec`.
    pub bytes_written: u64,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl RankLog {
    /// Start the phase on this rank.
    pub fn begin(p: &Proc) -> Self {
        Self { virt_start: p.now(), wall_start: Some(Instant::now()), ..Self::default() }
    }

    /// Time one op and record its outcome.
    pub fn op<E>(&mut self, p: &Proc, tr: &Tracer, f: impl FnOnce() -> Result<(), E>) {
        let k = self.op_wall_ns.len() as u64;
        let t = Instant::now();
        let ok = tr.op(k, f).is_ok();
        self.op_wall_ns.push(t.elapsed().as_nanos() as u64);
        self.op_end.push(Instant::now());
        self.op_virt_end.push(p.now());
        if !ok {
            self.err_ops.push(k);
        }
    }

    /// Record the bytes the last op read and wrote through `MmVec`.
    pub fn io(&mut self, read: u64, written: u64) {
        self.op_bytes.push(read + written);
        self.bytes_written += written;
    }

    /// End the phase on this rank.
    pub fn finish(&mut self, tr: Tracer) {
        self.wall_end = Some(Instant::now());
        self.spans = tr.into_spans();
    }
}

/// Layer counters, keyed `layer.name`, read from the runtime's public
/// statistics and its telemetry registry.
#[derive(Debug)]
pub struct Counters {
    /// Monotone counts.
    pub map: BTreeMap<&'static str, u64>,
    /// Virtual queue delay histogram `(bounds, counts)`.
    pub queue_delay: (Vec<u64>, Vec<u64>),
    /// DRAM-tier bytes in use, summed over nodes.
    pub dram_bytes: u64,
    /// Bytes in use on the tiers below DRAM, summed over nodes.
    pub lower_bytes: u64,
}

/// `(key, telemetry subsystem, telemetry name)` of every registry counter
/// the benchmark reads.
const REGISTRY: &[(&str, &str, &str)] = &[
    ("pcache.hits", "pcache", "hits"),
    ("pcache.misses", "pcache", "misses"),
    ("pcache.evictions", "pcache", "evictions"),
    ("prefetch.useful", "prefetch", "useful"),
    ("prefetch.wasted", "prefetch", "wasted"),
    ("stager.journal_bytes", "stager", "journal_bytes"),
    ("stager.io_retries", "stager", "io_retries"),
    ("dmsh.demotions", "tier", "demotions"),
    ("dmsh.promotions", "tier", "promotions"),
    ("comm.collectives", "comm", "collectives"),
    ("net.bytes", "net", "bytes"),
    ("net.msgs", "net", "msgs"),
];

impl Counters {
    /// Read every counter now.
    pub fn take(rt: &Runtime) -> Self {
        let s = rt.stats();
        let mut map = BTreeMap::new();
        for (k, v) in [
            ("runtime.faults", s.faults),
            ("prefetch.issued", s.prefetches),
            ("runtime.remote_reads", s.remote_reads),
            ("runtime.local_reads", s.local_reads),
            ("runtime.writes", s.writes),
            ("stager.staged_in_bytes", s.staged_in),
            ("stager.staged_out_bytes", s.staged_out),
            ("runtime.invalidations", s.invalidations),
            ("runtime.bytes_copied", s.bytes_copied),
            ("runtime.fault_bytes", s.fault_bytes),
            ("runtime.coalesced_faults", s.coalesced_faults),
            ("runtime.owner_fast_hits", s.owner_fast_hits),
            ("runtime.owner_fast_misses", s.owner_fast_misses),
            ("runtime.batched_crossings", s.batched_crossings),
        ] {
            map.insert(k, v);
        }
        let t = rt.telemetry();
        for &(k, sub, name) in REGISTRY {
            map.insert(k, t.counter_total(sub, name));
        }
        let mut queue_delay = (Vec::new(), Vec::new());
        for (k, h) in t.snapshot().histograms {
            if k.subsystem == "runtime" && k.name == "queue_delay_ns" {
                queue_delay.1.resize(h.counts.len(), 0);
                for (acc, c) in queue_delay.1.iter_mut().zip(&h.counts) {
                    *acc += c;
                }
                queue_delay.0 = h.bounds;
            }
        }
        let (mut dram_bytes, mut lower_bytes) = (0, 0);
        for n in 0..rt.nodes() {
            for (i, (_, used, _)) in rt.node(n).dmsh.tier_usage().into_iter().enumerate() {
                *if i == 0 { &mut dram_bytes } else { &mut lower_bytes } += used;
            }
        }
        Self { map, queue_delay, dram_bytes, lower_bytes }
    }

    /// Counts accumulated since `before` (tier occupancy is taken as is).
    pub fn since(&self, before: &Counters) -> Counters {
        let map = self.map.iter().map(|(k, v)| (*k, v.saturating_sub(before.map[k]))).collect();
        let counts = self
            .queue_delay
            .1
            .iter()
            .enumerate()
            .map(|(i, c)| c.saturating_sub(before.queue_delay.1.get(i).copied().unwrap_or(0)))
            .collect();
        Counters {
            map,
            queue_delay: (self.queue_delay.0.clone(), counts),
            dram_bytes: self.dram_bytes,
            lower_bytes: self.lower_bytes,
        }
    }

    /// A counter by key.
    pub fn get(&self, k: &str) -> u64 {
        self.map[k]
    }

    /// p99 of the queue delay histogram (ns, interpolated in its bucket).
    pub fn queue_delay_p99(&self) -> u64 {
        let (bounds, counts) = &self.queue_delay;
        HistogramSnapshot {
            bounds: bounds.clone(),
            counts: counts.clone(),
            sum: 0,
            count: counts.iter().sum(),
        }
        .p99()
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; zero when empty.
pub fn quantile<T: Copy + Default + PartialOrd>(v: &[T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("comparable values"));
    let i = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len()) - 1;
    s[i]
}

/// Median of floats; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Bytes of `n` elements of `T`.
pub fn bytes_of<T>(n: usize) -> u64 {
    (n * std::mem::size_of::<T>()) as u64
}
