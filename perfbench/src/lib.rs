//! End-to-end and per-layer benchmark of the MegaMmap DSM.
//!
//! Three SPMD workloads run against the public API of `megammap`, each on
//! two simulated ranks (two OS threads) in a closed loop: a rank issues
//! its next op only after the previous one completed. See `README.md` for
//! the workloads, the metrics and what each per-layer metric should move.

pub mod common;
pub mod grayscott;
pub mod kmeans;
pub mod tiered;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use megammap::Runtime;

use common::{median, quantile, Counters, RankLog, Stop};
use trace::Span;

/// Input size: the benchmark's, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-long sizes for the test suite.
    Tiny,
}

/// One workload: inputs from a seed, a deployment, a measured phase and
/// the check of its outputs.
pub trait Workload {
    /// Generated inputs.
    type Inputs;
    /// A deployed cluster + runtime with the inputs loaded.
    type Bench;
    /// What the measured phase produced besides the rank logs.
    type Record;
    /// Name on the command line.
    const NAME: &'static str;
    /// Ops per rank that `virt_makespan_s` is scaled to.
    const REF_OPS: u64;

    /// Generate the inputs from `seed`.
    fn inputs(seed: u64, size: Size) -> Self::Inputs;
    /// Deploy and load (the timed set-up).
    fn setup(inp: &Self::Inputs) -> Self::Bench;
    /// The deployment's runtime.
    fn rt(b: &Self::Bench) -> &Runtime;
    /// Run ops until `stop`, spans recorded when `trace`.
    fn measure(
        b: &mut Self::Bench,
        inp: &Self::Inputs,
        stop: Stop,
        trace: bool,
    ) -> (Vec<RankLog>, Self::Record);
    /// Per rank, per op: whether the op's output passed its check.
    fn check(
        b: &mut Self::Bench,
        inp: &Self::Inputs,
        logs: &[RankLog],
        rec: &Self::Record,
    ) -> Vec<Vec<bool>>;
    /// Modeled DRAM: peak scache DRAM plus the node's pcache bounds.
    fn model_dram_bytes(b: &Self::Bench, inp: &Self::Inputs) -> u64;
    /// Input sizes, one line.
    fn describe(inp: &Self::Inputs) -> String;
}

/// The names of the workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] =
    [kmeans::KmeansScan::NAME, grayscott::GrayScottCkpt::NAME, tiered::TieredRandom::NAME];

/// The set-up is repeated at least `MIN_SETUPS` times, and then until the
/// set-ups have taken `SETUP_BUDGET_S` or number `MAX_SETUPS`; `setup_s` is
/// their median. A set-up of tens of ms is timed some 30 times, one of
/// seconds 5 times.
pub const MIN_SETUPS: usize = 5;

/// See `MIN_SETUPS`.
pub const MAX_SETUPS: usize = 31;

/// See `MIN_SETUPS`.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Ops per window. The measured phase is cut, in the order ops ended, into
/// windows of this many ops, so that a window's p90 has ten ops beyond it.
pub const WINDOW_OPS: usize = 100;

/// The quantile over windows at which the tail factor (a window's p90 over
/// its p50) is read for `op_ms_p90`. The host's speed, which drifts and has
/// fast spells, scales a window's p50 and p90 alike. Steal time comes in
/// bursts that stretch the tail once they hit a tenth of a window's ops,
/// in some runs in more than half of the windows. So the scale comes from
/// the median window and the tail factor from the quiet end.
pub const TAIL_QUANTILE: f64 = 0.1;

/// A measured phase with its checked outcome.
pub struct Phase {
    /// Per-rank logs.
    pub logs: Vec<RankLog>,
    /// Per rank, per op: no `Err` and the output check passed.
    pub ok: Vec<Vec<bool>>,
    /// Counters accumulated during the phase.
    pub counters: Counters,
}

impl Phase {
    /// Ops attempted, over all ranks.
    pub fn attempted(&self) -> u64 {
        self.ok.iter().map(|o| o.len() as u64).sum()
    }

    /// Ops that hit an `Err` or failed their check.
    pub fn failed(&self) -> u64 {
        self.ok.iter().flatten().filter(|ok| !**ok).count() as u64
    }

    /// Wall seconds from the first rank's start to the last rank's end.
    pub fn wall_s(&self) -> f64 {
        let start = self.logs.iter().filter_map(|l| l.wall_start).min().expect("phase started");
        let end = self.logs.iter().filter_map(|l| l.wall_end).max().expect("phase ended");
        (end - start).as_secs_f64()
    }

    /// Per-op wall ns over all ranks.
    pub fn op_ns(&self) -> Vec<u64> {
        self.logs.iter().flat_map(|l| l.op_wall_ns.iter().copied()).collect()
    }

    /// Virtual makespan of the phase scaled to `ref_ops` ops per rank.
    pub fn virt_makespan_s(&self, ref_ops: u64) -> f64 {
        let start = self.logs.iter().map(|l| l.virt_start).min().unwrap_or(0);
        let end = self.logs.iter().filter_map(|l| l.op_virt_end.last()).max().copied();
        let ops = self.attempted() as f64 / self.logs.len() as f64;
        match end {
            Some(end) if ops > 0.0 => (end - start) as f64 / 1e9 * ref_ops as f64 / ops,
            _ => 0.0,
        }
    }

    /// Cut the phase, in the order ops ended over all ranks, into windows
    /// of `ops` ops; the ops left over after the last whole window are
    /// dropped. A window lasts from the previous window's last op end (the
    /// phase start, for the first) to its own last op end.
    pub fn windows(&self, ops: usize) -> Vec<Window> {
        let mut prev = self.logs.iter().filter_map(|l| l.wall_start).min().expect("phase started");
        let mut all: Vec<(Instant, u64, u64)> = self
            .logs
            .iter()
            .flat_map(|l| {
                l.op_end.iter().zip(&l.op_wall_ns).zip(&l.op_bytes).map(|((e, n), b)| (*e, *n, *b))
            })
            .collect();
        all.sort_by_key(|op| op.0);
        // A phase shorter than one window is one window.
        let ops = ops.clamp(1, all.len().max(1));
        all.chunks_exact(ops)
            .map(|chunk| {
                let end = chunk[ops - 1].0;
                let secs = (end - prev).as_secs_f64();
                prev = end;
                let bytes: u64 = chunk.iter().map(|op| op.2).sum();
                Window {
                    mib_s: bytes as f64 / (1 << 20) as f64 / secs,
                    op_ns: chunk.iter().map(|op| op.1).collect(),
                }
            })
            .collect()
    }

    /// All spans, rank by rank.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.logs.iter().flat_map(|l| l.spans.iter())
    }
}

/// `[app_mib_s, op_ms_p50, op_ms_p90]` from the windows' throughput, p50
/// and tail factor (p90 / p50): the median throughput, the median p50, and
/// that p50 times the tail factor at `TAIL_QUANTILE`. The tail factor is at
/// least 1 in every window, so `op_ms_p90` is never below `op_ms_p50`.
pub fn wall_metrics(mib_s: &[f64], p50_ms: &[f64], tail: &[f64]) -> [f64; 3] {
    let p50 = median(p50_ms);
    [median(mib_s), p50, p50 * quantile(tail, TAIL_QUANTILE)]
}

/// One window of a phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// MiB read plus written through `MmVec` by the window's ops, per
    /// second of the window.
    pub mib_s: f64,
    /// Wall ns of the window's ops.
    pub op_ns: Vec<u64>,
}

impl Window {
    /// The window's median op time, ms.
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.op_ns, 0.5) as f64 / 1e6
    }

    /// The window's p90 op time, ms.
    pub fn p90_ms(&self) -> f64 {
        quantile(&self.op_ns, 0.9) as f64 / 1e6
    }
}

/// Run a measured phase and check it; counters are read around `measure`
/// only, so the checks' own I/O is not counted. Also returns the
/// workload's record of the phase's outputs.
pub fn phase<W: Workload>(
    b: &mut W::Bench,
    inp: &W::Inputs,
    stop: Stop,
    trace: bool,
) -> (Phase, W::Record) {
    let before = Counters::take(W::rt(b));
    let (logs, rec) = W::measure(b, inp, stop, trace);
    let counters = Counters::take(W::rt(b)).since(&before);
    let checked = W::check(b, inp, &logs, &rec);
    let ok = logs
        .iter()
        .zip(checked)
        .map(|(l, c)| {
            assert_eq!(c.len(), l.op_wall_ns.len(), "one check per op");
            c.into_iter()
                .enumerate()
                .map(|(k, pass)| pass && !l.err_ops.contains(&(k as u64)))
                .collect()
        })
        .collect();
    (Phase { logs, ok, counters }, rec)
}

/// A named metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The result line of one run.
pub struct Report {
    /// Every op passed and every whole-run check held.
    pub correct: bool,
    /// Ops attempted in the reported phase.
    pub attempted: u64,
    /// Ops failed in the reported phase.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
}

/// Run workload `W` for `seconds`: set up as `MIN_SETUPS` says, then measure
/// with tracing off (end-to-end metrics) or, with `traced`, measure half
/// the time untraced and half traced (per-layer metrics).
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool, size: Size) -> Report {
    let inp = W::inputs(seed, size);
    let mut setup_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(W::setup(&inp));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut b = bench.expect("set up at least once");
    let mut notes = vec![
        format!("{}: {}", W::NAME, W::describe(&inp)),
        format!("setup_s is the median of {} set-ups", setup_s.len()),
    ];
    let deadline = |s: f64| Stop::At(Instant::now() + Duration::from_secs_f64(s));
    if !traced {
        let (ph, _) = phase::<W>(&mut b, &inp, deadline(seconds), false);
        let windows = ph.windows(WINDOW_OPS);
        let per_window = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
        let mib_s = per_window(|w| w.mib_s);
        let p50 = per_window(|w| w.p50_ms());
        let tail = per_window(|w| w.p90_ms() / w.p50_ms());
        let [app_mib_s, op_ms_p50, op_ms_p90] = wall_metrics(&mib_s, &p50, &tail);
        let mut m = Metrics::new();
        let mut put = |k: &str, v: f64, unit| {
            m.insert(k.to_string(), (v, unit));
        };
        put("setup_s", median(&setup_s), "s");
        put("app_mib_s", app_mib_s, "MiB/s");
        put("op_ms_p50", op_ms_p50, "ms");
        put("op_ms_p90", op_ms_p90, "ms");
        put("virt_makespan_s", ph.virt_makespan_s(W::REF_OPS), "s");
        put("model_dram_mib", W::model_dram_bytes(&b, &inp) as f64 / (1 << 20) as f64, "MiB");
        put("peak_rss_mib", peak_rss_mib(), "MiB");
        put("op_ok_frac", 1.0 - ph.failed() as f64 / ph.attempted().max(1) as f64, "ratio");
        notes.push(format!(
            "{} ops over {} ranks in {:.3} s wall, cut into {} windows of {} ops; app_mib_s and \
             op_ms_p50 are the windows' medians, op_ms_p90 is op_ms_p50 times the {:.0}th \
             percentile of p90/p50; virt_makespan_s is scaled to {} ops per rank",
            ph.attempted(),
            ph.logs.len(),
            ph.wall_s(),
            windows.len(),
            WINDOW_OPS,
            TAIL_QUANTILE * 100.0,
            W::REF_OPS
        ));
        for (name, v) in [("MiB/s", &mib_s), ("p50 ms", &p50), ("p90/p50", &tail)] {
            let at = |q| quantile(v, q);
            notes.push(format!(
                "  window {name:<7}: min {:.3}, 10% {:.3}, median {:.3}, 90% {:.3}, max {:.3}",
                at(0.0),
                at(0.1),
                at(0.5),
                at(0.9),
                at(1.0)
            ));
        }
        return Report {
            correct: ph.failed() == 0 && ph.attempted() > 0,
            attempted: ph.attempted(),
            failed: ph.failed(),
            metrics: m,
            notes,
            spans: Vec::new(),
        };
    }
    let (plain, _) = phase::<W>(&mut b, &inp, deadline(seconds / 2.0), false);
    let (traced_ph, _) = phase::<W>(&mut b, &inp, deadline(seconds / 2.0), true);
    let (m, reconciled) = per_layer(&plain, &traced_ph);
    if let Err(e) = &reconciled {
        notes.push(format!("self-time reconciliation failed: {e}"));
    }
    notes.push(format!(
        "traced phase: {} ops, {} spans; untraced phase: {} ops",
        traced_ph.attempted(),
        traced_ph.spans().count(),
        plain.attempted()
    ));
    let failed = plain.failed() + traced_ph.failed();
    Report {
        correct: failed == 0 && reconciled.is_ok() && traced_ph.attempted() > 0,
        attempted: plain.attempted() + traced_ph.attempted(),
        failed,
        metrics: m,
        notes,
        spans: traced_ph.spans().cloned().collect(),
    }
}

/// Per-layer metrics of a traced phase; `plain` is the untraced phase run
/// just before it, which prices the tracing. Also checks that every op's
/// self times reconcile with its duration.
pub fn per_layer(plain: &Phase, tr: &Phase) -> (Metrics, Result<usize, String>) {
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, unit| {
        m.insert(k.to_string(), (v, unit));
    };
    let c = &tr.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Span totals by name, per-call durations, and self-time reconciliation.
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut miss_reads = Vec::new();
    let mut unattributed = 0u64;
    let mut reconciled = Ok(0);
    for log in &tr.logs {
        let selfs = trace::self_times(&log.spans);
        match (trace::reconcile(&log.spans, &selfs), &mut reconciled) {
            (Ok(n), Ok(acc)) => *acc += n,
            (Err(e), r @ Ok(_)) => *r = Err(e),
            _ => {}
        }
        for (s, st) in log.spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                unattributed += st;
                continue;
            }
            *total.entry(s.name).or_default() += s.dur();
            *calls.entry(s.name).or_default() += 1;
            durs.entry(s.name).or_default().push(s.dur());
            if s.miss {
                miss_reads.push(s.dur());
            }
        }
    }
    let secs = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let pct = |name: &str, q: f64| quantile(durs.get(name).map_or(&[][..], |v| v), q) as f64;

    put("workloads.compute_s", secs("workloads.compute"), "s");
    put("vector.read_s", secs("vector.read"), "s");
    put("vector.read_ns_p50", pct("vector.read", 0.5), "ns");
    put("vector.read_ns_p99", pct("vector.read", 0.99), "ns");
    put("vector.miss_read_ns_p50", quantile(&miss_reads, 0.5) as f64, "ns");
    put("vector.miss_read_ns_p99", quantile(&miss_reads, 0.99) as f64, "ns");
    put("vector.write_s", secs("vector.write"), "s");
    put("txguard.begin_s", secs("txguard.begin"), "s");
    put("txguard.end_s", secs("txguard.end"), "s");
    put("txguard.end_ns_p99", pct("txguard.end", 0.99), "ns");
    let (hits, misses) = (c.get("pcache.hits"), c.get("pcache.misses"));
    put("pcache.hit_ratio", ratio(hits, hits + misses), "ratio");
    put("pcache.evictions", c.get("pcache.evictions") as f64, "count");
    put("prefetch.issued", c.get("prefetch.issued") as f64, "count");
    put(
        "prefetch.useful_ratio",
        ratio(c.get("prefetch.useful"), c.get("prefetch.issued")),
        "ratio",
    );
    for k in [
        "runtime.faults",
        "runtime.coalesced_faults",
        "runtime.batched_crossings",
        "runtime.remote_reads",
        "runtime.writes",
        "runtime.invalidations",
        "dmsh.demotions",
        "dmsh.promotions",
        "stager.io_retries",
        "net.msgs",
    ] {
        put(k, c.get(k) as f64, "count");
    }
    for k in [
        "runtime.fault_bytes",
        "runtime.bytes_copied",
        "stager.staged_out_bytes",
        "stager.staged_in_bytes",
        "stager.journal_bytes",
        "net.bytes",
    ] {
        put(k, c.get(k) as f64, "bytes");
    }
    let (own_hit, own_miss) =
        (c.get("runtime.owner_fast_hits"), c.get("runtime.owner_fast_misses"));
    put("runtime.owner_fast_ratio", ratio(own_hit, own_hit + own_miss), "ratio");
    let written: u64 = tr.logs.iter().map(|l| l.bytes_written).sum();
    put("runtime.copy_ratio", ratio(c.get("runtime.bytes_copied"), written), "ratio");
    put("runtime.queue_delay_p99_ns", c.queue_delay_p99() as f64, "ns");
    put("dmsh.dram_bytes", c.dram_bytes as f64, "bytes");
    put("dmsh.lower_tier_bytes", c.lower_bytes as f64, "bytes");
    put("stager.flush_calls", calls.get("stager.flush").copied().unwrap_or(0) as f64, "count");
    put("stager.flush_s", secs("stager.flush"), "s");
    let staged = c.get("stager.staged_out_bytes") + c.get("stager.journal_bytes");
    put("stager.write_amp", ratio(staged, written), "ratio");
    let comm = ["comm.allreduce", "comm.barrier"];
    put("comm.wait_s", comm.iter().map(|n| secs(n)).sum(), "s");
    put(
        "comm.calls",
        comm.iter().map(|n| calls.get(n).copied().unwrap_or(0)).sum::<u64>() as f64,
        "count",
    );
    put("sim.rank_skew_ms", rank_skew_ms(&tr.logs), "ms");
    put("trace.unattributed_s", unattributed as f64 / 1e9, "s");
    let mean = |p: &Phase| {
        let v = p.op_ns();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    let base = mean(plain);
    put("trace.overhead_pct", if base > 0.0 { (mean(tr) / base - 1.0) * 100.0 } else { 0.0 }, "%");
    (m, reconciled)
}

/// Mean over op indices of the spread (max − min) of the ranks' virtual
/// clocks on entering that op's collective (at the op's end, for
/// workloads without one), in virtual ms.
fn rank_skew_ms(logs: &[RankLog]) -> f64 {
    fn at(l: &RankLog) -> &[u64] {
        if l.op_virt_sync.is_empty() {
            &l.op_virt_end
        } else {
            &l.op_virt_sync
        }
    }
    let n = logs.iter().map(|l| at(l).len()).min().unwrap_or(0);
    if n == 0 {
        return 0.0;
    }
    let total: u64 = (0..n)
        .map(|k| {
            let ts = logs.iter().map(|l| at(l)[k]);
            ts.clone().max().unwrap_or(0) - ts.min().unwrap_or(0)
        })
        .sum();
    total as f64 / n as f64 / 1e6
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the workload called `name`.
pub fn run_named(name: &str, seed: u64, seconds: f64, traced: bool, size: Size) -> Option<Report> {
    Some(match name {
        n if n == kmeans::KmeansScan::NAME => {
            run::<kmeans::KmeansScan>(seed, seconds, traced, size)
        }
        n if n == grayscott::GrayScottCkpt::NAME => {
            run::<grayscott::GrayScottCkpt>(seed, seconds, traced, size)
        }
        n if n == tiered::TieredRandom::NAME => {
            run::<tiered::TieredRandom>(seed, seconds, traced, size)
        }
        _ => return None,
    })
}

/// The result as one JSON line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() { format!("{v:?}") } else { "null".into() };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of two ranks whose ops end every `step` ms, rank 1 half a
    /// step after rank 0, each op taking its index in ns and moving 1 MiB.
    fn phase_of(ops: u64, step: u64) -> Phase {
        let t0 = Instant::now();
        let logs = (0..2u64)
            .map(|r| {
                let end =
                    |k: u64| t0 + Duration::from_micros((k + 1) * step * 1000 + r * step * 500);
                RankLog {
                    op_wall_ns: (0..ops).map(|k| 2 * k + r).collect(),
                    op_end: (0..ops).map(end).collect(),
                    op_bytes: vec![1 << 20; ops as usize],
                    wall_start: Some(t0),
                    wall_end: Some(end(ops - 1)),
                    ..RankLog::default()
                }
            })
            .collect();
        let counters = Counters {
            map: BTreeMap::new(),
            queue_delay: (Vec::new(), Vec::new()),
            dram_bytes: 0,
            lower_bytes: 0,
        };
        Phase { logs, ok: Vec::new(), counters }
    }

    #[test]
    fn windows_hold_whole_op_counts_in_end_order() {
        let w = phase_of(150, 10).windows(100);
        // 300 ops make three windows; ranks interleave by end time.
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.op_ns.len() == 100));
        assert_eq!(w[0].op_ns[..4], [0, 1, 2, 3]);
        // The first window runs from the phase start to rank 1's 50th op
        // end (505 ms); each later one spans 50 steps of 10 ms.
        let want = [100.0 / 0.505, 200.0, 200.0];
        for (w, want) in w.iter().zip(want) {
            assert!((w.mib_s - want).abs() < 1e-6, "{} vs {want}", w.mib_s);
        }
    }

    #[test]
    fn a_phase_shorter_than_a_window_is_one_window() {
        let w = phase_of(20, 10).windows(100);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].op_ns.len(), 40);
    }

    #[test]
    fn p90_scale_is_the_median_and_its_tail_the_quiet_end() {
        // Five windows at normal speed, two in a fast spell, three with a
        // stretched tail: the p50 is the median window's, the tail factor
        // the 10th percentile's.
        let p50 = [3.0, 3.0, 3.0, 3.1, 3.1, 1.8, 1.8, 3.2, 3.3, 3.4];
        let tail = [1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.8, 2.2, 2.5];
        let mib_s = [10.0, 10.0, 10.0, 9.0, 9.0, 16.0, 16.0, 8.0, 7.0, 6.0];
        let [app, p50, p90] = wall_metrics(&mib_s, &p50, &tail);
        assert_eq!(app, 9.5);
        assert_eq!(p50, 3.05);
        assert!((p90 - 3.05 * 1.1).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
    }
}
