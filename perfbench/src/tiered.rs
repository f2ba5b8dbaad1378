//! `tiered-random`: skewed point loads from a vector four times the DRAM
//! tier, on a DRAM + NVMe + HDD DMSH.
//!
//! 1 node × 2 ranks, so both ranks share one node's DMSH and fault shards.
//! One op is 64 point loads under a `Random`-hinted read-only transaction:
//! no prefetch, every pcache miss is a synchronous fault from whichever
//! tier holds the page. Nine loads in ten fall on a seeded hot set of pages
//! about the size of the DRAM tier, so placement (promotions into DRAM,
//! demotions out of it) matters; with uniform keys nothing is promoted.

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec, Proc};
use megammap_sim::{DeviceSpec, KIB, MIB};

use crate::common::{bytes_of, RankLog, Stop};
use crate::trace::Tracer;
use crate::Size;

const URL: &str = "mem://tiered/records";
/// Point loads per op.
const LOADS: usize = 64;
/// Keys generated per rank; ranks cycle through them.
const KEYS: usize = 1 << 20;
/// Share of loads that fall on the hot set, in percent.
const HOT_PCT: u64 = 90;

/// Sizes of one instance.
#[derive(Debug, Clone, Copy)]
struct Dims {
    /// DRAM tier (bytes); the vector is four times this.
    pub dram: u64,
    /// Page size (bytes).
    pub page: u64,
    /// pcache bound per rank (bytes).
    pub pcache: u64,
    /// Unmeasured ops per rank in the set-up.
    pub warm_ops: u64,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims { dram: 16 * MIB, page: 4 * KIB, pcache: 512 * KIB, warm_ops: 500 },
        Size::Tiny => Dims { dram: 256 * KIB, page: 4 * KIB, pcache: 32 * KIB, warm_ops: 50 },
    }
}

impl Dims {
    fn records(&self) -> u64 {
        4 * self.dram / 8
    }
}

/// SplitMix64, the record and key generator.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generated inputs: each rank's key stream.
pub struct Inputs {
    dims: Dims,
    seed: u64,
    keys: [Vec<u64>; 2],
}

/// The record stored at index `i`.
fn record(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

fn inputs(seed: u64, size: Size) -> Inputs {
    let dims = dims(size);
    let n = dims.records();
    let per_page = dims.page / 8;
    let pages = n / per_page;
    // Hot pages: one page in four, chosen by hash, so the hot set is about
    // the size of the DRAM tier and spread over the whole vector.
    let hot: Vec<u64> =
        (0..pages).filter(|&pg| mix(seed ^ pg ^ 0x5EED).is_multiple_of(4)).collect();
    let stream = |rank: u64| -> Vec<u64> {
        let mut s = mix(seed.wrapping_add(rank + 1));
        (0..KEYS)
            .map(|_| {
                s = mix(s);
                let r = s >> 8;
                if r % 100 < HOT_PCT {
                    let pg = hot[((r >> 7) % hot.len() as u64) as usize];
                    pg * per_page + (r >> 27) % per_page
                } else {
                    (r >> 7) % n
                }
            })
            .collect()
    };
    Inputs { dims, seed, keys: [stream(0), stream(1)] }
}

/// A deployed instance.
pub struct Bench {
    cluster: Cluster,
    rt: Runtime,
    /// Next key position of each rank.
    pos: [usize; 2],
}

fn open(rt: &Runtime, p: &Proc, d: Dims) -> MmVec<u64> {
    MmVec::open(rt, p, URL, VecOptions::new().len(d.records()).pcache(d.pcache))
        .expect("open records")
}

/// Deploy a DRAM + NVMe + HDD DMSH, write every record (each rank its
/// half, one rank after the other) and run `warm_ops` unmeasured ops per
/// rank. Taking turns makes the tier each page lands on a function of the
/// inputs; concurrent writers would place pages by thread timing.
fn setup(inp: &Inputs) -> Bench {
    let d = inp.dims;
    let cluster = Cluster::new(ClusterSpec::new(1, 2));
    let cfg = RuntimeConfig::default().with_page_size(d.page).with_tiers(vec![
        DeviceSpec::dram(d.dram),
        DeviceSpec::nvme(2 * d.dram),
        DeviceSpec::hdd(16 * d.dram),
    ]);
    let rt = Runtime::new(&cluster, cfg);
    let seed = inp.seed;
    cluster.run(|p| {
        let v = open(&rt, p, d);
        v.pgas(p, p.rank(), p.nprocs());
        for turn in 0..p.nprocs() {
            if turn == p.rank() {
                let r = v.local_range();
                let tx =
                    v.tx(p, TxKind::seq(r.start, r.end - r.start), Access::WriteLocal).expect("tx");
                let mut buf = Vec::with_capacity(1 << 16);
                let mut i = r.start;
                while i < r.end {
                    let n = (1u64 << 16).min(r.end - i);
                    buf.clear();
                    buf.extend((i..i + n).map(|k| record(seed, k)));
                    v.write_slice(p, i, &buf).expect("write records");
                    i += n;
                }
                tx.end().expect("commit records");
            }
            p.world().barrier(p);
        }
    });
    let mut b = Bench { cluster, rt, pos: [0, 0] };
    let (logs, ok) = measure(&mut b, inp, Stop::Ops(d.warm_ops), false);
    assert!(logs.iter().all(|l| l.err_ops.is_empty()), "warm-up loads failed");
    assert!(ok.iter().flatten().all(|o| *o), "warm-up loads read wrong records");
    b
}

/// Per rank, per op: every loaded value matched its record.
pub type Record = Vec<Vec<bool>>;

fn measure(b: &mut Bench, inp: &Inputs, stop: Stop, trace: bool) -> (Vec<RankLog>, Record) {
    let rt = b.rt.clone();
    let pos = b.pos;
    let epoch = Instant::now();
    let (outs, _) = b.cluster.run(|p| rank_loop(p, &rt, inp, pos[p.rank()], stop, trace, epoch));
    let mut logs = Vec::new();
    let mut rec = Vec::new();
    for (r, (log, ok)) in outs.into_iter().enumerate() {
        b.pos[r] += ok.len() * LOADS;
        logs.push(log);
        rec.push(ok);
    }
    (logs, rec)
}

fn rank_loop(
    p: &Proc,
    rt: &Runtime,
    inp: &Inputs,
    mut pos: usize,
    stop: Stop,
    trace: bool,
    epoch: Instant,
) -> (RankLog, Vec<bool>) {
    let v = open(rt, p, inp.dims);
    let keys = &inp.keys[p.rank()];
    let n = v.len();
    let tr = Tracer::new(trace, epoch, p.rank());
    let mut ok = Vec::new();
    p.world().barrier(p);
    let mut log = RankLog::begin(p);
    while !stop.reached(ok.len() as u64) {
        let mut wrong = 0u32;
        let kind = TxKind::rand(mix(pos as u64), 0, n);
        log.op(p, &tr, || -> Result<(), MmError> {
            let tx = tr.span("txguard.begin", || {
                v.tx_hinted(p, kind, Access::ReadOnly, AccessPattern::Random)
            })?;
            for j in 0..LOADS {
                let key = keys[(pos + j) % keys.len()];
                let got = tr.read(|| v.cache_stats().misses, || v.try_load(p, key))?;
                wrong += u32::from(got != record(inp.seed, key));
            }
            tr.span("txguard.end", || tx.end())
        });
        pos += LOADS;
        log.io(bytes_of::<u64>(LOADS), 0);
        ok.push(wrong == 0);
    }
    log.finish(tr);
    (log, ok)
}

/// The `tiered-random` workload.
pub struct TieredRandom;

impl crate::Workload for TieredRandom {
    type Inputs = Inputs;
    type Bench = Bench;
    type Record = Record;
    const NAME: &'static str = "tiered-random";
    const REF_OPS: u64 = 1000;

    fn inputs(seed: u64, size: Size) -> Inputs {
        inputs(seed, size)
    }
    fn setup(inp: &Inputs) -> Bench {
        setup(inp)
    }
    fn rt(b: &Bench) -> &Runtime {
        &b.rt
    }
    fn measure(b: &mut Bench, inp: &Inputs, stop: Stop, trace: bool) -> (Vec<RankLog>, Record) {
        measure(b, inp, stop, trace)
    }
    /// The loads were checked as they were made.
    fn check(_: &mut Bench, _: &Inputs, _: &[RankLog], rec: &Record) -> Vec<Vec<bool>> {
        rec.clone()
    }
    /// Peak DRAM-tier use plus both ranks' pcache bounds.
    fn model_dram_bytes(b: &Bench, inp: &Inputs) -> u64 {
        b.rt.peak_scache_dram() + 2 * inp.dims.pcache
    }
    fn describe(inp: &Inputs) -> String {
        let d = inp.dims;
        format!(
            "{} u64 records ({} MiB) on DRAM {} MiB + NVMe {} MiB + HDD {} MiB, {} KiB pages, pcache {} KiB per rank, {}% of loads on a hot set of ~{} MiB",
            d.records(),
            (d.records() * 8) >> 20,
            d.dram >> 20,
            (2 * d.dram) >> 20,
            (16 * d.dram) >> 20,
            d.page >> 10,
            d.pcache >> 10,
            HOT_PCT,
            d.dram >> 20
        )
    }
}
