//! `kmeans-scan`: Lloyd sweeps over Gadget-like halos (paper Listing 1,
//! Fig. 5).
//!
//! 2 nodes × 1 rank. The points are staged into an `obj://` backend; the
//! DMSH has only its DRAM tier, which holds the whole dataset, while each
//! rank's pcache bound is a small fraction of its partition. One op is one
//! rank's sequential read-only sweep of its partition plus the allreduce
//! of the per-cluster sums. This drives the read path (pcache, Algorithm-1
//! prefetch, coalesced runs, remote pages) with no writes and no tiering.

use std::collections::HashMap;
use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::comm::ReduceOp;
use megammap_cluster::{Cluster, ClusterSpec, Proc};
use megammap_formats::DataUrl;
use megammap_sim::MIB;
use megammap_workloads::datagen::{bench_params, generate, HaloDataset};
use megammap_workloads::verify::ref_kmeans;
use megammap_workloads::Point3D;

use crate::common::{bytes_of, RankLog, Stop};
use crate::trace::Tracer;
use crate::Size;

const URL: &str = "obj://kmeans/points.bin";
/// Clusters; `bench_params` generates 8 halos.
const K: usize = 8;
/// Points per `read_into` call.
const CHUNK: usize = 4096;
/// Unmeasured sweeps in the set-up.
const WARM_SWEEPS: u64 = 4;

/// Sizes of one instance.
#[derive(Debug, Clone, Copy)]
struct Dims {
    /// Points in the dataset.
    pub points: usize,
    /// pcache bound per rank (bytes).
    pub pcache: u64,
    /// DRAM tier per node (bytes); holds the whole dataset.
    pub dram: u64,
}

/// Sizes for a run.
fn dims(size: Size) -> Dims {
    match size {
        // 6 MiB of points: 3 MiB per rank against a 256 KiB pcache. A
        // sweep takes ~12 ms, short enough that a host stall of tens of ms
        // lands in few ops and leaves op_ms_p90 alone.
        Size::Full => Dims { points: 1 << 19, pcache: 256 << 10, dram: 16 * MIB },
        Size::Tiny => Dims { points: 40_000, pcache: 64 << 10, dram: 4 * MIB },
    }
}

/// The generated inputs: the halo catalog and the initial centroids.
pub struct Inputs {
    dims: Dims,
    data: HaloDataset,
    init: Vec<Point3D>,
}

/// Generate the inputs from `seed`.
fn inputs(seed: u64, size: Size) -> Inputs {
    let mut dims = dims(size);
    // The seed also trims up to 4095 points, so partition boundaries (and
    // the modeled time, which does not depend on point values) differ
    // between seeds.
    dims.points -= (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
    let data =
        generate(megammap_workloads::datagen::HaloParams { seed, ..bench_params(dims.points) });
    // Point i belongs to halo i % 8, so the first K points seed one
    // centroid per halo.
    let init = data.points[..K].to_vec();
    Inputs { dims, data, init }
}

/// A deployed instance.
pub struct Bench {
    cluster: Cluster,
    rt: Runtime,
    centroids: Vec<Point3D>,
}

/// Deploy the cluster, stage the points into the object store and run
/// `WARM_SWEEPS` unmeasured sweeps, so the measured sweeps find the DRAM
/// tier filled.
fn setup(inp: &Inputs) -> Bench {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(inp.dims.dram));
    let obj = rt.backends().open(&DataUrl::parse(URL).expect("valid url")).expect("object");
    inp.data.write_object(obj.as_ref()).expect("stage points");
    let mut b = Bench { cluster, rt, centroids: inp.init.clone() };
    let (logs, _) = measure(&mut b, inp, Stop::Ops(WARM_SWEEPS), false);
    assert!(logs.iter().all(|l| l.err_ops.is_empty()), "warm-up sweep failed");
    b
}

/// Run sweeps until `stop`; all ranks agree to stop through the allreduce.
fn measure(b: &mut Bench, inp: &Inputs, stop: Stop, trace: bool) -> (Vec<RankLog>, History) {
    let rt = b.rt.clone();
    let init = b.centroids.clone();
    let pcache = inp.dims.pcache;
    let epoch = Instant::now();
    let (outs, _) = b.cluster.run(|p| rank_loop(p, &rt, &init, pcache, stop, trace, epoch));
    let mut logs = Vec::new();
    let mut history = Vec::new();
    for (log, h, ks) in outs {
        logs.push(log);
        // Every rank holds the same history and centroids; keep rank 0's.
        if history.is_empty() {
            history = h;
            b.centroids = ks;
        }
    }
    (logs, history)
}

/// Per op (the same on every rank): the centroids the sweep used and the
/// global inertia it computed.
pub type History = Vec<(Vec<Point3D>, f64)>;

fn rank_loop(
    p: &Proc,
    rt: &Runtime,
    init: &[Point3D],
    pcache: u64,
    stop: Stop,
    trace: bool,
    epoch: Instant,
) -> (RankLog, History, Vec<Point3D>) {
    let world = p.world();
    let v: MmVec<Point3D> =
        MmVec::open(rt, p, URL, VecOptions::new().pcache(pcache)).expect("open points");
    v.pgas(p, p.rank(), p.nprocs());
    let local = v.local_range();
    let tr = Tracer::new(trace, epoch, p.rank());
    let mut ks = init.to_vec();
    let mut history = Vec::new();
    let mut buf = vec![Point3D::default(); CHUNK];
    world.barrier(p);
    let mut log = RankLog::begin(p);
    loop {
        let mut done = false;
        let mut sync = 0;
        let used = ks.clone();
        let mut inertia = 0.0;
        let mut read = 0u64;
        log.op(p, &tr, || -> Result<(), MmError> {
            // acc: per cluster x, y, z sums and count; then the inertia,
            // the stop vote and the error flag.
            let mut acc = vec![0.0f64; K * 4 + 3];
            let sweep = (|| -> Result<(), MmError> {
                let tx = tr.span("txguard.begin", || {
                    v.tx(p, TxKind::seq(local.start, local.end - local.start), Access::ReadOnly)
                })?;
                let mut i = local.start;
                while i < local.end {
                    let n = CHUNK.min((local.end - i) as usize);
                    tr.read(|| v.cache_stats().misses, || v.read_into(p, i, &mut buf[..n]))?;
                    read += bytes_of::<Point3D>(n);
                    tr.span("workloads.compute", || {
                        for pt in &buf[..n] {
                            let (c, d2) = pt.nearest_centroid(&ks);
                            acc[c * 4] += pt.x as f64;
                            acc[c * 4 + 1] += pt.y as f64;
                            acc[c * 4 + 2] += pt.z as f64;
                            acc[c * 4 + 3] += 1.0;
                            acc[K * 4] += d2 as f64;
                        }
                        p.compute_flops(Point3D::nearest_flops(K) * n as u64);
                    });
                    i += n as u64;
                }
                tr.span("txguard.end", || tx.end())
            })();
            acc[K * 4 + 1] = f64::from(stop.reached(history.len() as u64 + 1));
            acc[K * 4 + 2] = f64::from(sweep.is_err());
            sync = p.now();
            let acc = tr.span("comm.allreduce", || world.allreduce_f64(p, &acc, ReduceOp::Sum));
            for (c, k) in ks.iter_mut().enumerate() {
                let cnt = acc[c * 4 + 3];
                if cnt > 0.0 {
                    *k = Point3D::new(
                        (acc[c * 4] / cnt) as f32,
                        (acc[c * 4 + 1] / cnt) as f32,
                        (acc[c * 4 + 2] / cnt) as f32,
                    );
                }
            }
            inertia = acc[K * 4];
            done = acc[K * 4 + 1] > 0.0;
            if acc[K * 4 + 2] > 0.0 {
                return Err(MmError::Incompatible("a rank's sweep failed".into()));
            }
            sweep
        });
        log.op_virt_sync.push(sync);
        log.io(read, 0);
        history.push((used, inertia));
        if done {
            break;
        }
    }
    log.finish(tr);
    (log, history, ks)
}

/// Check every op's inertia against `verify::ref_kmeans` from the same
/// centroids (1e-6 relative). Ops are collective, so a rank's op passes
/// exactly when the op of the same index passes.
fn check(inp: &Inputs, logs: &[RankLog], history: &History) -> Vec<Vec<bool>> {
    let mut memo: HashMap<Vec<u32>, f64> = HashMap::new();
    let ok: Vec<bool> = history
        .iter()
        .map(|(ks, got)| {
            let bits: Vec<u32> =
                ks.iter().flat_map(|k| [k.x, k.y, k.z]).map(f32::to_bits).collect();
            let want = *memo.entry(bits).or_insert_with(|| ref_kmeans(&inp.data.points, ks, 0).1);
            ((got - want) / want).abs() < 1e-6
        })
        .collect();
    logs.iter().map(|_| ok.clone()).collect()
}

/// The `kmeans-scan` workload.
pub struct KmeansScan;

impl crate::Workload for KmeansScan {
    type Inputs = Inputs;
    type Bench = Bench;
    type Record = History;
    const NAME: &'static str = "kmeans-scan";
    const REF_OPS: u64 = 10;

    fn inputs(seed: u64, size: Size) -> Inputs {
        inputs(seed, size)
    }
    fn setup(inp: &Inputs) -> Bench {
        setup(inp)
    }
    fn rt(b: &Bench) -> &Runtime {
        &b.rt
    }
    fn measure(b: &mut Bench, inp: &Inputs, stop: Stop, trace: bool) -> (Vec<RankLog>, History) {
        measure(b, inp, stop, trace)
    }
    fn check(_: &mut Bench, inp: &Inputs, logs: &[RankLog], h: &History) -> Vec<Vec<bool>> {
        check(inp, logs, h)
    }
    /// Peak DRAM-tier use plus the pcache bound of the one rank per node.
    fn model_dram_bytes(b: &Bench, inp: &Inputs) -> u64 {
        b.rt.peak_scache_dram() + inp.dims.pcache
    }
    fn describe(inp: &Inputs) -> String {
        let d = inp.dims;
        format!(
            "{} points ({:.1} MiB; {:.1} MiB per rank), pcache {} KiB per rank, DRAM tier {} MiB per node",
            d.points,
            bytes_of::<Point3D>(d.points) as f64 / MIB as f64,
            bytes_of::<Point3D>(d.points / 2) as f64 / MIB as f64,
            d.pcache >> 10,
            d.dram >> 20
        )
    }
}
