//! `grayscott-ckpt`: a 3-D Gray-Scott run that checkpoints every step.
//!
//! 2 nodes × 1 rank. U and V are double-buffered `obj://` vectors with the
//! write-ahead journal on. Each rank owns a z-slab: it reads the previous
//! step's slab plus the two halo planes the other rank wrote, writes its
//! slab of the next step under `WriteLocal`, then joins an allreduce of
//! the step's sums (the step's barrier), after which rank 0 issues a
//! `flush_async` checkpoint of the new grid. One op is one rank's time
//! step. Writes sit beside reads, so commits, copy-on-write promotes, the
//! stager and the journal are all exercised.
//!
//! Every `run_steps` steps the simulation restarts from its initial field
//! (held in two more vectors), so checking a run of any length against the
//! reference costs at most `2 * run_steps` reference steps.

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::comm::ReduceOp;
use megammap_cluster::{Cluster, ClusterSpec, Proc};
use megammap_formats::DataUrl;
use megammap_sim::KIB;
use megammap_workloads::verify::ref_gray_scott_step;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{bytes_of, RankLog, Stop};
use crate::trace::Tracer;
use crate::Size;

/// Pearson's coefficients, as in `megammap_workloads::gray_scott`.
const DU: f64 = 0.2;
const DV: f64 = 0.1;
const F: f64 = 0.025;
const KILL: f64 = 0.055;
const DT: f64 = 0.5;
/// Unmeasured steps in the set-up.
const WARM_STEPS: u64 = 20;
const FIELDS: [[&str; 2]; 2] =
    [["obj://gs/run.u0", "obj://gs/run.u1"], ["obj://gs/run.v0", "obj://gs/run.v1"]];
/// The initial U and V, read by each run's first step.
const INIT: [&str; 2] = ["obj://gs/init.u", "obj://gs/init.v"];

/// Sizes of one instance.
#[derive(Debug, Clone, Copy)]
struct Dims {
    /// Grid side.
    pub l: usize,
    /// pcache bound per vector per rank (bytes).
    pub pcache: u64,
    /// Steps per simulation run.
    pub run_steps: u64,
}

fn dims(size: Size) -> Dims {
    match size {
        // 48³ cells: 864 KiB per field, a 432 KiB slab per field per rank
        // against a 128 KiB pcache per vector.
        Size::Full => Dims { l: 48, pcache: 128 * KIB, run_steps: 200 },
        Size::Tiny => Dims { l: 16, pcache: 16 * KIB, run_steps: 4 },
    }
}

/// The generated inputs: the initial U and V fields, and the reference's
/// sums of U and V after each step of a run.
pub struct Inputs {
    dims: Dims,
    u0: Vec<f64>,
    v0: Vec<f64>,
    ref_sums: Vec<(f64, f64)>,
}

/// `u = 1, v = 0` except three seeded cubes of side `l/8` where
/// `u = 0.5, v = 0.25`.
fn inputs(seed: u64, size: Size) -> Inputs {
    let dims = dims(size);
    let l = dims.l;
    let mut u0 = vec![1.0; l * l * l];
    let mut v0 = vec![0.0; l * l * l];
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (l / 8).max(1);
    for _ in 0..3 {
        let c: [usize; 3] = [rng.gen_range(0..l), rng.gen_range(0..l), rng.gen_range(0..l)];
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    let i = idx(l, (c[0] + x) % l, (c[1] + y) % l, (c[2] + z) % l);
                    u0[i] = 0.5;
                    v0[i] = 0.25;
                }
            }
        }
    }
    let mut ref_sums = Vec::new();
    evolve(&u0, &v0, l, dims.run_steps, |u, v| ref_sums.push((u.iter().sum(), v.iter().sum())));
    Inputs { dims, u0, v0, ref_sums }
}

fn idx(l: usize, x: usize, y: usize, z: usize) -> usize {
    (z * l + y) * l + x
}

/// Advance `steps` reference steps from `(u, v)`, calling `each` after
/// every step; returns the final fields.
fn evolve(
    u: &[f64],
    v: &[f64],
    l: usize,
    steps: u64,
    mut each: impl FnMut(&[f64], &[f64]),
) -> (Vec<f64>, Vec<f64>) {
    let (mut u, mut v) = (u.to_vec(), v.to_vec());
    for _ in 0..steps {
        (u, v) = ref_gray_scott_step(&u, &v, l, DU, DV, F, KILL, DT);
        each(&u, &v);
    }
    (u, v)
}

/// A deployed instance.
pub struct Bench {
    cluster: Cluster,
    rt: Runtime,
    /// Steps run so far (set-up included).
    steps: u64,
}

fn open(rt: &Runtime, p: &Proc, url: &str, d: Dims) -> MmVec<f64> {
    let cells = (d.l * d.l * d.l) as u64;
    MmVec::open(rt, p, url, VecOptions::new().len(cells).pcache(d.pcache)).expect("open field")
}

fn slab(l: usize, p: &Proc) -> (usize, usize) {
    (l * p.rank() / p.nprocs(), l * (p.rank() + 1) / p.nprocs())
}

/// Deploy with the journal on, write the initial fields slab by slab and
/// run `WARM_STEPS` unmeasured steps.
fn setup(inp: &Inputs) -> Bench {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_journal(true));
    let d = inp.dims;
    let plane = d.l * d.l;
    cluster.run(|p| {
        let (z0, z1) = slab(d.l, p);
        for (vec, init) in
            [(open(&rt, p, INIT[0], d), &inp.u0), (open(&rt, p, INIT[1], d), &inp.v0)]
        {
            let span = TxKind::seq((z0 * plane) as u64, ((z1 - z0) * plane) as u64);
            let tx = vec.tx(p, span, Access::WriteLocal).expect("begin init tx");
            vec.write_slice(p, (z0 * plane) as u64, &init[z0 * plane..z1 * plane]).expect("init");
            tx.end().expect("end init tx");
        }
        p.world().barrier(p);
    });
    let mut b = Bench { cluster, rt, steps: 0 };
    let (logs, _) = measure(&mut b, inp, Stop::Ops(WARM_STEPS), false);
    assert!(logs.iter().all(|l| l.err_ops.is_empty()), "warm-up steps failed");
    b
}

/// Per op (the same on every rank): the step's global sums of U and V.
pub type History = Vec<(f64, f64)>;

fn measure(b: &mut Bench, inp: &Inputs, stop: Stop, trace: bool) -> (Vec<RankLog>, History) {
    let rt = b.rt.clone();
    let first = b.steps;
    let d = inp.dims;
    let epoch = Instant::now();
    let (outs, _) = b.cluster.run(|p| rank_loop(p, &rt, d, first, stop, trace, epoch));
    let mut logs = Vec::new();
    let mut history = Vec::new();
    for (log, h) in outs {
        logs.push(log);
        if history.is_empty() {
            history = h;
        }
    }
    b.steps += history.len() as u64;
    (logs, history)
}

#[allow(clippy::too_many_arguments)]
fn rank_loop(
    p: &Proc,
    rt: &Runtime,
    d: Dims,
    first: u64,
    stop: Stop,
    trace: bool,
    epoch: Instant,
) -> (RankLog, History) {
    let l = d.l;
    let plane = l * l;
    let world = p.world();
    let u = [open(rt, p, FIELDS[0][0], d), open(rt, p, FIELDS[0][1], d)];
    let v = [open(rt, p, FIELDS[1][0], d), open(rt, p, FIELDS[1][1], d)];
    let init = [open(rt, p, INIT[0], d), open(rt, p, INIT[1], d)];
    let (z0, z1) = slab(l, p);
    let tr = Tracer::new(trace, epoch, p.rank());
    let mut history = Vec::new();
    let mut ub = [vec![0.0f64; plane], vec![0.0f64; plane], vec![0.0f64; plane]];
    let mut vb = [vec![0.0f64; plane], vec![0.0f64; plane], vec![0.0f64; plane]];
    let mut uo = vec![0.0f64; plane];
    let mut vo = vec![0.0f64; plane];
    world.barrier(p);
    let mut log = RankLog::begin(p);
    loop {
        let step = first + history.len() as u64;
        let nxt = ((step + 1) % 2) as usize;
        let (u_cur, v_cur) = if step.is_multiple_of(d.run_steps) {
            (&init[0], &init[1])
        } else {
            (&u[(step % 2) as usize], &v[(step % 2) as usize])
        };
        let mut sums = (0.0, 0.0);
        let mut done = false;
        let mut sync = 0;
        let (mut read, mut written) = (0u64, 0u64);
        log.op(p, &tr, || -> Result<(), MmError> {
            // acc: sum of U, sum of V, the stop vote, the error flag.
            let mut acc = [0.0f64; 4];
            let body = (|| -> Result<(), MmError> {
                let span = TxKind::seq((z0 * plane) as u64, ((z1 - z0) * plane) as u64);
                let txs = [
                    begin(&tr, u_cur, p, span, Access::ReadOnly)?,
                    begin(&tr, v_cur, p, span, Access::ReadOnly)?,
                    begin(&tr, &u[nxt], p, span, Access::WriteLocal)?,
                    begin(&tr, &v[nxt], p, span, Access::WriteLocal)?,
                ];
                let mut read_plane = |vec: &MmVec<f64>, z: usize, buf: &mut Vec<f64>| {
                    let at = (((z + l) % l) * plane) as u64;
                    read += bytes_of::<f64>(plane);
                    tr.read(|| vec.cache_stats().misses, || vec.read_into(p, at, buf))
                };
                read_plane(u_cur, z0 + l - 1, &mut ub[0])?;
                read_plane(u_cur, z0, &mut ub[1])?;
                read_plane(v_cur, z0 + l - 1, &mut vb[0])?;
                read_plane(v_cur, z0, &mut vb[1])?;
                for z in z0..z1 {
                    read_plane(u_cur, z + 1, &mut ub[2])?;
                    read_plane(v_cur, z + 1, &mut vb[2])?;
                    tr.span("workloads.compute", || {
                        step_plane(l, &ub, &vb, &mut uo, &mut vo);
                        acc[0] += uo.iter().sum::<f64>();
                        acc[1] += vo.iter().sum::<f64>();
                        p.compute_flops(
                            megammap_workloads::gray_scott::GsConfig::FLOPS_PER_CELL * plane as u64,
                        );
                    });
                    let at = (z * plane) as u64;
                    tr.span("vector.write", || u[nxt].write_slice(p, at, &uo))?;
                    tr.span("vector.write", || v[nxt].write_slice(p, at, &vo))?;
                    written += 2 * bytes_of::<f64>(plane);
                    ub.rotate_left(1);
                    vb.rotate_left(1);
                }
                for tx in txs {
                    tr.span("txguard.end", || tx.end())?;
                }
                Ok(())
            })();
            acc[2] = f64::from(stop.reached(history.len() as u64 + 1));
            acc[3] = f64::from(body.is_err());
            sync = p.now();
            let acc = tr.span("comm.allreduce", || world.allreduce_f64(p, &acc, ReduceOp::Sum));
            sums = (acc[0], acc[1]);
            done = acc[2] > 0.0;
            if acc[3] > 0.0 {
                return Err(MmError::Incompatible("a rank's step failed".into()));
            }
            // Checkpoint the fresh grid while the next step computes.
            if p.rank() == 0 {
                tr.span("stager.flush", || {
                    u[nxt].flush_async(p)?;
                    v[nxt].flush_async(p)
                })?;
            }
            body
        });
        log.op_virt_sync.push(sync);
        log.io(read, written);
        history.push(sums);
        if done {
            break;
        }
    }
    log.finish(tr);
    (log, history)
}

fn begin<'v>(
    tr: &Tracer,
    vec: &'v MmVec<f64>,
    p: &'v Proc,
    span: TxKind,
    access: Access,
) -> Result<TxScope<'v, f64>, MmError> {
    tr.span("txguard.begin", || vec.tx(p, span, access))
}

/// One output plane from three input planes of each field (below, mid,
/// above), in the summation order of `verify::ref_gray_scott_step`.
/// (`megammap_workloads::gray_scott::step_plane` computes the same stencil
/// but is private to its crate.)
fn step_plane(l: usize, u: &[Vec<f64>; 3], v: &[Vec<f64>; 3], uo: &mut [f64], vo: &mut [f64]) {
    for y in 0..l {
        for x in 0..l {
            let c = y * l + x;
            let xp = y * l + (x + 1) % l;
            let xm = y * l + (x + l - 1) % l;
            let yp = ((y + 1) % l) * l + x;
            let ym = ((y + l - 1) % l) * l + x;
            let lap = |g: &[Vec<f64>; 3]| {
                g[1][xp] + g[1][xm] + g[1][yp] + g[1][ym] + g[2][c] + g[0][c] - 6.0 * g[1][c]
            };
            let (uc, vc) = (u[1][c], v[1][c]);
            let uvv = uc * vc * vc;
            uo[c] = uc + DT * (DU * lap(u) - uvv + F * (1.0 - uc));
            vo[c] = vc + DT * (DV * lap(v) + uvv - (F + KILL) * vc);
        }
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Check every step's global sums against `verify::ref_gray_scott_step`
/// (1e-9 relative), then wait for the last checkpoint and check that the
/// backend objects hold the reference's final fields. A checkpoint that
/// does not match fails every rank's last op.
fn check(b: &mut Bench, inp: &Inputs, logs: &[RankLog], history: &History) -> Vec<Vec<bool>> {
    let d = inp.dims;
    let first = b.steps - history.len() as u64;
    // Index into `ref_sums` of global step `s`: the step's place in its run.
    let in_run = |s: u64| (s % d.run_steps) as usize;
    let mut ok: Vec<bool> = history
        .iter()
        .enumerate()
        .map(|(k, (su, sv))| {
            let (ru, rv) = inp.ref_sums[in_run(first + k as u64)];
            close(*su, ru, 1e-9) && close(*sv, rv, 1e-9)
        })
        .collect();
    let last = (b.steps % 2) as usize;
    let rt = b.rt.clone();
    b.cluster.run(|p| {
        if p.rank() == 0 {
            open(&rt, p, FIELDS[0][last], d).flush_wait(p).expect("checkpoint u");
            open(&rt, p, FIELDS[1][last], d).flush_wait(p).expect("checkpoint v");
        }
        p.world().barrier(p);
    });
    let steps = in_run(b.steps - 1) as u64 + 1;
    let (u, v) = evolve(&inp.u0, &inp.v0, d.l, steps, |_, _| {});
    let ckpt_ok = [(FIELDS[0][last], &u), (FIELDS[1][last], &v)].iter().all(|(url, want)| {
        let obj = rt.backends().open(&DataUrl::parse(url).expect("valid url")).expect("object");
        let bytes = megammap_formats::object::read_all(obj.as_ref()).expect("read checkpoint");
        bytes.len() == want.len() * 8
            && bytes
                .chunks_exact(8)
                .zip(want.iter())
                .all(|(c, w)| close(f64::from_le_bytes(c.try_into().expect("8 bytes")), *w, 1e-12))
    });
    if let Some(o) = ok.last_mut() {
        *o &= ckpt_ok;
    }
    logs.iter().map(|_| ok.clone()).collect()
}

/// The `grayscott-ckpt` workload.
pub struct GrayScottCkpt;

impl crate::Workload for GrayScottCkpt {
    type Inputs = Inputs;
    type Bench = Bench;
    type Record = History;
    const NAME: &'static str = "grayscott-ckpt";
    const REF_OPS: u64 = 100;

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
    fn check(b: &mut Bench, inp: &Inputs, logs: &[RankLog], h: &History) -> Vec<Vec<bool>> {
        check(b, inp, logs, h)
    }
    /// Peak DRAM-tier use plus the pcache bounds of the node's one rank
    /// (six vectors).
    fn model_dram_bytes(b: &Bench, inp: &Inputs) -> u64 {
        b.rt.peak_scache_dram() + 6 * inp.dims.pcache
    }
    fn describe(inp: &Inputs) -> String {
        let d = inp.dims;
        let field = bytes_of::<f64>(d.l * d.l * d.l);
        format!(
            "{}^3 grid, 4 fields of {} KiB ({} KiB slab per rank) plus the initial U and V, \
             pcache {} KiB per vector per rank, DRAM tier 48 MiB per node, restart every {} steps",
            d.l,
            field >> 10,
            (field / 2) >> 10,
            d.pcache >> 10,
            d.run_steps
        )
    }
}
