//! Tiny-size runs of every workload: tracing must not change what the
//! program computes or counts, every output check must pass on two seeds,
//! and the checks must reject a wrong output.

use perfbench::common::Stop;
use perfbench::grayscott::GrayScottCkpt;
use perfbench::kmeans::KmeansScan;
use perfbench::tiered::TieredRandom;
use perfbench::{per_layer, phase, trace, Phase, Size, Workload};

const OPS: u64 = 6;

fn fixed<W: Workload>(seed: u64, traced: bool) -> (Phase, W::Record) {
    let inp = W::inputs(seed, Size::Tiny);
    let mut b = W::setup(&inp);
    phase::<W>(&mut b, &inp, Stop::Ops(OPS), traced)
}

/// Counters that vary between identical untraced runs at this commit: on
/// `grayscott-ckpt` they depend on whether the asynchronous checkpoint still
/// shares a page, or holds its ownership, when the next step rewrites it.
/// Every other counter repeated exactly over 64 runs of each workload.
const TIMING_DEPENDENT: [&str; 3] =
    ["runtime.bytes_copied", "runtime.owner_fast_hits", "runtime.owner_fast_misses"];

fn traced_equals_untraced<W: Workload>()
where
    W::Record: PartialEq + std::fmt::Debug,
{
    let (a, rec_a) = fixed::<W>(1, false);
    let (b, rec_b) = fixed::<W>(1, false);
    let (t, rec_t) = fixed::<W>(1, true);
    for ph in [&a, &b, &t] {
        assert_eq!(ph.attempted(), 2 * OPS, "{}: every rank ran {OPS} ops", W::NAME);
        assert_eq!(ph.failed(), 0, "{}: every op passed its check", W::NAME);
    }
    assert_eq!(rec_a, rec_b, "{}: untraced outputs repeat", W::NAME);
    assert_eq!(rec_a, rec_t, "{}: tracing changed the outputs", W::NAME);
    for k in a.counters.map.keys().filter(|k| !TIMING_DEPENDENT.contains(k)) {
        assert_eq!(a.counters.get(k), b.counters.get(k), "{}: {k} did not repeat", W::NAME);
        assert_eq!(a.counters.get(k), t.counters.get(k), "{}: tracing changed {k}", W::NAME);
    }
    assert!(a.spans().next().is_none(), "untraced runs record no spans");
    for log in &t.logs {
        let selfs = trace::self_times(&log.spans);
        assert_eq!(trace::reconcile(&log.spans, &selfs), Ok(OPS as usize), "{}", W::NAME);
    }
    let (m, reconciled) = per_layer(&a, &t);
    assert!(reconciled.is_ok());
    assert!(m["vector.read_s"].0 > 0.0, "{}: reads were traced", W::NAME);
}

#[test]
fn kmeans_scan_tracing_is_transparent() {
    traced_equals_untraced::<KmeansScan>();
}

#[test]
fn grayscott_ckpt_tracing_is_transparent() {
    traced_equals_untraced::<GrayScottCkpt>();
}

#[test]
fn tiered_random_tracing_is_transparent() {
    traced_equals_untraced::<TieredRandom>();
}

#[test]
fn a_second_seed_passes_every_check() {
    for seed in [2, 7] {
        assert_eq!(fixed::<KmeansScan>(seed, false).0.failed(), 0);
        assert_eq!(fixed::<GrayScottCkpt>(seed, false).0.failed(), 0);
        assert_eq!(fixed::<TieredRandom>(seed, false).0.failed(), 0);
    }
}

#[test]
fn checks_reject_wrong_outputs() {
    let inp = <KmeansScan as Workload>::inputs(1, Size::Tiny);
    let mut b = KmeansScan::setup(&inp);
    let (logs, mut hist) = KmeansScan::measure(&mut b, &inp, Stop::Ops(3), false);
    hist[1].1 *= 1.0 + 1e-5;
    let ok = KmeansScan::check(&mut b, &inp, &logs, &hist);
    assert_eq!(ok[0], vec![true, false, true]);

    let inp = <GrayScottCkpt as Workload>::inputs(1, Size::Tiny);
    let mut b = GrayScottCkpt::setup(&inp);
    let (logs, mut hist) = GrayScottCkpt::measure(&mut b, &inp, Stop::Ops(3), false);
    hist[0].1 += 1e-3;
    let ok = GrayScottCkpt::check(&mut b, &inp, &logs, &hist);
    assert_eq!(ok[1], vec![false, true, true]);
}
