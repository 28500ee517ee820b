//! The phases every single-client workload runs: repeated set-up plus a
//! timed closed loop (`--trace 0`), or a fixed-length untraced phase for
//! exact counts followed by a traced phase for the layer split
//! (`--trace 1`).

use std::cell::Cell;
use std::time::{Duration, Instant};

use ocl_rt::{CommandQueue, Context, Device};

use crate::common::{Layers, LoopOut, Stop, L};
use crate::counts::{self, Snap};
use crate::probe::CtxSwitches;
use crate::report::Outcome;
use crate::Args;

/// A workload instance that can run one op.
pub trait Op {
    fn op(&mut self, l: &mut Layers) -> Result<(), String>;
}

/// `--trace 0`: build the workload `setups` times from scratch (`setup_s`
/// is the median), then run the last one closed-loop for the run length.
pub fn timed_run<W: Op>(
    args: &Args,
    setups: usize,
    lat_cap: usize,
    mut make: impl FnMut() -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        // The previous instance (and its pool) is gone before timing starts.
        drop(last.take());
        let t = Instant::now();
        last = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let mut w = last.expect("at least one set-up");
    let run = LoopOut::new(lat_cap, 0, args.seed).run(
        Stop::After(Duration::from_secs_f64(args.seconds)),
        |l| w.op(l),
        || {},
    );
    let mut o = Outcome::default();
    o.end_to_end(times, &[run]);
    Ok(o)
}

/// Untraced, fixed-length phase: exact per-op counts over `ops` ops
/// (each making `launches_per_op` kernel launches) and the untraced
/// latency and layer records the traced phase is compared with.
pub fn count_phase<W: Op>(
    o: &mut Outcome,
    w: &mut W,
    dev: &Device,
    ctxs: &[&Context],
    ops: u64,
    launches_per_op: u64,
    seed: u64,
) -> LoopOut {
    let out = LoopOut::new(ops as usize, ops as usize, seed);
    let cs0 = CtxSwitches::now();
    let a = Snap::take(dev, ctxs);
    let out = out.run(Stop::Ops(ops), |l| w.op(l), || {});
    settle();
    let b = Snap::take(dev, ctxs);
    let cs = CtxSwitches::now().since(cs0);
    counts::per_op(o, &a, &b, cs, ops, ops * launches_per_op);
    o.absorb(&out);
    copy_rate(o, &out);
    counts::alloc_medians(o, &out, launches_per_op, false);
    out
}

/// Let claim tasks the host no longer waits for finish on the pool, so
/// task counts cover exactly the phase's launches.
pub fn settle() {
    std::thread::sleep(Duration::from_millis(20));
}

/// `mem.copy_gb_per_s`: bytes the transfer engine copied per op over the
/// wall time of the copy calls per op, both from the untraced phase.
pub fn copy_rate(o: &mut Outcome, untraced: &LoopOut) {
    let n = untraced.traced.len().max(1) as f64;
    let copy_ns: f64 = untraced
        .traced
        .iter()
        .map(|(_, l)| l.get(L::Copy) as f64)
        .sum::<f64>()
        / n;
    let bytes = o
        .values
        .get("mem.bytes_copied_per_op")
        .copied()
        .unwrap_or(0.0);
    if copy_ns > 0.0 {
        o.set("mem.copy_gb_per_s", bytes / copy_ns);
    }
}

/// Traced, fixed-length phase on `q` (a queue with tracing on): chunk
/// spans per launch and the traced median, reported beside the layer split
/// of the untraced phase. `partition` lists the layers that add up to an op.
pub fn traced_phase<W: Op>(
    o: &mut Outcome,
    w: &mut W,
    q: &CommandQueue,
    untraced: &LoopOut,
    ops: u64,
    partition: &[L],
    seed: u64,
) {
    counts::drain_spans(q);
    let spans = Cell::new((0u64, 0u64));
    let tr = LoopOut::new(ops as usize, ops as usize, seed).run(
        Stop::Ops(ops),
        |l| w.op(l),
        || {
            let (la, ch) = counts::drain_spans(q);
            let (x, y) = spans.get();
            spans.set((x + la, y + ch));
        },
    );
    o.absorb(&tr);
    let (launches, chunks) = spans.get();
    counts::chunks(o, launches, chunks);
    counts::layer_split(o, untraced, &tr, partition);
}
