//! `fig9-chain`: one op is a round of independent Figure 9 producer →
//! consumer chains (`vectoradd` then `square` on its output) submitted to
//! an out-of-order queue, each consumer waiting on its producer's event.
//! Inputs are written by copy; results are read by `map_buffer` and
//! verified. Rounds alternate between two input sets, so a stale result is
//! caught.

use std::sync::Arc;

use cl_kernels::apps::square::{self, Square};
use cl_kernels::apps::vectoradd::{self, VectorAdd};
use cl_kernels::util::random_f32;
use ocl_rt::{
    AffinityExecutor, Buffer, CommandQueue, Context, EventRef, Kernel, MemFlags, NDRange,
};

use crate::common::{
    check_f32, context, derive, device, median_f64, queue_config, timed, Host, Layers, L,
};
use crate::drive::{self, Op};
use crate::report::Outcome;
use crate::Args;

/// Independent chains per round.
pub const CHAINS: usize = 4;
/// Items per kernel: 128 Ki floats.
pub const ITEMS: usize = 128 * 1024;
const SETUPS: usize = 25;
/// Verified warm-up rounds in each set-up; the first builds the plans.
const WARMUP: usize = 4;
const COUNT_OPS: u64 = 4_000;
const TRACED_OPS: u64 = 2_000;
const LAT_CAP: usize = 1 << 20;
/// Figure 9 affinity probe: elements per core and launches per placement.
const AFFINITY_PER_CORE: usize = 32 * 1024;
const AFFINITY_REPS: usize = 200;

struct Link {
    a: Buffer<f32>,
    b: Buffer<f32>,
    d: Buffer<f32>,
    producer: Arc<dyn Kernel>,
    consumer: Arc<dyn Kernel>,
    sets: [(Vec<f32>, Vec<f32>); 2],
    want: [Vec<f32>; 2],
}

/// The chains, plus sums the traced run turns into scheduler metrics.
pub struct Chain {
    pub q: CommandQueue,
    links: Vec<Link>,
    pending: Vec<(EventRef, EventRef)>,
    round: usize,
    /// Σ consumer started − producer completed.
    release_ns: u64,
    /// Σ producer + consumer execution time.
    exec_ns: u64,
    /// Σ round wall time.
    wall_ns: u64,
    chains_done: u64,
}

fn err(e: ocl_rt::ClError) -> String {
    e.to_string()
}

impl Chain {
    /// Build the chains and make the warm-up rounds. Returns the plan-miss
    /// cost, µs: submit-call time of the first round (plans built inside
    /// `submit_kernel`) − median of the steady rounds.
    pub fn new(ctx: &Context, seed: u64, tracing: bool) -> Result<(Chain, f64), String> {
        let q = ctx.queue_with(queue_config(tracing, true));
        let mut links = Vec::with_capacity(CHAINS);
        for i in 0..CHAINS {
            let buf = || ctx.buffer::<f32>(MemFlags::default(), ITEMS).map_err(err);
            let (a, b, c, d) = (buf()?, buf()?, buf()?, buf()?);
            let producer: Arc<dyn Kernel> = Arc::new(VectorAdd {
                a: a.clone(),
                b: b.clone(),
                c: c.clone(),
                n: ITEMS,
                items_per_wi: 1,
            });
            let consumer: Arc<dyn Kernel> = Arc::new(Square {
                input: c,
                output: d.clone(),
                n: ITEMS,
                items_per_wi: 1,
            });
            let set = |k: u64| {
                let salt = (i as u64) * 4 + k * 2;
                (
                    random_f32(derive(seed, salt), ITEMS, -3.0, 3.0),
                    random_f32(derive(seed, salt + 1), ITEMS, -3.0, 3.0),
                )
            };
            let sets = [set(0), set(1)];
            let want =
                [0, 1].map(|k| square::reference(&vectoradd::reference(&sets[k].0, &sets[k].1)));
            links.push(Link {
                a,
                b,
                d,
                producer,
                consumer,
                sets,
                want,
            });
        }
        let mut s = Chain {
            q,
            links,
            pending: Vec::with_capacity(CHAINS),
            round: 0,
            release_ns: 0,
            exec_ns: 0,
            wall_ns: 0,
            chains_done: 0,
        };
        let mut rounds = Vec::with_capacity(WARMUP);
        for _ in 0..WARMUP {
            let mut l = Layers::default();
            s.op(&mut l)?;
            rounds.push(l.get(L::Submit) as f64 / 1e3);
        }
        (s.release_ns, s.exec_ns, s.wall_ns, s.chains_done) = (0, 0, 0, 0);
        Ok((s, rounds[0] - median_f64(rounds[1..].to_vec())))
    }
}

impl Op for Chain {
    fn op(&mut self, l: &mut Layers) -> Result<(), String> {
        let t0 = ocl_rt::now_ns();
        let k = self.round & 1;
        self.round += 1;
        let range = NDRange::d1(ITEMS);
        self.pending.clear();
        for link in &self.links {
            let (ha, hb) = &link.sets[k];
            timed(l, L::Copy, || {
                self.q.write_buffer(&link.a, 0, ha)?;
                self.q.write_buffer(&link.b, 0, hb)
            })
            .map_err(err)?;
            let (pair, ns) = l.launch(|| -> Result<_, ocl_rt::ClError> {
                let p = self.q.submit_kernel(&link.producer, range, &[])?;
                let c = self
                    .q
                    .submit_kernel(&link.consumer, range, std::slice::from_ref(&p))?;
                Ok((p, c))
            });
            l.add(L::Submit, ns);
            self.pending.push(pair.map_err(err)?);
        }
        for (p, c) in &self.pending {
            let cev = timed(l, L::Wait, || c.wait(None)).map_err(err)?;
            let pev = p.wait(None).map_err(err)?;
            let (pp, cp) = (pev.profiling(), cev.profiling());
            for p in [pp, cp] {
                l.add(L::Api, p.submitted_ns - p.queued_ns);
                l.add(L::Wake, p.started_ns - p.submitted_ns);
                l.add(L::Run, p.completed_ns - p.started_ns);
            }
            self.release_ns += cp.started_ns.saturating_sub(pp.completed_ns);
            self.exec_ns += (pp.completed_ns - pp.started_ns) + (cp.completed_ns - cp.started_ns);
            self.chains_done += 1;
        }
        for link in &self.links {
            let (map, _) = timed(l, L::Map, || self.q.map_buffer(&link.d)).map_err(err)?;
            let res = timed(l, L::Verify, || {
                check_f32("fig9 chain", &map, &link.want[k], 1e-5, 1e-5)
            });
            timed(l, L::Map, || drop(map));
            res?;
        }
        self.wall_ns += ocl_rt::now_ns() - t0;
        Ok(())
    }
}

/// Figure 9's placement experiment on the affinity executor: producer on
/// the aligned placement, consumer aligned or rotated by one core; median
/// consumer time of each. Failed launches or checks count as failed ops.
fn affinity(o: &mut Outcome, host: &Host, ctx: &Context, seed: u64) -> Result<(), String> {
    let cores = host.nproc;
    let ex = AffinityExecutor::new(cores).map_err(err)?;
    let n = cores * AFFINITY_PER_CORE;
    let buf = || ctx.buffer::<f32>(MemFlags::default(), n).map_err(err);
    let (a, b, c, d) = (buf()?, buf()?, buf()?, buf()?);
    let q = ctx.queue_with(queue_config(false, false));
    let (ha, hb) = (
        random_f32(derive(seed, 90), n, -3.0, 3.0),
        random_f32(derive(seed, 91), n, -3.0, 3.0),
    );
    q.write_buffer(&a, 0, &ha).map_err(err)?;
    q.write_buffer(&b, 0, &hb).map_err(err)?;
    let want = square::reference(&vectoradd::reference(&ha, &hb));
    let producer: Arc<dyn Kernel> = Arc::new(VectorAdd {
        a,
        b,
        c: c.clone(),
        n,
        items_per_wi: 1,
    });
    let consumer: Arc<dyn Kernel> = Arc::new(Square {
        input: c,
        output: d.clone(),
        n,
        items_per_wi: 1,
    });
    let range = NDRange::d1(n).local1(AFFINITY_PER_CORE);
    let mut times = [Vec::new(), Vec::new()];
    let mut got = vec![0f32; n];
    for rep in 0..2 * AFFINITY_REPS {
        let shift = rep % 2;
        let res = (|| -> Result<f64, String> {
            q.fill_buffer(&d, f32::NAN).map_err(err)?;
            ex.enqueue_kernel_bound(&producer, range, ex.aligned())
                .map_err(err)?;
            let ev = ex
                .enqueue_kernel_bound(&consumer, range, ex.rotated(shift))
                .map_err(err)?;
            q.read_buffer(&d, 0, &mut got).map_err(err)?;
            check_f32("fig9 affinity", &got, &want, 1e-5, 1e-5)?;
            Ok(ev.duration_s() * 1e6)
        })();
        o.attempted += 1;
        match res {
            Ok(us) => times[shift].push(us),
            Err(e) => {
                o.failed += 1;
                o.first_error.get_or_insert(e);
            }
        }
    }
    let [aligned, misaligned] = times;
    o.set("affinity.aligned_us", median_f64(aligned));
    o.set("affinity.misaligned_us", median_f64(misaligned));
    Ok(())
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    if !args.trace {
        return drive::timed_run(args, SETUPS, LAT_CAP, || {
            let ctx = context(&device(host.workers));
            Chain::new(&ctx, args.seed, false).map(|(s, _)| s)
        });
    }
    let mut o = Outcome::default();
    let dev = device(host.workers);
    let ctx = context(&dev);
    let (mut plain, miss) = Chain::new(&ctx, args.seed, false)?;
    o.set("queue.plan_miss_us", miss);
    let launches = 2 * CHAINS as u64;
    let untraced = drive::count_phase(
        &mut o,
        &mut plain,
        &dev,
        &[&ctx],
        COUNT_OPS,
        launches,
        args.seed,
    );
    o.set(
        "sched.release_us",
        plain.release_ns as f64 / plain.chains_done.max(1) as f64 / 1e3,
    );
    o.set(
        "sched.overlap",
        plain.exec_ns as f64 / plain.wall_ns.max(1) as f64,
    );
    let (mut traced, _) = Chain::new(&ctx, args.seed, true)?;
    let q = traced.q.clone();
    let partition = [L::Copy, L::Submit, L::Wait, L::Map, L::Verify];
    drive::traced_phase(
        &mut o,
        &mut traced,
        &q,
        &untraced,
        TRACED_OPS,
        &partition,
        args.seed,
    );
    affinity(&mut o, host, &ctx, args.seed)?;
    Ok(o)
}
