//! `launch-storm`: one host thread issues back-to-back blocking enqueues of
//! one small NULL-local kernel on a default in-order queue, so runtime
//! overhead (API/plan → pool wake → completion) is almost all of an op.

use std::sync::Arc;

use cl_kernels::apps::square::{self, Square};
use cl_kernels::util::random_f32;
use ocl_rt::{Buffer, CommandQueue, Context, Kernel, MemFlags, NDRange};

use crate::common::{
    api_us, check_f32, context, derive, device, median_f64, queue_config, timed, Host, Layers, L,
};
use crate::drive::{self, Op};
use crate::report::Outcome;
use crate::Args;

/// Work-items per launch: enough that NULL-local resolution still yields
/// several workgroups and chunks, few enough that the SIMD body keeps
/// compute far below the launch overhead. At 2048 items the share of
/// launches in which the host waits on the worker's last chunk (and sleeps
/// in `help_until`) swung between 1% and 7% from second to second; at 1024
/// it stays near or below 1%.
pub const ITEMS: usize = 1024;
/// Launches per op, as the paper repeats a launch until the total time is
/// significant (Section III-A). Small enough that most bursts hold none of
/// the rare ~75 µs launches that wait on the worker, so the median op stays
/// in the common case.
pub const BURST: usize = 16;
/// Warm-up ops in each set-up; the first launch builds the plans.
const WARMUP: usize = 8;
/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untraced ops whose counters give the exact per-launch counts.
const COUNT_OPS: u64 = 8_000;
/// Traced ops for chunk counts and the tracing overhead.
const TRACED_OPS: u64 = 4_000;
const LAT_CAP: usize = 1 << 20;

/// `square` over one output buffer, alternating between two input
/// buffers: consecutive launches produce different outputs, so a launch
/// that did not run fails verification.
pub struct Storm {
    pub q: CommandQueue,
    kernels: [Arc<dyn Kernel>; 2],
    pub out: Buffer<f32>,
    want: [Vec<f32>; 2],
    next: usize,
}

impl Storm {
    /// Build both kernel instances and make the warm-up launches. Returns the
    /// plan-miss cost, µs: API time (submitted − queued) of the first
    /// enqueue − median of the steady ones.
    pub fn new(ctx: &Context, seed: u64, tracing: bool) -> Result<(Storm, f64), String> {
        let err = |e: ocl_rt::ClError| e.to_string();
        let q = ctx.queue_with(queue_config(tracing, false));
        let out = ctx.buffer::<f32>(MemFlags::default(), ITEMS).map_err(err)?;
        let hosts = [0, 1].map(|k| random_f32(derive(seed, 0x5701 + k), ITEMS, -2.0, 2.0));
        let mut kernels = Vec::with_capacity(2);
        for h in &hosts {
            let input = ctx.buffer::<f32>(MemFlags::default(), ITEMS).map_err(err)?;
            q.write_buffer(&input, 0, h).map_err(err)?;
            kernels.push(Arc::new(Square {
                input,
                output: out.clone(),
                n: ITEMS,
                items_per_wi: 1,
            }) as Arc<dyn Kernel>);
        }
        let mut s = Storm {
            q,
            kernels: kernels.try_into().map_err(|_| "two kernels")?,
            out,
            want: hosts.map(|h| square::reference(&h)),
            next: 0,
        };
        let mut api = Vec::with_capacity(WARMUP * BURST);
        for _ in 0..WARMUP {
            s.burst(&mut Layers::default(), |us| api.push(us))?;
        }
        // One plan per kernel instance: the first launch of each misses.
        let miss = (api[0] + api[1]) / 2.0 - median_f64(api[2..].to_vec());
        Ok((s, miss))
    }

    /// [`BURST`] blocking enqueues, each followed by a check of the whole
    /// output against the serial reference; `api(us)` sees each launch's
    /// API time.
    fn burst(&mut self, l: &mut Layers, mut api: impl FnMut(f64)) -> Result<(), String> {
        for _ in 0..BURST {
            let k = self.next & 1;
            self.next += 1;
            let (res, call) =
                l.launch(|| self.q.enqueue_kernel(&self.kernels[k], NDRange::d1(ITEMS)));
            let ev = res.map_err(|e| e.to_string())?;
            api(api_us(&ev));
            l.add_launch(&ev, call, L::Return);
            timed(l, L::Verify, || {
                let view = self.out.view();
                let got = view.slice(0, ITEMS);
                if got == self.want[k].as_slice() {
                    return Ok(());
                }
                check_f32("square", got, &self.want[k], 1e-5, 1e-5)?;
                Err("square: output differs from the reference".to_string())
            })?;
        }
        Ok(())
    }
}

impl Op for Storm {
    fn op(&mut self, l: &mut Layers) -> Result<(), String> {
        self.burst(l, |_| {})
    }
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    if !args.trace {
        return drive::timed_run(args, SETUPS, LAT_CAP, || {
            let ctx = context(&device(host.workers));
            Storm::new(&ctx, args.seed, false).map(|(s, _)| s)
        });
    }
    let mut o = Outcome::default();
    let dev = device(host.workers);
    let ctx = context(&dev);
    let (mut plain, miss) = Storm::new(&ctx, args.seed, false)?;
    let (mut traced, _) = Storm::new(&ctx, args.seed, true)?;
    o.set("queue.plan_miss_us", miss);
    let launches = BURST as u64;
    let untraced = drive::count_phase(
        &mut o,
        &mut plain,
        &dev,
        &[&ctx],
        COUNT_OPS,
        launches,
        args.seed,
    );
    let q = traced.q.clone();
    let partition = [L::Api, L::Wake, L::Run, L::Return, L::Verify];
    drive::traced_phase(
        &mut o,
        &mut traced,
        &q,
        &untraced,
        TRACED_OPS,
        &partition,
        args.seed,
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{LoopOut, Stop};
    use ocl_rt::GroupCtx;

    /// `square` that corrupts one element of its output on every launch.
    struct Corrupting {
        inner: Square,
        index: usize,
    }

    impl Kernel for Corrupting {
        fn name(&self) -> &str {
            "square"
        }

        fn run_group(&self, g: &mut GroupCtx) {
            self.inner.run_group(g);
            let base = g.group_id(0) * g.local_size(0);
            if (base..base + g.local_size(0)).contains(&self.index) {
                let out = self.inner.output.view_mut();
                out.set(self.index, out.get(self.index) + 1.0);
            }
        }
    }

    /// A corrupted output buffer is reported as a failed op; a healthy
    /// kernel keeps passing.
    #[test]
    fn corrupted_output_is_a_failed_op() {
        let dev = device(1);
        let ctx = context(&dev);
        let (mut good, _) = Storm::new(&ctx, 3, false).unwrap();
        let run = LoopOut::new(16, 0, 3).run(Stop::Ops(3), |l| good.op(l), || {});
        assert_eq!((run.attempted, run.failed), (3, 0));

        let host = random_f32(9, ITEMS, -2.0, 2.0);
        let input = ctx.buffer_from(MemFlags::default(), &host).unwrap();
        let out = ctx.buffer::<f32>(MemFlags::default(), ITEMS).unwrap();
        let square = || Square {
            input: input.clone(),
            output: out.clone(),
            n: ITEMS,
            items_per_wi: 1,
        };
        let kernels: [Arc<dyn Kernel>; 2] = [
            Arc::new(square()),
            Arc::new(Corrupting {
                inner: square(),
                index: 17,
            }),
        ];
        let want = [square::reference(&host), square::reference(&host)];
        let mut bad = Storm {
            q: ctx.queue_with(queue_config(false, false)),
            kernels,
            out: out.clone(),
            want,
            next: 0,
        };
        let run = LoopOut::new(16, 0, 3).run(Stop::Ops(3), |l| bad.op(l), || {});
        assert_eq!((run.attempted, run.failed), (3, 3));
        let err = run.first_error.unwrap();
        assert!(err.contains("index 17"), "{err}");
    }
}
