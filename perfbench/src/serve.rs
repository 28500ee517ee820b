//! `serve-mix`: `nproc` closed-loop client threads share 64 tenants with a
//! seeded weight mix. A request is `Tenant::write` → `Tenant::launch` of a
//! small kernel → `Tenant::read`, verified. The server keeps the default
//! serving configuration, so launches take the timed (watchdog) path, and
//! it has one gate slot per pool worker — fewer than client threads, so
//! the fairness gate really arbitrates. Refused or shed requests fail.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cl_kernels::apps::square::{self, Square};
use cl_kernels::util::random_f32;
use cl_serve::{RetryPolicy, ServeConfig, Server, StatsSnapshot, Tenant, TenantConfig};
use cl_util::rng::XorShift;
use ocl_rt::{Buffer, Context, Kernel, MemFlags, NDRange};

use crate::common::{
    api_us, check_f32, context, derive, device, percentile, queue_config, timed, Host, Layers,
    LoopOut, Stop, L,
};
use crate::counts::{self, Snap};
use crate::drive::{self, Op};
use crate::probe::CtxSwitches;
use crate::report::Outcome;
use crate::Args;

pub const TENANTS: usize = 64;
/// Items per request: 64 Ki floats (256 KiB) each way. Copies and compute
/// then outweigh the thread hand-offs of the timed path (watchdog spawn,
/// gate and latch waits), whose cost on the 2-vCPU host drifts with the
/// machine: at 16 Ki items the run-to-run spread of `ops_per_s` reached 23%.
pub const ITEMS: usize = 64 * 1024;
const WEIGHTS: [u32; 3] = [1, 2, 4];
const SETUPS: usize = 9;
/// Requests per tenant in the fixed-length count phase.
const COUNT_PER_TENANT: u64 = 150;
/// Launches on each probe queue for chunk counts and tracing overhead.
const PROBE_LAUNCHES: u64 = 4_000;
const LAT_CAP: usize = 1 << 20;

/// The server configuration, spelled out: `ServeConfig::default()` as of
/// this benchmark, so a later change of defaults shows as a change here.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        slots: None,
        max_waiting: 64,
        admit_timeout: None,
        launch_timeout: Some(Duration::from_secs(30)),
        tune: false,
        tuner: None,
    }
}

fn tenant_config(id: usize, weight: u32) -> TenantConfig {
    TenantConfig {
        name: Some(format!("t{id:02}")),
        weight,
        max_inflight: 32,
        max_pending_bytes: 64 << 20,
        retry: RetryPolicy::default(),
        fault_budget: None,
        launch_timeout: None,
        out_of_order: false,
    }
}

/// The two input sets every tenant alternates between, and their serial
/// references: consecutive requests of a tenant differ, so a stale result
/// is caught.
pub struct Inputs {
    sets: [Vec<f32>; 2],
    want: [Vec<f32>; 2],
}

impl Inputs {
    fn new(seed: u64) -> Arc<Inputs> {
        let sets = [0, 1].map(|k| random_f32(derive(seed, 0x5E0 + k), ITEMS, -2.0, 2.0));
        let want = [square::reference(&sets[0]), square::reference(&sets[1])];
        Arc::new(Inputs { sets, want })
    }
}

/// One tenant with its private buffers and kernel.
pub struct Slot {
    t: Tenant,
    input: Buffer<f32>,
    output: Buffer<f32>,
    kernel: Arc<dyn Kernel>,
    inputs: Arc<Inputs>,
    next: usize,
}

impl Slot {
    fn new(server: &Server, id: usize, weight: u32, inputs: &Arc<Inputs>) -> Result<Slot, String> {
        let t = server.tenant(tenant_config(id, weight));
        let err = |e: ocl_rt::ClError| e.to_string();
        let input = t.buffer::<f32>(MemFlags::default(), ITEMS).map_err(err)?;
        let output = t.buffer::<f32>(MemFlags::default(), ITEMS).map_err(err)?;
        let kernel: Arc<dyn Kernel> = Arc::new(Square {
            input: input.clone(),
            output: output.clone(),
            n: ITEMS,
            items_per_wi: 1,
        });
        Ok(Slot {
            t,
            input,
            output,
            kernel,
            inputs: Arc::clone(inputs),
            next: id,
        })
    }

    /// One request, reading the result into `got`; returns the launch's
    /// API time, µs.
    fn request(&mut self, l: &mut Layers, got: &mut [f32]) -> Result<f64, String> {
        let k = self.next & 1;
        self.next += 1;
        let err = |e: ocl_rt::ClError| e.to_string();
        let sets = &self.inputs.sets;
        timed(l, L::Copy, || self.t.write(&self.input, 0, &sets[k])).map_err(err)?;
        let (res, call) = l.launch(|| self.t.launch(&self.kernel, NDRange::d1(ITEMS)));
        let ev = res.map_err(err)?;
        l.add_launch(&ev, call, L::Serve);
        timed(l, L::Copy, || self.t.read(&self.output, 0, got)).map_err(err)?;
        timed(l, L::Verify, || {
            check_f32("square", got, &self.inputs.want[k], 1e-5, 1e-5)
        })?;
        Ok(api_us(&ev))
    }
}

/// A client thread's tenants, driven round-robin, and its result buffer.
pub struct Client {
    slots: Vec<Slot>,
    cursor: usize,
    got: Vec<f32>,
}

impl Op for Client {
    fn op(&mut self, l: &mut Layers) -> Result<(), String> {
        let i = self.cursor;
        self.cursor = (i + 1) % self.slots.len();
        self.slots[i].request(l, &mut self.got).map(|_| ())
    }
}

pub struct Mix {
    server: Server,
    clients: Vec<Client>,
}

impl Mix {
    /// Build the server and tenants and make two warm-up requests per
    /// tenant. Returns the mean plan-miss cost per tenant queue, µs: API
    /// time of the first launch − that of the second.
    pub fn new(host: &Host, seed: u64) -> Result<(Mix, f64), String> {
        let server = Server::with_device(device(host.workers), serve_config());
        let mut rng = XorShift::seed_from_u64(derive(seed, 0x5E_12E));
        let inputs = Inputs::new(seed);
        let mut clients: Vec<Client> = (0..host.nproc)
            .map(|_| Client {
                slots: Vec::new(),
                cursor: 0,
                got: vec![0.0; ITEMS],
            })
            .collect();
        let mut miss = Vec::with_capacity(TENANTS);
        for id in 0..TENANTS {
            let weight = WEIGHTS[rng.range_usize(0, WEIGHTS.len())];
            let mut slot = Slot::new(&server, id, weight, &inputs)?;
            let client = &mut clients[id % host.nproc];
            let first = slot.request(&mut Layers::default(), &mut client.got)?;
            let second = slot.request(&mut Layers::default(), &mut client.got)?;
            miss.push(first - second);
            client.slots.push(slot);
        }
        let miss = miss.iter().sum::<f64>() / miss.len() as f64;
        Ok((Mix { server, clients }, miss))
    }

    fn contexts(&self) -> Vec<&Context> {
        self.clients
            .iter()
            .flat_map(|c| c.slots.iter().map(|s| s.t.context()))
            .collect()
    }

    fn stats(&self) -> StatsSnapshot {
        let mut sum = StatsSnapshot::default();
        for s in self.clients.iter().flat_map(|c| &c.slots) {
            let st = s.t.stats();
            sum.launches += st.launches;
            sum.backpressure += st.backpressure;
            sum.shed += st.shed;
        }
        sum
    }
}

/// Run every client closed-loop on its own thread until `stop` (per
/// client), each with its own latency store. Returns the clients' results
/// and their context switches over the loop. `at_start`/`at_end` run on the
/// calling thread while every client waits at a barrier, so counter
/// snapshots taken there see only the clients' work.
fn drive_clients(
    clients: &mut [Client],
    stop: Stop,
    keep: usize,
    seed: u64,
    at_start: impl FnOnce(),
    at_end: impl FnOnce(),
) -> (Vec<LoopOut>, CtxSwitches) {
    let n = clients.len();
    let gate = Barrier::new(n + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let gate = &gate;
                s.spawn(move || {
                    let out = LoopOut::new(LAT_CAP, keep, seed ^ i as u64);
                    let cs0 = CtxSwitches::now();
                    gate.wait();
                    gate.wait();
                    let out = out.run(stop, |l| c.op(l), || {});
                    gate.wait();
                    gate.wait();
                    (out, CtxSwitches::now().since(cs0))
                })
            })
            .collect();
        gate.wait();
        at_start();
        gate.wait();
        gate.wait();
        at_end();
        gate.wait();
        let mut outs = Vec::with_capacity(n);
        let mut cs = CtxSwitches::default();
        for h in handles {
            let (out, c) = h.join().expect("client thread panicked");
            cs.voluntary += c.voluntary;
            cs.involuntary += c.involuntary;
            outs.push(out);
        }
        (outs, cs)
    })
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    if !args.trace {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(Mix::new(host, args.seed)?.0);
            times.push(t.elapsed().as_secs_f64());
        }
        let mut mix = last.expect("at least one set-up");
        let stop = Stop::After(Duration::from_secs_f64(args.seconds));
        let (outs, _) = drive_clients(&mut mix.clients, stop, 0, args.seed, || {}, || {});
        o.end_to_end(times, &outs);
        return Ok(o);
    }

    let (mut mix, miss) = Mix::new(host, args.seed)?;
    o.set("queue.plan_miss_us", miss);
    let dev = mix.server.device().clone();
    let per_client = COUNT_PER_TENANT * (TENANTS / host.nproc) as u64;
    let requests = per_client * host.nproc as u64;
    let ctxs: Vec<Context> = mix.contexts().into_iter().cloned().collect();
    let ctx_refs: Vec<&Context> = ctxs.iter().collect();
    let st0 = mix.stats();
    let (mut a, mut b) = (None, None);
    let (outs, cs) = drive_clients(
        &mut mix.clients,
        Stop::Ops(per_client),
        per_client as usize,
        args.seed,
        || a = Some(Snap::take(&dev, &ctx_refs)),
        || {
            drive::settle();
            b = Some(Snap::take(&dev, &ctx_refs))
        },
    );
    let (a, b) = (a.expect("start snapshot"), b.expect("end snapshot"));
    counts::per_op(&mut o, &a, &b, cs, requests, requests);
    let st = mix.stats();
    o.set("serve.launches", (st.launches - st0.launches) as f64);
    let refused = st.backpressure + st.shed - st0.backpressure - st0.shed;
    o.set("serve.refused_per_op", refused as f64 / requests as f64);

    // One client's records stand for the op: merge both into one store.
    let mut merged = LoopOut::new(LAT_CAP, requests as usize, args.seed);
    for out in &outs {
        o.absorb(out);
        for &(ns, layers) in &out.traced {
            merged.record(Ok(()), ns, layers);
        }
    }
    drive::copy_rate(&mut o, &merged);
    counts::alloc_medians(&mut o, &merged, 1, true);

    // Tenant queues are built by the server and expose no tracing switch:
    // chunk counts and tracing overhead come from probe queues running the
    // request's kernel and geometry on the server's device, with the same
    // launch timeout.
    let probe_ctx = context(&dev);
    let slot = &mix.clients[0].slots[0];
    let probe = |tracing: bool| -> Result<(LoopOut, (u64, u64)), String> {
        let mut cfg = queue_config(tracing, false);
        cfg.launch_timeout = serve_config().launch_timeout;
        let q = probe_ctx.queue_with(cfg);
        let input = probe_ctx
            .buffer_from(MemFlags::default(), &slot.inputs.sets[0])
            .map_err(|e| e.to_string())?;
        let output = probe_ctx
            .buffer::<f32>(MemFlags::default(), ITEMS)
            .map_err(|e| e.to_string())?;
        let k: Arc<dyn Kernel> = Arc::new(Square {
            input,
            output,
            n: ITEMS,
            items_per_wi: 1,
        });
        q.enqueue_kernel(&k, NDRange::d1(ITEMS))
            .map_err(|e| e.to_string())?;
        counts::drain_spans(&q);
        let mut spans = (0, 0);
        let out = LoopOut::new(PROBE_LAUNCHES as usize, 0, args.seed).run(
            Stop::Ops(PROBE_LAUNCHES),
            |_| {
                q.enqueue_kernel(&k, NDRange::d1(ITEMS))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
            || {
                let (la, ch) = counts::drain_spans(&q);
                spans = (spans.0 + la, spans.1 + ch);
            },
        );
        Ok((out, spans))
    };
    let (plain_probe, _) = probe(false)?;
    let (traced_probe, (launches, chunks)) = probe(true)?;
    counts::chunks(&mut o, launches, chunks);
    o.absorb(&plain_probe);
    o.absorb(&traced_probe);
    let partition = [L::Copy, L::Serve, L::Api, L::Wake, L::Run, L::Verify];
    counts::layer_split(&mut o, &merged, &merged, &partition);
    let p50 = |out: &LoopOut| percentile(&out.lat.sorted(), 0.5) / 1e3;
    let overhead = p50(&traced_probe) - p50(&plain_probe);
    let plain = o.values["trace.untraced_p50_us"];
    o.set("trace.traced_p50_us", plain + overhead);
    o.set("trace.overhead_us", overhead);
    Ok(o)
}
