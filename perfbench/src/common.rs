//! What every workload shares: pinned runtime configuration, the closed
//! loop, latency storage, the per-op layer split and small statistics.

use std::time::{Duration, Instant};

use cl_util::rng::XorShift;
use ocl_rt::{CoarsenMode, Context, ContextConfig, Device, Event, QueueConfig};

/// Host shape the workloads are sized from.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `available_parallelism`: the load-thread ceiling of every workload.
    pub nproc: usize,
    /// Pool workers per device. The host thread claims chunks beside the
    /// workers on the default path, so `nproc - 1` workers give `nproc`
    /// compute threads.
    pub workers: usize,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            workers: nproc.saturating_sub(1).max(1),
        }
    }
}

/// A native device with `workers` pool workers.
pub fn device(workers: usize) -> Device {
    Device::native_cpu(workers).expect("native CPU device with the requested workers")
}

/// A context whose options come from this literal, never the environment.
pub fn context(dev: &Device) -> Context {
    Context::new_with(
        dev.clone(),
        ContextConfig {
            race_recording: false,
        },
    )
}

/// Queue options spelled out field by field, so no `CL_*` variable and no
/// later default change alters what is measured.
pub fn queue_config(tracing: bool, out_of_order: bool) -> QueueConfig {
    QueueConfig {
        launch_timeout: None,
        tracing,
        recording: false,
        out_of_order,
        sched_bug: None,
        coarsen: CoarsenMode::Auto,
        tune: false,
        tuner: None,
    }
}

/// The self-time layers one op is split into, measured around the
/// benchmark's calls into each module and from the events they return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L {
    /// `cl-mem` copies: write/read/fill calls, wall time.
    Copy,
    /// `ocl-rt::queue` API and plan: event submitted − queued.
    Api,
    /// `ocl-rt::exec` pool wake: started − submitted.
    Wake,
    /// `ocl-rt::exec` chunk dispatch and `cl-kernels` compute: completed − started.
    Run,
    /// `ocl-rt::queue` return path: call wall − (completed − queued).
    Return,
    /// `cl-serve` admission and fairness gate: `Tenant::launch` wall −
    /// (completed − queued).
    Serve,
    /// `ocl-rt::sched` submit calls, wall time.
    Submit,
    /// `ocl-rt::sched` event waits: the out-of-order chains executing.
    Wait,
    /// `cl-mem` map calls, wall time.
    Map,
    /// The benchmark's own comparison against the serial reference.
    Verify,
}

pub const LAYER_COUNT: usize = 10;

impl L {
    pub fn metric(self) -> &'static str {
        match self {
            L::Copy => "mem.copy_us",
            L::Api => "queue.api_us",
            L::Wake => "exec.wake_us",
            L::Run => "exec.run_us",
            L::Return => "queue.return_us",
            L::Serve => "serve.overhead_us",
            L::Submit => "sched.submit_us",
            L::Wait => "sched.wait_us",
            L::Map => "mem.map_us",
            L::Verify => "bench.verify_us",
        }
    }

    pub const ALL: [L; LAYER_COUNT] = [
        L::Copy,
        L::Api,
        L::Wake,
        L::Run,
        L::Return,
        L::Serve,
        L::Submit,
        L::Wait,
        L::Map,
        L::Verify,
    ];
}

/// Nanoseconds per layer for one op, and its allocator calls: process-wide
/// and on the client thread while the op ran, and on the client thread
/// inside its kernel-launch calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    ns: [u64; LAYER_COUNT],
    pub allocs: u64,
    pub thread_allocs: u64,
    pub launch_allocs: u64,
}

impl Layers {
    pub fn add(&mut self, l: L, ns: u64) {
        self.ns[l as usize] += ns;
    }

    pub fn get(&self, l: L) -> u64 {
        self.ns[l as usize]
    }

    /// Run one kernel-launch call, counting the allocations it makes on
    /// this thread and returning its wall time on the trace clock.
    pub fn launch<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let a0 = crate::probe::thread_allocs();
        let t0 = ocl_rt::now_ns();
        let out = f();
        let ns = ocl_rt::now_ns() - t0;
        self.launch_allocs += crate::probe::thread_allocs() - a0;
        (out, ns)
    }

    /// Split one blocking kernel call into API, wake, run and the caller's
    /// remainder (`rest`: the queue's return path, or `cl-serve` around it).
    pub fn add_launch(&mut self, ev: &Event, call_ns: u64, rest: L) {
        let p = ev.profiling();
        self.add(L::Api, p.submitted_ns - p.queued_ns);
        self.add(L::Wake, p.started_ns - p.submitted_ns);
        self.add(L::Run, p.completed_ns - p.started_ns);
        self.add(rest, call_ns.saturating_sub(p.completed_ns - p.queued_ns));
    }
}

/// An event's API time (submitted − queued) in µs: where a plan-cache miss
/// (range resolution, coarsening proof) shows.
pub fn api_us(ev: &Event) -> f64 {
    let p = ev.profiling();
    (p.submitted_ns - p.queued_ns) as f64 / 1e3
}

/// Time a call on the runtime's trace clock (the clock events are stamped
/// with), adding its wall time to `layer`.
pub fn timed<T>(layers: &mut Layers, layer: L, f: impl FnOnce() -> T) -> T {
    let t0 = ocl_rt::now_ns();
    let out = f();
    layers.add(layer, ocl_rt::now_ns() - t0);
    out
}

/// Latency samples with a fixed memory footprint: the first `cap` ops are
/// kept, later ones replace a random kept sample (reservoir sampling), so
/// peak RSS does not grow with throughput.
pub struct Reservoir {
    samples: Vec<u32>,
    len: usize,
    seen: u64,
    rng: XorShift,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            // Written, not just reserved, so the pages are resident before
            // the timed phase.
            samples: vec![u32::MAX; cap],
            len: 0,
            seen: 0,
            rng: XorShift::seed_from_u64(seed ^ 0x5EED_F1A7),
        }
    }

    pub fn push(&mut self, ns: u64) {
        let v = ns.min(u32::MAX as u64) as u32;
        self.seen += 1;
        if self.len < self.samples.len() {
            self.samples[self.len] = v;
            self.len += 1;
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < self.samples.len() {
                self.samples[j] = v;
            }
        }
    }

    pub fn merge(&mut self, other: &Reservoir) {
        for &v in &other.samples[..other.len] {
            self.push(v as u64);
        }
    }

    pub fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples[..self.len].iter().map(|&x| x as u64).collect();
        v.sort_unstable();
        v
    }
}

/// How a closed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(u64),
}

/// One closed-loop client's results.
pub struct LoopOut {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub lat: Reservoir,
    /// Per-op `(latency, layers)` records, kept only when asked for.
    pub traced: Vec<(u64, Layers)>,
    pub first_error: Option<String>,
}

impl LoopOut {
    /// Storage for one closed loop: a latency reservoir of `lat_cap`
    /// samples and room for `keep` per-op layer records, all allocated
    /// here so the loop itself allocates nothing.
    pub fn new(lat_cap: usize, keep: usize, seed: u64) -> Self {
        LoopOut {
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            lat: Reservoir::new(lat_cap, seed),
            traced: Vec::with_capacity(keep),
            first_error: None,
        }
    }

    /// Run `op` back to back until `stop`. An op that returns `Err` (a
    /// runtime error or a verification mismatch) counts as failed.
    /// `between` runs after each op, outside its timing (draining a trace
    /// log).
    pub fn run(
        mut self,
        stop: Stop,
        mut op: impl FnMut(&mut Layers) -> Result<(), String>,
        mut between: impl FnMut(),
    ) -> Self {
        let t0 = Instant::now();
        loop {
            match stop {
                Stop::After(d) if t0.elapsed() >= d => break,
                Stop::Ops(n) if self.attempted >= n => break,
                _ => {}
            }
            let mut layers = Layers::default();
            let (a0, t0) = (crate::probe::allocs(), crate::probe::thread_allocs());
            let s = Instant::now();
            let res = op(&mut layers);
            let ns = s.elapsed().as_nanos() as u64;
            layers.allocs = crate::probe::allocs() - a0;
            layers.thread_allocs = crate::probe::thread_allocs() - t0;
            self.record(res, ns, layers);
            between();
        }
        self.wall_s = t0.elapsed().as_secs_f64();
        self
    }

    /// Count one op's result.
    pub fn record(&mut self, res: Result<(), String>, ns: u64, layers: Layers) {
        self.attempted += 1;
        match res {
            Ok(()) => {
                self.lat.push(ns);
                if self.traced.len() < self.traced.capacity() {
                    self.traced.push((ns, layers));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean layer split, in µs, of the ops whose latency lies between the 45th
/// and 55th percentile: a split of the median op.
pub fn median_band(traced: &[(u64, Layers)]) -> [f64; LAYER_COUNT] {
    let mut v: Vec<&(u64, Layers)> = traced.iter().collect();
    v.sort_by_key(|(ns, _)| *ns);
    let lo = v.len() * 9 / 20;
    let hi = (v.len() * 11 / 20).max(lo + 1).min(v.len());
    let band = &v[lo.min(hi)..hi];
    let mut sums = [0f64; LAYER_COUNT];
    for (_, l) in band {
        for (s, x) in sums.iter_mut().zip(l.ns) {
            *s += x as f64;
        }
    }
    let k = band.len().max(1) as f64;
    sums.map(|s| s / k / 1e3)
}

/// Seeded `u64` for deriving independent input streams.
pub fn derive(seed: u64, salt: u64) -> u64 {
    XorShift::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Compare floats with relative tolerance `tol` (absolute below `floor`).
/// NaN never compares equal, so a sentinel left by a launch that did not
/// run is reported.
pub fn check_f32(
    label: &str,
    got: &[f32],
    want: &[f32],
    floor: f32,
    tol: f32,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{label}: length {} want {}", got.len(), want.len()));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let ok = (g - w).abs() <= tol * w.abs().max(floor);
        if !ok {
            return Err(format!("{label}: index {i} got {g} want {w}"));
        }
    }
    Ok(())
}

pub fn check_u32(label: &str, got: &[u32], want: &[u32]) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!("{label}: length {} want {}", got.len(), want.len())),
        Some(i) => Err(format!(
            "{label}: index {i} got {} want {}",
            got[i], want[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_sentinel_fails_the_check() {
        assert!(check_f32("x", &[1.0, 2.0], &[1.0, 2.0], 1e-3, 1e-5).is_ok());
        assert!(check_f32("x", &[1.0, f32::NAN], &[1.0, 2.0], 1e-3, 1e-5).is_err());
        assert!(check_u32("h", &[1, 2], &[1, 3]).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn reservoir_keeps_a_fixed_footprint() {
        let mut r = Reservoir::new(8, 1);
        for i in 0..1000 {
            r.push(i);
        }
        assert_eq!(r.sorted().len(), 8);
    }
}
