//! Exact per-op counts from the public counters the modules expose, and
//! the per-layer summary of a traced phase.

use cl_mem::TransferStatsSnapshot;
use cl_pool::MetricsSnapshot;
use ocl_rt::{CommandQueue, Context, Device, SpanKind};

use crate::common::{median_band, median_f64, percentile, LoopOut, L};
use crate::probe::{self, CtxSwitches};
use crate::report::Outcome;

/// Counters at one instant: allocator calls (whole process), the device
/// pool's `PoolMetrics`, and the `TransferStats` of the given contexts.
pub struct Snap {
    allocs: u64,
    pool: MetricsSnapshot,
    mem: TransferStatsSnapshot,
}

impl Snap {
    pub fn take(dev: &Device, ctxs: &[&Context]) -> Snap {
        let mut mem = TransferStatsSnapshot::default();
        for c in ctxs {
            let s = c.transfer().stats().snapshot();
            mem.bytes_copied += s.bytes_copied;
            mem.copy_calls += s.copy_calls;
            mem.staging_allocs += s.staging_allocs;
            mem.map_calls += s.map_calls;
            mem.unmap_calls += s.unmap_calls;
        }
        // Pool and transfer snapshots allocate nothing; read the allocator
        // last so the window starts after them.
        let pool = dev.pool().metrics().snapshot();
        Snap {
            allocs: probe::allocs(),
            pool,
            mem,
        }
    }
}

/// Set the counts of a fixed-length untraced phase of `ops` ops holding
/// `launches` kernel launches; `cs` are the client threads' context
/// switches over the phase. Allocations and transfers are per op, context
/// switches and pool counts per launch.
pub fn per_op(o: &mut Outcome, a: &Snap, b: &Snap, cs: CtxSwitches, ops: u64, launches: u64) {
    let n = ops.max(1) as f64;
    let k = launches.max(1) as f64;
    let pool = b.pool.delta_since(&a.pool);
    let mem = b.mem.delta_since(&a.mem);
    o.set("proc.allocs_total_per_op", (b.allocs - a.allocs) as f64 / n);
    o.set("proc.vcsw_per_launch", cs.voluntary as f64 / k);
    o.set("proc.ivcsw_per_launch", cs.involuntary as f64 / k);
    o.set("pool.tasks_per_launch", pool.tasks_executed as f64 / k);
    o.set("pool.unparks_per_launch", pool.unparks as f64 / k);
    o.set("pool.steals_per_launch", pool.tasks_stolen as f64 / k);
    o.set("exec.launches_per_op", launches as f64 / n);
    o.set("mem.bytes_copied_per_op", mem.bytes_copied as f64 / n);
    o.set("mem.staging_allocs_per_op", mem.staging_allocs as f64 / n);
}

/// Launch and chunk spans recorded by `q`'s trace log since the last
/// call; the log is emptied so a long traced phase stays small.
pub fn drain_spans(q: &CommandQueue) -> (u64, u64) {
    let Some(log) = q.trace() else {
        return (0, 0);
    };
    let spans = log.spans();
    log.clear();
    let count = |k| spans.iter().filter(|s| s.kind == k).count() as u64;
    (count(SpanKind::Launch), count(SpanKind::Chunk))
}

/// Per-layer self-times of the median untraced op (from event profiling
/// timestamps and wall clocks, which need no tracing), how closely the
/// layers that partition an op add up to its median, and the tracing
/// overhead: traced − untraced median. `partition` names the layers that
/// partition an op of the workload.
pub fn layer_split(o: &mut Outcome, untraced: &LoopOut, traced: &LoopOut, partition: &[L]) {
    let band = median_band(&untraced.traced);
    for l in L::ALL {
        o.set(l.metric(), band[l as usize]);
    }
    let sum: f64 = partition.iter().map(|&l| band[l as usize]).sum();
    let plain = percentile(&untraced.lat.sorted(), 0.5) / 1e3;
    let with_trace = percentile(&traced.lat.sorted(), 0.5) / 1e3;
    o.set("trace.layer_sum_us", sum);
    o.set("trace.untraced_p50_us", plain);
    o.set("trace.traced_p50_us", with_trace);
    o.set("trace.overhead_us", with_trace - plain);
    let ratio = sum / plain.max(1e-9);
    if !(0.9..=1.1).contains(&ratio) {
        eprintln!("warning: layers add up to {ratio:.3} of the median op (outside 0.9-1.1)");
    }
    o.set("trace.layer_sum_ratio", ratio);
}

/// Allocation counts of the typical op, as medians over the ops recorded
/// in `untraced` (rare allocator growth inside the runtime does not move
/// them): `proc.allocs_per_op` counts process-wide allocator calls while
/// the op ran (`client_thread`: only the client's own, when several clients
/// run at once), `proc.launch_allocs` those the kernel-launch calls made on
/// the calling thread, per launch.
pub fn alloc_medians(
    o: &mut Outcome,
    untraced: &LoopOut,
    launches_per_op: u64,
    client_thread: bool,
) {
    let median = |f: &dyn Fn(&crate::common::Layers) -> u64| {
        median_f64(untraced.traced.iter().map(|(_, l)| f(l) as f64).collect())
    };
    let per_op = if client_thread {
        median(&|l| l.thread_allocs)
    } else {
        median(&|l| l.allocs)
    };
    o.set("proc.allocs_per_op", per_op);
    o.set(
        "proc.launch_allocs",
        median(&|l| l.launch_allocs) / launches_per_op.max(1) as f64,
    );
}

/// `exec.chunks_per_launch` from span counts.
pub fn chunks(o: &mut Outcome, launches: u64, chunks: u64) {
    o.set(
        "exec.chunks_per_launch",
        chunks as f64 / launches.max(1) as f64,
    );
}
