//! Metric names, the end-to-end summary of a timed phase, and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;

use crate::common::{percentile, LoopOut, Reservoir};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on a kernel list: `(name, unit)`.
const LAYER_METRICS: [(&str, &str); 38] = [
    ("queue.api_us", "us"),
    ("exec.wake_us", "us"),
    ("exec.run_us", "us"),
    ("queue.return_us", "us"),
    ("serve.overhead_us", "us"),
    ("mem.copy_us", "us"),
    ("mem.map_us", "us"),
    ("sched.submit_us", "us"),
    ("sched.wait_us", "us"),
    ("bench.verify_us", "us"),
    ("trace.layer_sum_us", "us"),
    ("trace.untraced_p50_us", "us"),
    ("trace.traced_p50_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.layer_sum_ratio", "ratio"),
    ("proc.allocs_per_op", "count"),
    ("proc.allocs_total_per_op", "count"),
    ("proc.launch_allocs", "count"),
    ("proc.vcsw_per_launch", "count"),
    ("proc.ivcsw_per_launch", "count"),
    ("pool.tasks_per_launch", "count"),
    ("pool.unparks_per_launch", "count"),
    ("pool.steals_per_launch", "count"),
    ("exec.launches_per_op", "count"),
    ("exec.chunks_per_launch", "count"),
    ("mem.bytes_copied_per_op", "B"),
    ("mem.staging_allocs_per_op", "count"),
    ("mem.copy_gb_per_s", "GB/s"),
    ("serve.launches", "count"),
    ("serve.refused_per_op", "count"),
    ("sched.release_us", "us"),
    ("sched.overlap", "ratio"),
    ("queue.plan_miss_us", "us"),
    ("serial.pass_ms", "ms"),
    ("affinity.aligned_us", "us"),
    ("affinity.misaligned_us", "us"),
    ("kernels.square.gb_per_s_computed", "GB/s"),
    ("kernels.vectoradd.gb_per_s_computed", "GB/s"),
];

/// Every per-layer metric: the fixed list, one `kernels.<k>.ns_per_item`
/// per sweep kernel and one `parfor.<k>.ns_per_item` per OpenMP twin.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in crate::sweep::KERNELS {
        v.push((format!("kernels.{k}.ns_per_item"), "ns"));
    }
    for k in crate::sweep::TWINS {
        v.push((format!("parfor.{k}.ns_per_item"), "ns"));
    }
    v
}

/// A workload's result: op counts, the first failure seen, and metric
/// values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn absorb(&mut self, run: &LoopOut) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        if self.first_error.is_none() {
            self.first_error = run.first_error.clone();
        }
    }

    /// Fill the end-to-end metrics from the set-up times and the timed
    /// phase of every client.
    pub fn end_to_end(&mut self, setups: Vec<f64>, clients: &[LoopOut]) {
        let mut all = Reservoir::new(1 << 20, 7);
        let mut ok = 0u64;
        let mut wall = 0f64;
        for c in clients {
            self.absorb(c);
            ok += c.attempted - c.failed;
            wall += c.wall_s / clients.len() as f64;
            all.merge(&c.lat);
        }
        let sorted = all.sorted();
        let beyond = sorted.len() / 10;
        if beyond < 10 {
            eprintln!("warning: p90 rests on {beyond} samples beyond it (fewer than 10)");
        }
        self.set("setup_s", crate::common::median_f64(setups));
        self.set("ops_per_s", ok as f64 / wall.max(1e-9));
        self.set("op_p50_us", percentile(&sorted, 0.5) / 1e3);
        self.set("op_p90_us", percentile(&sorted, 0.9) / 1e3);
        println!(
            "latency: n={} p50={:.1} p90={:.1} p95={:.1} p99={:.1} p99.9={:.1} us",
            sorted.len(),
            percentile(&sorted, 0.5) / 1e3,
            percentile(&sorted, 0.9) / 1e3,
            percentile(&sorted, 0.95) / 1e3,
            percentile(&sorted, 0.99) / 1e3,
            percentile(&sorted, 0.999) / 1e3,
        );
        self.set("peak_rss_mb", crate::probe::peak_rss_mb());
    }

    /// The result line: exactly the metrics the mode promises, each with
    /// its unit. A metric the workload does not touch reads 0.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// Human-readable table of every value, printed before the result line.
    pub fn table(&self, trace: bool) -> String {
        let metrics: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = String::new();
        for (name, unit) in metrics {
            match self.values.get(&name) {
                Some(v) => out.push_str(&format!("  {name:<40} {v:>16.4} {unit}\n")),
                None => out.push_str(&format!("  {name:<40} {:>16} {unit}\n", "-")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = cl_util::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn json_reports_every_promised_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("ops_per_s", 12.5);
        let line = o.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\"")), "{n}");
        }
        assert!(cl_util::json::parse(&o.json(true)).is_ok());
    }
}
