//! What one benchmark run reports, and the one-line JSON result.
//!
//! The metric names and units here are the ones `BENCHMARK.json` lists;
//! a test keeps the two in step.

use std::collections::BTreeMap;

use crate::stats::{self, Quantiles};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload bypasses reports 0: no work, no time.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("kernels.build_s", "s"),
    ("kernels.events", "count"),
    ("transmuter.sweep_ns_per_event", "ns/event"),
    ("transmuter.epoch_us", "us/epoch"),
    ("transmuter.run_ns_per_event", "ns/event"),
    ("transmuter.recorded_epoch_us", "us/epoch"),
    ("transmuter.fast_forward_us", "us/epoch"),
    ("transmuter.state_digest_us", "us/call"),
    ("transmuter.state_kb", "KiB"),
    ("transmuter.fingerprint_ms", "ms/call"),
    ("transmuter.fingerprint_calls", "count"),
    ("core.schemes.stitch_ms", "ms/sweep"),
    ("core.schemes.oracle_ms", "ms/sweep"),
    ("core.schemes.oracle_gain", "x"),
    ("core.trace_cache.misses", "count"),
    ("core.trace_cache.resident_mb", "MiB"),
    ("core.trace_cache.hit_rate", "ratio"),
    ("core.trace_cache.hit_us", "us/call"),
    ("core.runtime.on_epoch_us", "us/call"),
    ("core.runtime.reconfig_frac", "ratio"),
    ("core.runtime.sa_gain", "x"),
    ("mltree.predict_us", "us/call"),
    ("core.epoch_cache.lookup_us", "us/call"),
    ("core.epoch_cache.record_us", "us/call"),
    ("core.epoch_cache.hit_rate", "ratio"),
    ("core.epoch_cache.resident_mb", "MiB"),
    ("core.epoch_cache.evictions", "count"),
    ("client.simulate_p50_ms", "ms/request"),
    ("client.recommend_p50_ms", "ms/request"),
    ("serve.route_us", "us/request"),
    ("serve.outside_route_us", "us/request"),
    ("serve.handlers.sim_us", "us/request"),
    ("serve.http.parse_us", "us/call"),
    ("serve.api.decode_us", "us/call"),
    ("core.service.summarize_us", "us/call"),
    ("core.service.recommend_us", "us/call"),
    ("serve.api.encode_us", "us/call"),
    ("serve.http.render_us", "us/call"),
    ("serve.queue.depth_max", "count"),
    ("serve.queue.rejected_429", "count"),
    ("serve.coalesce.coalesced", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
];

/// One slice of the measured window: a round of jobs (simulation
/// workloads) or one second of requests (serve).
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Work units: op-stream entries evaluated, or requests completed.
    pub work: f64,
    /// Seconds the work took.
    pub secs: f64,
    /// Latency of each request, milliseconds. Empty for a round of
    /// simulation jobs, whose latency is the round itself: the time to
    /// produce every result of the workload once.
    pub latencies_ms: Vec<f64>,
}

/// A workload's measurements, before they become metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (runs or requests), checks included.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Duration of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// The measured window, in slices.
    pub windows: Vec<Window>,
    /// Peak resident set, MiB, read before the checks and the repeated
    /// set-ups: at the end of the first round (simulation workloads) or
    /// of the window (serve).
    pub peak_rss_mb: f64,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines printed before the result: digests, gains, sample counts.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds one simulation job to round `round` of the measured window.
    pub fn job(&mut self, round: usize, work: f64, secs: f64) {
        if self.windows.len() <= round {
            self.windows.resize(round + 1, Window::default());
        }
        self.windows[round].work += work;
        self.windows[round].secs += secs;
    }

    /// Records one check outcome.
    pub fn check(&mut self, ok: bool) {
        self.check_n(ok, 1);
    }

    /// Records `n` operations with the same check outcome.
    pub fn check_n(&mut self, ok: bool, n: u64) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Reads the peak resident set now.
    pub fn capture_rss(&mut self) {
        self.peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    }

    /// The end-to-end metric values, in [`END_TO_END`] order. Throughput
    /// is the 90th percentile (nearest rank) over the window's slices: the
    /// rate the program sustains when the host's other tenants interfere
    /// least. Outside load only ever slows a slice, and on a shared host
    /// it moves the median of a run by more than it moves the fast slices.
    pub fn end_to_end(&self) -> Vec<f64> {
        let mut rates: Vec<f64> = self
            .slices()
            .iter()
            .map(|w| w.work / w.secs)
            .collect();
        vec![
            stats::median(&mut self.setups_s.clone()).unwrap_or(0.0),
            stats::percentile(&mut rates, 0.9).unwrap_or(0.0),
            self.peak_rss_mb,
        ]
    }

    fn slices(&self) -> Vec<&Window> {
        self.windows.iter().filter(|w| w.secs > 0.0).collect()
    }

    /// p50 and p99 latency, printed on a `#` line but not gated: a closed
    /// loop of one connection makes p50 the inverse of throughput, and
    /// p99 is the host's hiccups more than the program. Request latencies
    /// are medians of the per-slice percentiles; round latencies are
    /// percentiles over the rounds.
    pub fn latency_ms(&self) -> (f64, f64) {
        let slices = self.slices();
        let med = |mut v: Vec<f64>| stats::median(&mut v).unwrap_or(0.0);
        if slices.iter().all(|w| w.latencies_ms.is_empty()) {
            let mut rounds: Vec<f64> = slices.iter().map(|w| w.secs * 1e3).collect();
            let q = Quantiles::of(&mut rounds);
            (q.p50, q.p99)
        } else {
            let qs: Vec<Quantiles> = slices
                .iter()
                .map(|w| Quantiles::of(&mut w.latencies_ms.clone()))
                .collect();
            (
                med(qs.iter().map(|q| q.p50).collect()),
                med(qs.iter().map(|q| q.p99).collect()),
            )
        }
    }

    /// The last line of a run: `correct`, `attempted`, `failed` and every
    /// metric of the requested kind with its unit.
    pub fn result_line(&self, traced: bool) -> String {
        let pairs: Vec<(&str, &str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, self.layers.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        };
        let metrics: Vec<String> = pairs
            .iter()
            .map(|(name, unit, v)| {
                // `{:?}` is the shortest exact round-trip form of an f64.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let list = serde::obj_get(root.as_obj().expect("object"), section);
        list.as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let obj = m.as_obj().expect("metric object");
                let text = |k: &str| match serde::obj_get(obj, k) {
                    serde::Value::Str(s) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = Report {
            setups_s: vec![3.0, 1.0, 2.0],
            ..Report::default()
        };
        // Rounds of 2, 2 and 10 ms: rates 5000, 4000 and 100 -> p90 5000;
        // round latencies (nearest rank) p50 2 ms, p99 10 ms.
        r.job(0, 6.0, 0.001);
        r.job(0, 4.0, 0.001);
        r.job(1, 8.0, 0.002);
        r.job(2, 1.0, 0.01);
        r.check(true);
        r.layers.insert("trace.spans", 12.0);
        let e2e = r.result_line(false);
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(e2e.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"));
        assert!(e2e.contains("\"ops_per_s\": {\"value\": 5000.0, \"unit\": \"1/s\"}"));
        assert_eq!(r.latency_ms(), (2.0, 10.0));
        // Request slices: medians of the per-slice percentiles.
        let served = Report {
            windows: vec![
                Window {
                    work: 3.0,
                    secs: 1.0,
                    latencies_ms: vec![1.0, 2.0, 3.0],
                },
                Window {
                    work: 1.0,
                    secs: 1.0,
                    latencies_ms: vec![9.0],
                },
                Window {
                    work: 2.0,
                    secs: 1.0,
                    latencies_ms: vec![4.0, 5.0],
                },
            ],
            ..Report::default()
        };
        assert_eq!(served.end_to_end()[1], 3.0);
        assert_eq!(served.latency_ms(), (4.0, 5.0));
        let layers = r.result_line(true);
        assert!(layers.contains("\"trace.spans\": {\"value\": 12.0, \"unit\": \"count\"}"));
        for (name, _) in PER_LAYER {
            assert!(layers.contains(&format!("\"{name}\"")), "{name}");
        }
        let parsed = serde_json::parse_value_str(&layers).expect("result line is JSON");
        assert!(parsed.as_obj().is_some());
        r.check(false);
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
