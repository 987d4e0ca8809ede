//! Per-configuration epoch traces and schedule evaluation — the
//! artifact's evaluation methodology (§A.7, steps 4–7).
//!
//! A *sweep* simulates the whole workload once per sampled
//! configuration. Because epoch boundaries are FP-op quotas and work
//! assignment is deterministic, epoch *k* covers the same ops in every
//! trace, so any dynamic scheme can be evaluated by *stitching*: pick a
//! configuration per epoch, sum the per-epoch metrics, and add the
//! §3.4 reconfiguration penalty wherever consecutive picks differ.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use transmuter::config::{MachineSpec, MemKind, TransmuterConfig};
use transmuter::machine::EpochRecord;
use transmuter::metrics::Metrics;
use transmuter::power::EnergyTable;
use transmuter::reconfig;
use transmuter::workload::Workload;

use crate::exec;
use crate::trace_cache::{simulate_trace, TraceCache, TraceKey};

/// Per-configuration epoch traces of one workload.
///
/// Traces are `Arc`-shared with the [`crate::trace_cache`], so cloning a
/// `SweepData` (or holding two sweeps over the same workload) costs
/// pointer bumps, not trace copies.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// The machine the sweep ran on.
    pub spec: MachineSpec,
    /// Energy table used (needed for reconfiguration costs).
    pub table: EnergyTable,
    /// The sampled configurations.
    pub configs: Vec<TransmuterConfig>,
    /// `traces[c][e]` = epoch `e` under configuration `c`.
    pub traces: Vec<Arc<Vec<EpochRecord>>>,
    /// Workload name, for reports.
    pub workload_name: String,
}

impl SweepData {
    /// Simulates `workload` under every configuration on a work-stealing
    /// pool of up to `threads` OS threads, serving repeated
    /// `(spec, workload, config)` triples from the process-wide
    /// [`TraceCache`]. A trace-cache miss simulates unhooked: the
    /// [`crate::epoch_cache`] belongs to live runs alone. A live run
    /// starts at Best Avg and can first reconfigure after epoch 1, so a
    /// static sweep shares only a few epochs of one configuration with
    /// it; snapshotting every boundary of every configuration once held
    /// a 307 MiB tier on the benchmark's `adapt_memo` (seed 7) for about
    /// 200 extra hits in 6,954 live lookups (see DESIGN.md,
    /// "Epoch-granular memoization").
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, or if the traces disagree on epoch
    /// structure (which would indicate non-deterministic work
    /// assignment — a bug).
    pub fn simulate(
        spec: MachineSpec,
        workload: &Workload,
        configs: &[TransmuterConfig],
        threads: usize,
    ) -> SweepData {
        assert!(!configs.is_empty(), "need at least one configuration");
        // Hoisted out of the per-config loop: the spec and workload
        // fingerprints (hashing every op once per sweep rather than once
        // per configuration) and the trace-cache keys built from them.
        let spec_fp = spec.fingerprint();
        let wl_fp = workload.fingerprint();
        let keys: Vec<TraceKey> = configs
            .iter()
            .map(|c| TraceKey {
                spec: spec_fp,
                workload: wl_fp,
                config: c.fingerprint(),
            })
            .collect();
        let traces = exec::parallel_map(configs.len(), threads, |ci| {
            TraceCache::global()
                .get_or_simulate(keys[ci], || simulate_trace(spec, workload, configs[ci]))
        });
        SweepData::assemble(spec, workload, configs, traces)
    }

    /// [`SweepData::simulate`] bypassing the trace cache — every
    /// configuration is simulated from scratch. Used by determinism
    /// tests and the perf harness, where a cache hit would defeat the
    /// measurement.
    ///
    /// # Panics
    ///
    /// As for [`SweepData::simulate`].
    pub fn simulate_uncached(
        spec: MachineSpec,
        workload: &Workload,
        configs: &[TransmuterConfig],
        threads: usize,
    ) -> SweepData {
        assert!(!configs.is_empty(), "need at least one configuration");
        let traces = exec::parallel_map(configs.len(), threads, |ci| {
            Arc::new(simulate_trace(spec, workload, configs[ci]))
        });
        SweepData::assemble(spec, workload, configs, traces)
    }

    /// Uncached sweep through the frozen pre-SoA reference simulation
    /// path — the legacy baseline in `sweep_bench`'s A/B comparison.
    /// Produces bit-identical traces to [`SweepData::simulate_uncached`],
    /// only slower.
    ///
    /// # Panics
    ///
    /// As for [`SweepData::simulate`].
    pub fn simulate_reference(
        spec: MachineSpec,
        workload: &Workload,
        configs: &[TransmuterConfig],
        threads: usize,
    ) -> SweepData {
        assert!(!configs.is_empty(), "need at least one configuration");
        let traces = exec::parallel_map(configs.len(), threads, |ci| {
            Arc::new(crate::trace_cache::simulate_trace_reference(
                spec,
                workload,
                configs[ci],
            ))
        });
        SweepData::assemble(spec, workload, configs, traces)
    }

    fn assemble(
        spec: MachineSpec,
        workload: &Workload,
        configs: &[TransmuterConfig],
        traces: Vec<Arc<Vec<EpochRecord>>>,
    ) -> SweepData {
        // Invariant: identical epoch structure across configurations.
        let reference = &traces[0];
        for (c, t) in traces.iter().enumerate().skip(1) {
            assert_eq!(
                t.len(),
                reference.len(),
                "config {c} produced a different epoch count"
            );
            for (e, (a, b)) in t.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    a.fp_ops, b.fp_ops,
                    "config {c} epoch {e} covers different ops"
                );
            }
        }
        SweepData {
            spec,
            table: EnergyTable::default(),
            configs: configs.to_vec(),
            traces,
            workload_name: workload.name.clone(),
        }
    }

    /// Number of epochs in every trace.
    pub fn n_epochs(&self) -> usize {
        self.traces[0].len()
    }

    /// Number of sampled configurations.
    pub fn n_configs(&self) -> usize {
        self.configs.len()
    }

    /// The whole-run metrics of one static configuration.
    pub fn static_metrics(&self, config_index: usize) -> Metrics {
        let mut m = Metrics::default();
        for e in self.traces[config_index].iter() {
            m.accumulate(&e.metrics);
        }
        m
    }

    /// Evaluates a per-epoch configuration schedule, charging
    /// reconfiguration penalties at every switch.
    ///
    /// # Panics
    ///
    /// Panics if the schedule length differs from the epoch count.
    pub fn schedule_metrics(&self, schedule: &[usize]) -> Metrics {
        assert_eq!(schedule.len(), self.n_epochs(), "schedule length mismatch");
        let mut m = Metrics::default();
        for (e, &c) in schedule.iter().enumerate() {
            m.accumulate(&self.traces[c][e].metrics);
            if e > 0 && schedule[e - 1] != c {
                let cost = reconfig::cost(
                    &self.spec,
                    &self.table,
                    &self.configs[schedule[e - 1]],
                    &self.configs[c],
                );
                m.time_s += cost.time_s;
                m.energy_j += cost.energy_j;
            }
        }
        m
    }

    /// The index of a configuration in the sweep, if sampled.
    pub fn config_index(&self, cfg: &TransmuterConfig) -> Option<usize> {
        self.configs.iter().position(|c| c == cfg)
    }
}

/// Deterministically samples `s` configurations from the runtime space
/// of the given L1 kind, always including the Table 4 reference points
/// (Baseline / Best Avg / Maximum) so every scheme can be stitched from
/// the same sweep.
pub fn sample_configs(l1_kind: MemKind, s: usize, seed: u64) -> Vec<TransmuterConfig> {
    let mut space = TransmuterConfig::runtime_space(l1_kind);
    let mut rng = StdRng::seed_from_u64(seed);
    space.shuffle(&mut rng);
    let mut picked: Vec<TransmuterConfig> = vec![
        match l1_kind {
            MemKind::Cache => TransmuterConfig::baseline(),
            MemKind::Spm => {
                let mut b = TransmuterConfig::baseline();
                b.l1_kind = MemKind::Spm;
                b
            }
        },
        match l1_kind {
            MemKind::Cache => TransmuterConfig::best_avg_cache(),
            MemKind::Spm => TransmuterConfig::best_avg_spm(),
        },
        {
            let mut m = TransmuterConfig::maximum();
            m.l1_kind = l1_kind;
            m
        },
    ];
    for cfg in space {
        if picked.len() >= s.max(picked.len()) {
            break;
        }
        if !picked.contains(&cfg) {
            picked.push(cfg);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::workload::{Op, OpStream, Phase};

    fn workload() -> Workload {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..400u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 32768 + (i * 37) % 16384,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        Workload::new("w", vec![Phase::new("p", streams)])
    }

    fn sweep() -> SweepData {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let configs = vec![
            TransmuterConfig::baseline(),
            TransmuterConfig::best_avg_cache(),
            TransmuterConfig::maximum(),
        ];
        SweepData::simulate(spec, &workload(), &configs, 3)
    }

    #[test]
    fn traces_align_across_configs() {
        let s = sweep();
        assert_eq!(s.n_configs(), 3);
        assert!(s.n_epochs() >= 2);
    }

    #[test]
    fn constant_schedule_equals_static_metrics() {
        let s = sweep();
        let schedule = vec![1usize; s.n_epochs()];
        let a = s.schedule_metrics(&schedule);
        let b = s.static_metrics(1);
        assert!((a.time_s - b.time_s).abs() < 1e-15);
        assert!((a.energy_j - b.energy_j).abs() < 1e-15);
        assert_eq!(a.flops, b.flops);
    }

    #[test]
    fn switching_costs_are_charged() {
        let s = sweep();
        let n = s.n_epochs();
        let mut alternating = vec![0usize; n];
        for (e, c) in alternating.iter_mut().enumerate() {
            *c = e % 2; // baseline <-> best-avg flips L1 sharing: flushes
        }
        let flip = s.schedule_metrics(&alternating);
        // Lower-bound comparison: sum of the chosen epochs without costs.
        let mut bare = Metrics::default();
        for (e, &c) in alternating.iter().enumerate() {
            bare.accumulate(&s.traces[c][e].metrics);
        }
        assert!(flip.time_s > bare.time_s);
        assert!(flip.energy_j > bare.energy_j);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let mut configs = vec![
            TransmuterConfig::baseline(),
            TransmuterConfig::best_avg_cache(),
            TransmuterConfig::maximum(),
        ];
        configs.extend(sample_configs(MemKind::Cache, 7, 9).into_iter().skip(3));
        let wl = workload();
        // Uncached on purpose: a cache hit would make this trivially true.
        let serial = SweepData::simulate_uncached(spec, &wl, &configs, 1);
        for threads in [2, 4, 16] {
            let par = SweepData::simulate_uncached(spec, &wl, &configs, threads);
            assert_eq!(serial.traces, par.traces, "threads={threads}");
            for c in 0..configs.len() {
                assert_eq!(serial.static_metrics(c), par.static_metrics(c));
            }
        }
    }

    #[test]
    fn repeated_sweeps_share_cached_traces() {
        use crate::trace_cache::TraceCache;
        let spec = MachineSpec::default().with_epoch_ops(300);
        let configs = vec![
            TransmuterConfig::baseline(),
            TransmuterConfig::best_avg_cache(),
        ];
        let wl = workload();
        let before = TraceCache::global().stats();
        let a = SweepData::simulate(spec, &wl, &configs, 2);
        let b = SweepData::simulate(spec, &wl, &configs, 2);
        // The second sweep must not have re-simulated anything: it holds
        // the *same* allocations the first sweep produced.
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            assert!(std::sync::Arc::ptr_eq(ta, tb), "trace was re-simulated");
        }
        let after = TraceCache::global().stats();
        assert!(
            after.hits >= before.hits + configs.len() as u64,
            "expected at least {} cache hits, saw {} -> {}",
            configs.len(),
            before.hits,
            after.hits
        );
    }

    #[test]
    fn sample_configs_includes_references() {
        let cfgs = sample_configs(MemKind::Cache, 16, 42);
        assert_eq!(cfgs.len(), 16);
        assert!(cfgs.contains(&TransmuterConfig::baseline()));
        assert!(cfgs.contains(&TransmuterConfig::best_avg_cache()));
        assert!(cfgs.contains(&TransmuterConfig::maximum()));
        // Deterministic.
        assert_eq!(cfgs, sample_configs(MemKind::Cache, 16, 42));
        // All distinct.
        let set: std::collections::HashSet<_> = cfgs.iter().collect();
        assert_eq!(set.len(), cfgs.len());
    }
}
