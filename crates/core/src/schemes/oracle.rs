//! Oracle: the globally optimal configuration sequence with full
//! knowledge of the program (§5.3, §A.7 step 7).
//!
//! Nodes are (epoch, config) pairs; the edge into (e, c) carries epoch
//! e's time and energy under c plus the reconfiguration penalty from the
//! previous configuration. For a fixed-FLOP program:
//!
//! * **Energy-Efficient** (max GFLOPS/W = min total energy) is a plain
//!   shortest path in energy.
//! * **Power-Performance** (max GFLOPS³/W = min T²·E) is not
//!   edge-additive, so we trace the (T, E) Pareto frontier with a
//!   Lagrangian sweep — shortest paths minimising `E + λ·T` over a
//!   log-spaced λ grid — and keep the best T²·E among them. This can
//!   only *under*-approximate the true Oracle, the conservative
//!   direction for the paper's "within 13 % of Oracle" claims
//!   (DESIGN.md §2).

use transmuter::metrics::{Metrics, OptMode};
use transmuter::reconfig;

use crate::schemes::ScheduleOutcome;
use crate::stitch::SweepData;

/// Number of λ points in the Power-Performance sweep.
const LAMBDA_POINTS: usize = 33;

/// Runs the Oracle over a sweep.
pub fn oracle(sweep: &SweepData, mode: OptMode) -> ScheduleOutcome {
    match mode {
        OptMode::EnergyEfficient => {
            let schedule = shortest_path(sweep, 1.0, 0.0);
            let metrics = sweep.schedule_metrics(&schedule);
            ScheduleOutcome { schedule, metrics }
        }
        OptMode::PowerPerformance => {
            // Scale λ around the workload's own energy/time ratio.
            let base = sweep.static_metrics(0);
            let ratio = if base.time_s > 0.0 {
                base.energy_j / base.time_s
            } else {
                1.0
            };
            let mut best: Option<ScheduleOutcome> = None;
            for i in 0..LAMBDA_POINTS {
                // λ from ratio×10⁻³ to ratio×10⁺³, log-spaced.
                let exp = -3.0 + 6.0 * i as f64 / (LAMBDA_POINTS - 1) as f64;
                let lambda = ratio * 10f64.powf(exp);
                let schedule = shortest_path(sweep, 1.0, lambda);
                let metrics = sweep.schedule_metrics(&schedule);
                let better = best
                    .as_ref()
                    .is_none_or(|b| mode.score(&metrics) > mode.score(&b.metrics));
                if better {
                    best = Some(ScheduleOutcome { schedule, metrics });
                }
            }
            best.expect("lambda sweep is non-empty")
        }
    }
}

/// Dynamic-programming shortest path minimising
/// `w_e · energy + w_t · time` over the epoch × config DAG.
fn shortest_path(sweep: &SweepData, w_e: f64, w_t: f64) -> Vec<usize> {
    let n_cfg = sweep.n_configs();
    let n_epochs = sweep.n_epochs();
    let edge_weight = |m: &Metrics| w_e * m.energy_j + w_t * m.time_s;

    // Pre-compute switch costs between sampled configs.
    let mut switch = vec![vec![0.0f64; n_cfg]; n_cfg];
    for (i, row) in switch.iter_mut().enumerate() {
        for (j, w) in row.iter_mut().enumerate() {
            if i != j {
                let c = reconfig::cost(
                    &sweep.spec,
                    &sweep.table,
                    &sweep.configs[i],
                    &sweep.configs[j],
                );
                *w = w_e * c.energy_j + w_t * c.time_s;
            }
        }
    }

    let mut dist: Vec<f64> = (0..n_cfg)
        .map(|c| edge_weight(&sweep.traces[c][0].metrics))
        .collect();
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(n_epochs);
    parents.push((0..n_cfg).collect()); // unused for epoch 0
    for e in 1..n_epochs {
        let mut next = vec![f64::INFINITY; n_cfg];
        let mut par = vec![0usize; n_cfg];
        for c in 0..n_cfg {
            let own = edge_weight(&sweep.traces[c][e].metrics);
            for p in 0..n_cfg {
                let cand = dist[p] + switch[p][c] + own;
                if cand < next[c] {
                    next[c] = cand;
                    par[c] = p;
                }
            }
        }
        dist = next;
        parents.push(par);
    }
    // Backtrack from the best terminal node.
    let mut c = (0..n_cfg)
        .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite"))
        .expect("configs non-empty");
    let mut schedule = vec![0usize; n_epochs];
    for e in (0..n_epochs).rev() {
        schedule[e] = c;
        if e > 0 {
            c = parents[e][c];
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{ideal_greedy, ideal_static};
    use crate::stitch::SweepData;
    use transmuter::config::MachineSpec;
    use transmuter::workload::{Op, OpStream, Phase, Workload};

    fn sweep() -> SweepData {
        let stream: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..400u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 8192 + i * 8,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        let scatter: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..400u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: ((g as u64 * 131 + i * 7919) % 4096) * 512,
                                pc: 2,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        let wl = Workload::new(
            "w",
            vec![Phase::new("stream", stream), Phase::new("scatter", scatter)],
        );
        SweepData::simulate(
            MachineSpec::default().with_epoch_ops(200),
            &wl,
            &crate::stitch::sample_configs(transmuter::config::MemKind::Cache, 8, 7),
            4,
        )
    }

    #[test]
    fn oracle_dominates_static_and_greedy() {
        let s = sweep();
        for mode in OptMode::ALL {
            let o = oracle(&s, mode);
            let (_, st) = ideal_static(&s, mode);
            let g = ideal_greedy(&s, mode);
            assert!(
                mode.score(&o.metrics) >= mode.score(&st) - 1e-12,
                "{mode:?}: oracle {} < static {}",
                mode.score(&o.metrics),
                mode.score(&st)
            );
            assert!(
                mode.score(&o.metrics) >= mode.score(&g.metrics) - 1e-12,
                "{mode:?}: oracle {} < greedy {}",
                mode.score(&o.metrics),
                mode.score(&g.metrics)
            );
        }
    }

    #[test]
    fn ee_oracle_minimises_energy_among_tested_schedules() {
        let s = sweep();
        let o = oracle(&s, OptMode::EnergyEfficient);
        // Sanity: no constant schedule has lower energy.
        for c in 0..s.n_configs() {
            let constant = vec![c; s.n_epochs()];
            assert!(
                o.metrics.energy_j <= s.schedule_metrics(&constant).energy_j + 1e-15,
                "constant schedule {c} has less energy"
            );
        }
    }

    #[test]
    fn schedule_has_one_entry_per_epoch() {
        let s = sweep();
        let o = oracle(&s, OptMode::PowerPerformance);
        assert_eq!(o.schedule.len(), s.n_epochs());
        assert!(o.schedule.iter().all(|&c| c < s.n_configs()));
    }
}
