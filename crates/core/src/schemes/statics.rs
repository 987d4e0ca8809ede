//! Ideal Static: the best *non-reconfiguring* configuration for a given
//! program and dataset, found with oracle knowledge over the sampled
//! space (§5.3).

use transmuter::metrics::{Metrics, OptMode};

use crate::stitch::SweepData;

/// Picks the sampled configuration with the best whole-run objective.
/// Returns `(config index, metrics)`.
///
/// # Panics
///
/// Panics if the sweep has no configurations (impossible by
/// construction).
pub fn ideal_static(sweep: &SweepData, mode: OptMode) -> (usize, Metrics) {
    (0..sweep.n_configs())
        .map(|c| (c, sweep.static_metrics(c)))
        .max_by(|a, b| {
            mode.score(&a.1)
                .partial_cmp(&mode.score(&b.1))
                .expect("scores are finite")
        })
        .expect("sweep has configurations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::SweepData;
    use transmuter::config::{MachineSpec, TransmuterConfig};
    use transmuter::workload::{Op, OpStream, Phase, Workload};

    fn sweep() -> SweepData {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..300u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 16384 + i * 8,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        let wl = Workload::new("w", vec![Phase::new("p", streams)]);
        SweepData::simulate(
            MachineSpec::default().with_epoch_ops(200),
            &wl,
            &[
                TransmuterConfig::baseline(),
                TransmuterConfig::best_avg_cache(),
                TransmuterConfig::maximum(),
            ],
            2,
        )
    }

    #[test]
    fn ideal_static_beats_or_ties_every_sampled_config() {
        let s = sweep();
        for mode in OptMode::ALL {
            let (best, m) = ideal_static(&s, mode);
            assert!(best < s.n_configs());
            for c in 0..s.n_configs() {
                assert!(
                    mode.score(&m) >= mode.score(&s.static_metrics(c)) - 1e-12,
                    "{mode:?}: config {c} beats 'best' {best}"
                );
            }
        }
    }
}
