//! ProfileAdapt (Dubach et al., MICRO '10) — the prior state of the art
//! compared against in §6.4.
//!
//! ProfileAdapt must observe each new phase in a *profiling
//! configuration* (every reconfigurable parameter at its maximum) before
//! it can predict, so every adaptation pays two extra switches (into and
//! out of profiling) and spends part of the epoch in the expensive
//! profiling configuration. Following §A.7 step 8, both variants are
//! applied on top of the Ideal Greedy sequence — a *pessimistic* (i.e.
//! generous to ProfileAdapt) assumption, since its real predictor could
//! not beat Ideal Greedy:
//!
//! * **naïve** — profiles at *every* epoch (no phase detector);
//! * **ideal** — profiles only at epochs where the configuration
//!   changes, i.e. assumes a perfect external phase detector (SimPoint),
//!   which the paper argues is unrealistic for implicit phases.

use transmuter::metrics::{Metrics, OptMode};
use transmuter::reconfig;

use crate::schemes::ideal_greedy;
use crate::stitch::SweepData;

/// Fraction of an epoch executed in the profiling configuration while
/// telemetry is collected.
pub const PROFILE_FRACTION: f64 = 0.25;

/// The outcome of a ProfileAdapt evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileAdaptOutcome {
    /// The underlying (Ideal Greedy) schedule.
    pub schedule: Vec<usize>,
    /// Metrics including profiling detours.
    pub metrics: Metrics,
    /// Number of profiling detours taken.
    pub profiling_events: usize,
}

/// Naïve ProfileAdapt: a profiling detour at every epoch.
///
/// # Panics
///
/// Panics if `profile_index` is out of range.
pub fn profileadapt_naive(
    sweep: &SweepData,
    mode: OptMode,
    profile_index: usize,
) -> ProfileAdaptOutcome {
    run(sweep, mode, profile_index, true)
}

/// Ideal ProfileAdapt: detours only when the configuration changes
/// (perfect external phase detection).
///
/// # Panics
///
/// Panics if `profile_index` is out of range.
pub fn profileadapt_ideal(
    sweep: &SweepData,
    mode: OptMode,
    profile_index: usize,
) -> ProfileAdaptOutcome {
    run(sweep, mode, profile_index, false)
}

fn run(
    sweep: &SweepData,
    mode: OptMode,
    profile_index: usize,
    every_epoch: bool,
) -> ProfileAdaptOutcome {
    assert!(
        profile_index < sweep.n_configs(),
        "profiling config index {profile_index} out of range"
    );
    let base = ideal_greedy(sweep, mode);
    let schedule = base.schedule;
    let mut m = Metrics::default();
    let mut profiling_events = 0usize;

    for (e, &c) in schedule.iter().enumerate() {
        let switching = e > 0 && schedule[e - 1] != c;
        let profile_here = every_epoch || switching || e == 0;
        if profile_here {
            profiling_events += 1;
            // Detour: previous config -> profiling -> chosen.
            let prev = if e > 0 { schedule[e - 1] } else { c };
            let into = reconfig::cost(
                &sweep.spec,
                &sweep.table,
                &sweep.configs[prev],
                &sweep.configs[profile_index],
            );
            let outof = reconfig::cost(
                &sweep.spec,
                &sweep.table,
                &sweep.configs[profile_index],
                &sweep.configs[c],
            );
            m.time_s += into.time_s + outof.time_s;
            m.energy_j += into.energy_j + outof.energy_j;
            // First slice of the epoch runs in the profiling config
            // (the work still counts — §A.7: "execution in the profiling
            // configuration also contributes to useful work").
            let prof = &sweep.traces[profile_index][e].metrics;
            let own = &sweep.traces[c][e].metrics;
            m.time_s += PROFILE_FRACTION * prof.time_s + (1.0 - PROFILE_FRACTION) * own.time_s;
            m.energy_j +=
                PROFILE_FRACTION * prof.energy_j + (1.0 - PROFILE_FRACTION) * own.energy_j;
            m.flops += own.flops;
        } else {
            m.accumulate(&sweep.traces[c][e].metrics);
            if switching {
                let cost = reconfig::cost(
                    &sweep.spec,
                    &sweep.table,
                    &sweep.configs[schedule[e - 1]],
                    &sweep.configs[c],
                );
                m.time_s += cost.time_s;
                m.energy_j += cost.energy_j;
            }
        }
    }
    ProfileAdaptOutcome {
        schedule,
        metrics: m,
        profiling_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::{sample_configs, SweepData};
    use transmuter::config::{MachineSpec, MemKind, TransmuterConfig};
    use transmuter::workload::{Op, OpStream, Phase, Workload};

    fn sweep() -> SweepData {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..500u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: ((g as u64 * 997 + i * 37) % 8192) * 64,
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
            MachineSpec::default().with_epoch_ops(250),
            &wl,
            &sample_configs(MemKind::Cache, 6, 3),
            3,
        )
    }

    fn max_index(s: &SweepData) -> usize {
        s.config_index(&TransmuterConfig::maximum())
            .expect("maximum sampled")
    }

    #[test]
    fn naive_profiles_every_epoch() {
        let s = sweep();
        let out = profileadapt_naive(&s, OptMode::EnergyEfficient, max_index(&s));
        assert_eq!(out.profiling_events, s.n_epochs());
    }

    #[test]
    fn ideal_profiles_at_most_as_often_as_naive() {
        let s = sweep();
        let p = max_index(&s);
        let naive = profileadapt_naive(&s, OptMode::EnergyEfficient, p);
        let ideal = profileadapt_ideal(&s, OptMode::EnergyEfficient, p);
        assert!(ideal.profiling_events <= naive.profiling_events);
        assert!(
            OptMode::EnergyEfficient.score(&ideal.metrics)
                >= OptMode::EnergyEfficient.score(&naive.metrics) - 1e-12,
            "ideal should not lose to naive"
        );
    }

    #[test]
    fn profileadapt_loses_to_bare_greedy() {
        // Dropping the profiling detours is exactly Ideal Greedy, so
        // ProfileAdapt can never beat it — the §6.4 headline.
        let s = sweep();
        let p = max_index(&s);
        for mode in OptMode::ALL {
            let greedy = ideal_greedy(&s, mode);
            let naive = profileadapt_naive(&s, mode, p);
            assert!(
                mode.score(&greedy.metrics) >= mode.score(&naive.metrics) - 1e-12,
                "{mode:?}"
            );
        }
    }
}
