//! Live replay of a per-epoch configuration schedule.
//!
//! The stitched schemes ([`crate::schemes::ideal_greedy`],
//! [`crate::schemes::profileadapt_naive`], …) produce a schedule: one
//! sweep-config index per epoch. Stitching evaluates that schedule by
//! table lookup; [`ScheduleController`] instead *executes* it on the
//! live simulator, which is what the epoch-cache benchmark needs — a
//! live run whose epochs a warmed cache can fast-forward — and doubles
//! as an independent check that stitched and live evaluation agree.

use transmuter::config::TransmuterConfig;
use transmuter::machine::{Controller, EpochRecord};

/// A [`Controller`] that replays a fixed per-epoch configuration
/// schedule: at the boundary ending epoch `k` it requests the schedule's
/// configuration for epoch `k + 1`.
///
/// The machine must be *started* in `schedule[0]`; the controller only
/// steers the boundaries after it.
#[derive(Debug, Clone)]
pub struct ScheduleController {
    schedule: Vec<TransmuterConfig>,
    /// Epochs at which a reconfiguration was requested.
    switches: usize,
}

impl ScheduleController {
    /// Builds the controller for `schedule`, where `schedule[e]` is the
    /// configuration epoch `e` must execute under.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn new(schedule: Vec<TransmuterConfig>) -> Self {
        assert!(!schedule.is_empty(), "empty schedule");
        ScheduleController {
            schedule,
            switches: 0,
        }
    }

    /// The configuration the machine must start in (`schedule[0]`).
    pub fn start_config(&self) -> TransmuterConfig {
        self.schedule[0]
    }

    /// Number of boundaries at which a configuration change was
    /// requested.
    pub fn switches(&self) -> usize {
        self.switches
    }
}

impl Controller for ScheduleController {
    fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
        let next = *self.schedule.get(record.index + 1)?;
        if next != record.config {
            self.switches += 1;
            Some(next)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::config::MachineSpec;
    use transmuter::machine::Machine;
    use transmuter::workload::{Op, OpStream, Phase, Workload};

    fn workload() -> Workload {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..400u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 32768 + i * 16,
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

    #[test]
    fn constant_schedule_matches_static_run() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let cfg = TransmuterConfig::baseline();
        let wl = workload();
        let plain = Machine::new(spec, cfg).run(&wl);
        let mut ctrl = ScheduleController::new(vec![cfg; plain.epochs.len()]);
        let replayed = Machine::new(spec, ctrl.start_config()).run_with_controller(&wl, &mut ctrl);
        assert_eq!(replayed, plain);
        assert_eq!(ctrl.switches(), 0);
    }

    #[test]
    fn switching_schedule_changes_config_at_the_right_epoch() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let a = TransmuterConfig::baseline();
        let b = TransmuterConfig::best_avg_cache();
        let wl = workload();
        let n = Machine::new(spec, a).run(&wl).epochs.len();
        assert!(n >= 3, "need enough epochs to switch mid-run");
        let mut schedule = vec![a; n];
        for c in schedule.iter_mut().skip(2) {
            *c = b;
        }
        let mut ctrl = ScheduleController::new(schedule);
        let run = Machine::new(spec, ctrl.start_config()).run_with_controller(&wl, &mut ctrl);
        assert_eq!(ctrl.switches(), 1);
        assert_eq!(run.epochs[1].config, a);
        assert_eq!(run.epochs[2].config, b);
        // The switch boundary carries the §3.4 reconfiguration cost.
        assert!(run.epochs[2].reconfig_time_s > 0.0);
    }

    #[test]
    fn short_schedule_just_stops_steering() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let cfg = TransmuterConfig::baseline();
        let wl = workload();
        let plain = Machine::new(spec, cfg).run(&wl);
        // One-entry schedule: never reconfigures, matches the plain run.
        let mut ctrl = ScheduleController::new(vec![cfg]);
        let run = Machine::new(spec, cfg).run_with_controller(&wl, &mut ctrl);
        assert_eq!(run, plain);
    }
}
