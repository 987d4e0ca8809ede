//! Property tests for the [`MachineState`] snapshot layer that the
//! epoch cache is built on: serialisation must be a lossless involution,
//! restore must reproduce the captured state exactly, and the digest
//! must be sound as a cache-key component (two states with different
//! digests are genuinely different states).
//!
//! Snapshots taken at hooked boundaries share copy-on-write cache pages
//! with each other and with the live machine, so the second half checks
//! the sharing: digests folded from cached page hashes equal a
//! from-scratch recompute, a snapshot never changes after it is taken,
//! and resuming from any boundary's snapshot reproduces the run.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use transmuter::config::{ConfigParam, MachineSpec, TransmuterConfig};
use transmuter::machine::{
    CachedEpoch, Controller, EpochBoundary, EpochHook, EpochRecord, Machine, MachineState,
    RunResult,
};
use transmuter::workload::{OpStream, Phase, Workload};

/// A configuration picked by ordinal index along every §3 dimension,
/// with the six indices unpacked from one seed (the vendored proptest
/// has no fixed-size array strategies).
fn config_from_seed(seed: u64) -> TransmuterConfig {
    let mut cfg = TransmuterConfig::baseline();
    for (lane, param) in ConfigParam::ALL.into_iter().enumerate() {
        let pick = (seed >> (8 * lane)) as usize & 0xff;
        param.set_index(&mut cfg, pick % param.value_count());
    }
    cfg
}

/// A small deterministic workload whose memory behaviour — and therefore
/// whose end-of-run machine state — varies with every parameter.
fn workload(stride: u64, iters: u64, pcs: u32, store_every: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let base = g as u64 * (1 << 20);
            let mut ops = OpStream::with_capacity(3 * iters as usize);
            for i in 0..iters {
                ops.push_load(base + i * stride, 1 + (i as u32 % pcs));
                if i % store_every == 0 {
                    ops.push_store(base + i * stride + 8, 100 + (i as u32 % pcs));
                }
                ops.push_flops(1 + (i as u32 % 3));
            }
            ops
        })
        .collect();
    Workload::new("snapshot-props", vec![Phase::new("p", streams)])
}

/// Runs the workload to completion and snapshots the end-of-run state.
fn end_state(cfg: TransmuterConfig, wl: &Workload) -> (MachineSpec, MachineState) {
    let spec = MachineSpec::default().with_epoch_ops(400);
    let mut machine = Machine::new(spec, cfg);
    machine.run(wl);
    let state = machine.snapshot();
    (spec, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `from_bytes(to_bytes(s))` is the identity, and the digest is a
    /// pure function of the state (clone and decode digest equally).
    #[test]
    fn byte_roundtrip_is_identity(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..300,
        pcs in 1u32..8,
        store_every in 1u64..9,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let (_, state) = end_state(cfg, &workload(stride, iters, pcs, store_every));
        let bytes = state.to_bytes();
        let decoded = MachineState::from_bytes(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&state));
        prop_assert_eq!(decoded.unwrap().digest(), state.digest());
        prop_assert_eq!(state.clone().digest(), state.digest());
    }

    /// Restoring a snapshot into a fresh machine of the same spec and
    /// re-snapshotting reproduces it bit-for-bit, digest included.
    #[test]
    fn restore_then_snapshot_reproduces_the_state(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..300,
        pcs in 1u32..8,
        store_every in 1u64..9,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let (spec, state) = end_state(cfg, &workload(stride, iters, pcs, store_every));
        let mut fresh = Machine::new(spec, TransmuterConfig::baseline());
        fresh.restore(&state);
        let again = fresh.snapshot();
        prop_assert_eq!(&again, &state);
        prop_assert_eq!(again.digest(), state.digest());
    }

    /// Any truncation or trailing garbage is rejected (`None`), never
    /// silently decoded into some other state — a corrupt disk-cache
    /// entry must read as a miss, not as wrong physics.
    #[test]
    fn damaged_bytes_never_decode(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..200,
        cut_frac in 0.0f64..1.0,
        garbage in 1usize..16,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let (_, state) = end_state(cfg, &workload(stride, iters, 3, 4));
        let bytes = state.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(MachineState::from_bytes(&bytes[..cut]), None);
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0xA5, garbage));
        prop_assert_eq!(MachineState::from_bytes(&padded), None);
    }

    /// The sound direction of the digest contract: unequal digests imply
    /// unequal states (equal states can never digest differently). The
    /// two states here come from runs whose lengths differ, so they are
    /// expected — not required — to differ; the property must hold
    /// either way.
    #[test]
    fn digest_inequality_implies_state_inequality(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..200,
        extra in 1u64..100,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let (_, a) = end_state(cfg, &workload(stride, iters, 3, 4));
        let (_, b) = end_state(cfg, &workload(stride, iters + extra, 3, 4));
        if a.digest() != b.digest() {
            prop_assert_ne!(&a, &b);
            prop_assert_ne!(a.to_bytes(), b.to_bytes());
        }
    }
}

/// Deterministic sensitivity check: running further mutates the state,
/// and the digest tracks that mutation. (Kept outside the proptest block
/// because it asserts digests *differ*, which is a near-certainty, not a
/// logical invariant.)
#[test]
fn digest_tracks_state_mutation() {
    let cfg = TransmuterConfig::baseline();
    let (_, short) = end_state(cfg, &workload(64, 120, 3, 4));
    let (_, long) = end_state(cfg, &workload(64, 240, 3, 4));
    assert_ne!(short, long, "longer run must leave different state");
    assert_ne!(
        short.digest(),
        long.digest(),
        "digest must separate states that differ"
    );
}

/// Reconfigures at pseudo-random boundaries to configurations drawn
/// from every §3 dimension, so runs grow, shrink and flush their caches
/// mid-run. Decisions depend only on the epoch index, so replays of the
/// same run decide identically.
struct RandomReconfig {
    seed: u64,
    every: u64,
}

impl RandomReconfig {
    fn decision(&self, index: usize) -> Option<TransmuterConfig> {
        let mix = (self.seed ^ index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mix.is_multiple_of(self.every)
            .then(|| config_from_seed(mix.rotate_left(29)))
    }
}

impl Controller for RandomReconfig {
    fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
        self.decision(record.index)
    }
}

/// Records every boundary the run looks up and every epoch it records,
/// and serves hits for boundaries below `serve_below` from `cached`.
#[derive(Default)]
struct Recorder {
    lookups: Vec<EpochBoundary>,
    recorded: Vec<(EpochBoundary, Arc<CachedEpoch>, Vec<u8>)>,
    cached: HashMap<EpochBoundary, Arc<CachedEpoch>>,
    serve_below: usize,
    hits: usize,
}

impl EpochHook for Recorder {
    fn lookup(&mut self, boundary: &EpochBoundary) -> Option<Arc<CachedEpoch>> {
        self.lookups.push(*boundary);
        if boundary.index >= self.serve_below {
            return None;
        }
        let hit = self.cached.get(boundary).cloned();
        self.hits += usize::from(hit.is_some());
        hit
    }

    fn record(&mut self, boundary: &EpochBoundary, epoch: CachedEpoch) {
        let bytes = epoch.exit.to_bytes();
        self.recorded.push((*boundary, Arc::new(epoch), bytes));
    }
}

/// A short-epoch spec, so every run crosses many hooked boundaries.
fn short_epochs() -> MachineSpec {
    MachineSpec::default().with_epoch_ops(150)
}

/// Runs `wl` from `cfg` under `ctrl` with `hook` attached.
fn hooked_run(
    cfg: TransmuterConfig,
    wl: &Workload,
    ctrl: &mut RandomReconfig,
    hook: &mut Recorder,
) -> RunResult {
    Machine::new(short_epochs(), cfg).run_with_controller_and_hook(wl, ctrl, hook)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every hooked boundary's digest — folded from the cache pages'
    /// cached hashes — equals a from-scratch recompute, on runs that
    /// grow, shrink and flush mid-run. Exit snapshots are recomputed
    /// from their bytes; entry digests must equal the previous exit's
    /// wherever the controller kept the configuration. (Debug builds
    /// additionally check every boundary, reconfigured ones included,
    /// against a from-scratch copy of the live lines inside the run.)
    #[test]
    fn committed_digests_match_a_from_scratch_recompute(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..250,
        pcs in 1u32..8,
        store_every in 1u64..9,
        reconfig_seed in 0u64..u64::MAX,
        every in 1u64..5,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let wl = workload(stride, iters, pcs, store_every);
        let mut ctrl = RandomReconfig { seed: reconfig_seed, every };
        let mut unhooked = Machine::new(short_epochs(), cfg);
        let plain = unhooked.run_with_controller(&wl, &mut ctrl);
        let mut hook = Recorder::default();
        let run = hooked_run(cfg, &wl, &mut ctrl, &mut hook);
        prop_assert_eq!(&run, &plain);
        prop_assert_eq!(hook.recorded.len(), run.epochs.len());
        // The last exit snapshot, built from committed pages, holds what
        // an unhooked machine (which never commits) ends the run with.
        // Restoring both drops the run-loop position, which only the
        // hooked snapshot carries.
        let (_, last, _) = hook.recorded.last().expect("a recorded epoch");
        let mut from_commits = Machine::new(short_epochs(), cfg);
        from_commits.restore(&last.exit);
        let mut from_lines = Machine::new(short_epochs(), cfg);
        from_lines.restore(&unhooked.snapshot());
        prop_assert_eq!(from_commits.snapshot(), from_lines.snapshot());
        let fresh = Machine::new(short_epochs(), cfg).snapshot();
        prop_assert_eq!(hook.lookups[0].entry_digest, fresh.digest());
        for (k, (_, epoch, bytes)) in hook.recorded.iter().enumerate() {
            let recomputed = MachineState::from_bytes(bytes).expect("snapshot decodes");
            prop_assert_eq!(&recomputed, &epoch.exit);
            prop_assert_eq!(recomputed.digest(), epoch.exit.digest());
            let kept_config = ctrl.decision(k).is_none_or(|c| c == run.epochs[k].config);
            if let (Some(next), true) = (hook.lookups.get(k + 1), kept_config) {
                prop_assert!(
                    next.entry_digest == epoch.exit.digest(),
                    "entry digest of boundary {} differs from the previous exit",
                    k + 1
                );
            }
        }
    }

    /// Copy-on-write never aliases: a snapshot's bytes do not change
    /// after the machine that took it runs on, nor after another
    /// machine restores it (and so shares its pages) and runs on.
    #[test]
    fn snapshots_do_not_change_after_the_machine_runs_on(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..250,
        store_every in 1u64..9,
        reconfig_seed in 0u64..u64::MAX,
        every in 1u64..5,
        pick in 0usize..1000,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let wl = workload(stride, iters, 3, store_every);
        let mut ctrl = RandomReconfig { seed: reconfig_seed, every };
        let mut hook = Recorder::default();
        let mut machine = Machine::new(short_epochs(), cfg);
        machine.run_with_controller_and_hook(&wl, &mut ctrl, &mut hook);
        let taken = machine.snapshot();
        let taken_bytes = taken.to_bytes();
        // The machine runs on: a second pass mutates every cache again.
        machine.run_with_controller_and_hook(&wl, &mut ctrl, &mut Recorder::default());
        prop_assert_eq!(taken.to_bytes(), taken_bytes);
        // Another machine adopts one snapshot's pages and runs on.
        let (_, adopted, _) = &hook.recorded[pick % hook.recorded.len()];
        let mut other = Machine::new(short_epochs(), cfg);
        other.restore(&adopted.exit);
        other.run_with_controller_and_hook(&wl, &mut ctrl, &mut Recorder::default());
        for (k, (_, epoch, bytes)) in hook.recorded.iter().enumerate() {
            prop_assert!(&epoch.exit.to_bytes() == bytes, "snapshot {} changed", k);
        }
    }

    /// Fast-forwarding a fresh machine through boundaries `0..k` from
    /// the recorded snapshots — each restore copying only the pages that
    /// differ from the last — and simulating on from there reproduces
    /// the uninterrupted run's records, and every boundary digests
    /// exactly as the uninterrupted run's did.
    #[test]
    fn resuming_from_boundary_k_reproduces_the_run(
        cfg_seed in 0u64..u64::MAX,
        stride in 8u64..256,
        iters in 50u64..250,
        pcs in 1u32..8,
        reconfig_seed in 0u64..u64::MAX,
        every in 1u64..5,
        pick in 0usize..1000,
    ) {
        let cfg = config_from_seed(cfg_seed);
        let wl = workload(stride, iters, pcs, 3);
        let mut ctrl = RandomReconfig { seed: reconfig_seed, every };
        let mut first = Recorder::default();
        let uninterrupted = hooked_run(cfg, &wl, &mut ctrl, &mut first);
        let k = 1 + pick % uninterrupted.epochs.len();
        let mut resumed = Recorder {
            cached: first
                .recorded
                .iter()
                .map(|(b, e, _)| (*b, Arc::clone(e)))
                .collect(),
            serve_below: k,
            ..Recorder::default()
        };
        let run = hooked_run(cfg, &wl, &mut ctrl, &mut resumed);
        prop_assert_eq!(&run, &uninterrupted);
        prop_assert_eq!(resumed.hits, k);
        // A run fast-forwarded through its final epoch probes one
        // boundary past it; every boundary both runs saw must match.
        prop_assert!(resumed.lookups.starts_with(&first.lookups));
    }
}
