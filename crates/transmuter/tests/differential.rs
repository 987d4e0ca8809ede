//! Differential tests: the optimised SoA + batched-HBM simulation path
//! must be *bit-identical* to the frozen reference path (the pre-SoA
//! per-event inner loop kept as [`Machine::run_reference`]).
//!
//! Bit-identity is the contract the whole artifact leans on: epoch
//! traces are content-addressed in a cross-process cache and stitched
//! across configurations, so even a one-ULP drift in a telemetry lane
//! would poison cached results and golden digests. Every test here
//! asserts full [`RunResult`] equality — every epoch, every metric,
//! every telemetry feature — across workload shapes chosen to exercise
//! different corners of the machine (streaming, cache-thrashing, bank
//! contention, SPM regions, multi-phase, reconfiguration).
//!
//! The reference path derives each demand L1 access's energy from the
//! energy table afresh, so these tests also check the SoA path's
//! per-config precomputed one, over every bank capacity.

use transmuter::config::{
    ClockFreq, MachineSpec, MemKind, SharingMode, TransmuterConfig, CAPACITIES_KB, PREFETCH_DEGREES,
};
use transmuter::machine::{Controller, EpochRecord, Machine};
use transmuter::workload::{OpStream, Phase, Region, Workload};

/// Runs both paths on fresh machines and demands exact equality.
fn assert_paths_agree(spec: MachineSpec, cfg: TransmuterConfig, wl: &Workload) {
    let soa = Machine::new(spec, cfg).run(wl);
    let reference = Machine::new(spec, cfg).run_reference(wl);
    assert_eq!(
        soa, reference,
        "SoA and reference paths diverged on '{}'",
        wl.name
    );
}

/// Cache-L1 configurations: the Table 4 points, then a walk that gives
/// each layer every capacity (L1 growing while L2 shrinks), both sharing
/// modes on both layers in all four pairings, every prefetch degree and
/// several clocks. Cycled in order, it grows and shrinks both layers.
fn configs_under_test() -> Vec<TransmuterConfig> {
    let mut cfgs = vec![
        TransmuterConfig::baseline(),
        TransmuterConfig::best_avg_cache(),
    ];
    let mut slow = TransmuterConfig::baseline();
    slow.clock = ClockFreq::Mhz125;
    slow.prefetch_degree = 8;
    cfgs.push(slow);
    let mut shared = TransmuterConfig::best_avg_cache();
    shared.l1_sharing = SharingMode::Shared;
    shared.l2_sharing = SharingMode::Shared;
    shared.l1_capacity_kb = 4;
    cfgs.push(shared);
    let modes = [SharingMode::Shared, SharingMode::Private];
    for (i, &l1_kb) in CAPACITIES_KB.iter().enumerate() {
        cfgs.push(TransmuterConfig {
            l1_kind: MemKind::Cache,
            l1_sharing: modes[i % 2],
            l2_sharing: modes[i / 2 % 2],
            l1_capacity_kb: l1_kb,
            l2_capacity_kb: CAPACITIES_KB[CAPACITIES_KB.len() - 1 - i],
            clock: ClockFreq::ALL[5 - i % 3],
            prefetch_degree: PREFETCH_DEGREES[i % PREFETCH_DEGREES.len()],
        });
    }
    cfgs
}

/// Scratchpad-L1 configurations (the L1 kind never changes at run time,
/// so these are not cycled with the cache ones).
fn spm_configs_under_test() -> Vec<TransmuterConfig> {
    let mut big = TransmuterConfig::best_avg_spm();
    big.l1_sharing = SharingMode::Shared;
    big.l1_capacity_kb = 64;
    big.l2_capacity_kb = 8;
    big.prefetch_degree = 0;
    vec![TransmuterConfig::best_avg_spm(), big]
}

/// Pure streaming: stable strides, prefetcher-friendly, HBM-bound.
fn streaming(iters: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let base = g as u64 * (1 << 22);
            let mut ops = OpStream::with_capacity(2 * iters as usize);
            for i in 0..iters {
                ops.push_load(base + i * 32, 1);
                ops.push_flops(1);
            }
            ops
        })
        .collect();
    Workload::new("streaming", vec![Phase::new("stream", streams)])
}

/// Pseudo-random addresses in a working set that thrashes small banks.
fn random_access(iters: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let set = 64 * 1024u64;
            let mut ops = OpStream::with_capacity(3 * iters as usize);
            let mut x = 0x9E37_79B9u64.wrapping_add(g as u64);
            for i in 0..iters {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (g as u64 * (1 << 21) + (x % set)) & !7;
                if i % 3 == 0 {
                    ops.push_store(addr, 2);
                } else {
                    ops.push_load(addr, 3);
                }
                ops.push_int_ops(2);
            }
            ops
        })
        .collect();
    Workload::new("random", vec![Phase::new("rand", streams)])
}

/// Every GPE hammers the same lines: crossbar and bank contention, and
/// (under shared sharing modes) cross-tile reuse.
fn hot_bank(iters: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let mut ops = OpStream::with_capacity(2 * iters as usize);
            for i in 0..iters {
                ops.push_load(((i * 7 + g as u64 * 13) % 512) * 8, 1);
                ops.push_flops(2);
            }
            ops
        })
        .collect();
    Workload::new("hot-bank", vec![Phase::new("hot", streams)])
}

/// Accesses inside an SPM region plus spill traffic outside it, over
/// two phases with different shapes.
fn spm_multi_phase(iters: u64) -> Workload {
    let region = Region {
        base: 1 << 20,
        bytes: 32 * 1024,
    };
    let spm_streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let mut ops = OpStream::with_capacity(2 * iters as usize);
            for i in 0..iters {
                ops.push_load(
                    (region.base + ((g as u64 * 97 + i * 8) % region.bytes)) & !7,
                    4,
                );
                ops.push_flops(1);
            }
            ops
        })
        .collect();
    let spill_streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let mut ops = OpStream::with_capacity(2 * iters as usize);
            for i in 0..iters {
                ops.push_store((1 << 24) + g as u64 * 8192 + i * 32, 5);
                ops.push_int_ops(1);
            }
            ops
        })
        .collect();
    Workload::new(
        "spm-multiphase",
        vec![
            Phase::new("spm", spm_streams).with_spm_regions(vec![region]),
            Phase::new("spill", spill_streams),
        ],
    )
}

/// Imbalanced: GPE g gets g× the work, so some GPEs finish phases and
/// epochs long before others (stresses the run-ahead heap logic).
fn imbalanced(iters: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let n = iters * (g as u64 + 1) / 4;
            let mut ops = OpStream::with_capacity(2 * n as usize);
            for i in 0..n {
                ops.push_load(g as u64 * (1 << 20) + i * 16, 1);
                ops.push_flops(1);
            }
            ops
        })
        .collect();
    Workload::new("imbalanced", vec![Phase::new("skew", streams)])
}

#[test]
fn all_shapes_agree_across_configs() {
    let spec = MachineSpec::default().with_epoch_ops(700);
    let workloads = [
        streaming(900),
        random_access(700),
        hot_bank(900),
        spm_multi_phase(500),
        imbalanced(600),
    ];
    for wl in &workloads {
        for cfg in configs_under_test()
            .into_iter()
            .chain(spm_configs_under_test())
        {
            assert_paths_agree(spec, cfg, wl);
        }
    }
}

#[test]
fn empty_phase_streams_produce_one_empty_epoch() {
    let spec = MachineSpec::default();
    let streams = vec![OpStream::with_capacity(0); spec.geometry.gpe_count()];
    let wl = Workload::new("empty", vec![Phase::new("nil", streams)]);
    for cfg in [TransmuterConfig::baseline(), TransmuterConfig::maximum()] {
        assert_paths_agree(spec, cfg, &wl);
        assert_eq!(Machine::new(spec, cfg).run(&wl).epochs.len(), 1);
    }
}

#[test]
fn agreement_holds_under_tight_epoch_quota() {
    // Tiny epochs maximise quota pauses and epoch-boundary stitching.
    let spec = MachineSpec::default().with_epoch_ops(50);
    assert_paths_agree(spec, TransmuterConfig::baseline(), &streaming(400));
    assert_paths_agree(spec, TransmuterConfig::best_avg_cache(), &imbalanced(300));
}

#[test]
fn agreement_holds_under_low_bandwidth() {
    // Starved HBM keeps long pending queues in the batched path.
    let spec = MachineSpec::default()
        .with_bandwidth_gbps(0.125)
        .with_epoch_ops(800);
    assert_paths_agree(spec, TransmuterConfig::baseline(), &streaming(1200));
    assert_paths_agree(
        spec,
        TransmuterConfig::best_avg_cache(),
        &random_access(800),
    );
}

#[test]
fn agreement_holds_while_reconfiguring() {
    /// Cycles through configurations every epoch, exercising
    /// reconfiguration stalls on both paths.
    struct Cycler {
        cfgs: Vec<TransmuterConfig>,
    }
    impl Controller for Cycler {
        fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
            Some(self.cfgs[(record.index + 1) % self.cfgs.len()])
        }
    }
    // Epochs short enough that each run cycles through every config.
    let spec = MachineSpec::default().with_epoch_ops(150);
    let cycle = configs_under_test();
    for wl in [streaming(900), hot_bank(700)] {
        let mut a = Cycler {
            cfgs: cycle.clone(),
        };
        let mut b = Cycler {
            cfgs: cycle.clone(),
        };
        let soa = Machine::new(spec, TransmuterConfig::baseline()).run_with_controller(&wl, &mut a);
        let reference = Machine::new(spec, TransmuterConfig::baseline())
            .run_reference_with_controller(&wl, &mut b);
        assert!(
            soa.epochs.len() > cycle.len(),
            "{} epochs",
            soa.epochs.len()
        );
        assert_eq!(soa, reference, "paths diverged under reconfiguration");
    }
}
