//! Behavioural tests: the simulator must respond to each configuration
//! knob the way the paper's §3.2 mechanisms describe, because those
//! responses are the signal the predictive model learns from.

use transmuter::config::{ClockFreq, MachineSpec, SharingMode, TransmuterConfig};
use transmuter::machine::Machine;
use transmuter::workload::{Op, OpStream, Phase, Workload};

fn run(spec: MachineSpec, cfg: TransmuterConfig, wl: &Workload) -> transmuter::RunResult {
    Machine::new(spec, cfg).run(wl)
}

/// Each GPE loops over a private working set of `set_bytes`.
fn looping_workload(set_bytes: u64, iters: u64) -> Workload {
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let base = g as u64 * (set_bytes + 4096);
            let elems = set_bytes / 8;
            (0..iters)
                .flat_map(move |i| {
                    [
                        Op::Load {
                            addr: base + (i % elems) * 8,
                            pc: 1,
                        },
                        Op::Flops(1),
                    ]
                })
                .collect()
        })
        .collect();
    Workload::new("loop", vec![Phase::new("loop", streams)])
}

#[test]
fn larger_l1_captures_larger_working_sets() {
    // 16 kB per GPE working set: thrashes a 4 kB private bank, fits a
    // 32 kB one.
    let wl = looping_workload(16 * 1024, 20_000);
    let spec = MachineSpec::default();
    let mut small = TransmuterConfig::best_avg_cache();
    small.prefetch_degree = 0;
    let mut big = small;
    big.l1_capacity_kb = 32;
    let r_small = run(spec, small, &wl);
    let r_big = run(spec, big, &wl);
    let miss = |r: &transmuter::RunResult| r.epochs.last().unwrap().telemetry.l1_miss_rate;
    assert!(
        miss(&r_big) < miss(&r_small) * 0.2,
        "32 kB bank should capture the set: {} vs {}",
        miss(&r_big),
        miss(&r_small)
    );
    assert!(r_big.time_s < r_small.time_s);
}

#[test]
fn prefetch_accelerates_streaming() {
    // Pure streaming: every line is touched once, strides are stable.
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            let base = g as u64 * (1 << 22);
            (0..6_000u64)
                .flat_map(move |i| {
                    [
                        Op::Load {
                            addr: base + i * 32,
                            pc: 1,
                        },
                        Op::Flops(1),
                    ]
                })
                .collect()
        })
        .collect();
    let wl = Workload::new("stream", vec![Phase::new("stream", streams)]);
    let spec = MachineSpec::default().with_bandwidth_gbps(8.0);
    let mut off = TransmuterConfig::best_avg_cache();
    off.prefetch_degree = 0;
    let mut on = off;
    on.prefetch_degree = 8;
    let t_off = run(spec, off, &wl).time_s;
    let t_on = run(spec, on, &wl).time_s;
    assert!(
        t_on < t_off * 0.9,
        "prefetch should hide stream latency: {t_on} vs {t_off}"
    );
}

#[test]
fn compute_bound_work_scales_with_clock() {
    // Almost no memory traffic: time should scale ~linearly with the
    // clock period.
    let streams: Vec<OpStream> = (0..16)
        .map(|_| [Op::Flops(50_000)].into_iter().collect())
        .collect();
    let wl = Workload::new("alu", vec![Phase::new("alu", streams)]);
    let spec = MachineSpec::default();
    let fast = run(spec, TransmuterConfig::baseline(), &wl).time_s;
    let mut slow_cfg = TransmuterConfig::baseline();
    slow_cfg.clock = ClockFreq::Mhz250;
    let slow = run(spec, slow_cfg, &wl).time_s;
    let ratio = slow / fast;
    assert!(
        (3.5..4.5).contains(&ratio),
        "4x slower clock should be ~4x slower: {ratio}"
    );
}

#[test]
fn shared_l2_deduplicates_cross_tile_data() {
    // All GPEs (both tiles) read the same 48 kB block repeatedly. A
    // shared L2 (128 kB total at 64 kB banks) holds one copy reachable
    // by both tiles; private 64 kB-per-tile also fits it but must fetch
    // it twice. With a larger 100 kB block and 64 kB banks, private
    // thrashes while shared still fits.
    let block = 100 * 1024u64;
    let elems = block / 8;
    let streams: Vec<OpStream> = (0..16)
        .map(|g| {
            (0..30_000u64)
                .flat_map(move |i| {
                    [
                        Op::Load {
                            addr: ((i * 7 + g as u64 * 13) % elems) * 8,
                            pc: 1,
                        },
                        Op::Flops(1),
                    ]
                })
                .collect()
        })
        .collect();
    let wl = Workload::new("shared-data", vec![Phase::new("rd", streams)]);
    let spec = MachineSpec::default();
    let mut shared = TransmuterConfig::best_avg_cache();
    shared.l1_capacity_kb = 4;
    shared.l2_capacity_kb = 64;
    shared.l2_sharing = SharingMode::Shared;
    shared.prefetch_degree = 0;
    let mut private = shared;
    private.l2_sharing = SharingMode::Private;
    let r_shared = run(spec, shared, &wl);
    let r_private = run(spec, private, &wl);
    let l2_miss = |r: &transmuter::RunResult| r.epochs.last().unwrap().telemetry.l2_miss_rate;
    assert!(
        l2_miss(&r_shared) < l2_miss(&r_private),
        "shared L2 should fit the block once: {} vs {}",
        l2_miss(&r_shared),
        l2_miss(&r_private)
    );
}

#[test]
fn occupancy_counter_tracks_cache_fill() {
    let wl = looping_workload(2 * 1024, 2_000); // 2 kB set in 4 kB banks
    let spec = MachineSpec::default().with_epoch_ops(500);
    let mut cfg = TransmuterConfig::best_avg_cache();
    cfg.prefetch_degree = 0;
    let r = run(spec, cfg, &wl);
    let first = r.epochs.first().unwrap().telemetry.l1_occupancy;
    let last = r.epochs.last().unwrap().telemetry.l1_occupancy;
    assert!(
        last >= first,
        "occupancy should not shrink: {first} -> {last}"
    );
    // A 2 kB set fills ~half of each 4 kB bank.
    assert!((0.3..=0.75).contains(&last), "final occupancy {last}");
}

#[test]
fn energy_breaks_down_into_static_and_dynamic() {
    // Same work, two bandwidths: the slower run takes longer, so its
    // static share grows while its dynamic ops are identical — total
    // energy must be strictly larger.
    let wl = looping_workload(64 * 1024, 10_000);
    let fast = run(
        MachineSpec::default().with_bandwidth_gbps(8.0),
        TransmuterConfig::baseline(),
        &wl,
    );
    let slow = run(
        MachineSpec::default().with_bandwidth_gbps(0.25),
        TransmuterConfig::baseline(),
        &wl,
    );
    assert!(slow.time_s > fast.time_s);
    assert!(slow.energy_j > fast.energy_j);
}

#[test]
fn fp_op_epoch_totals_are_exact() {
    let wl = looping_workload(4 * 1024, 5_000);
    let spec = MachineSpec::default().with_epoch_ops(777);
    let r = run(spec, TransmuterConfig::baseline(), &wl);
    let total: u64 = r.epochs.iter().map(|e| e.fp_ops).sum();
    assert_eq!(total, r.fp_ops);
    assert_eq!(total, wl.total_fp_ops());
}
