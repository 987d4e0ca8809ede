//! Cross-crate integration tests: dataset generation → kernel
//! compilation → simulation → training → adaptive control → scheme
//! comparison, end to end.

use kernels::{bfs, spmspm, spmspv, sssp};
use sparse::gen::{rmat, uniform_random, uniform_random_vector, GenSeed};
use sparse::suite::{spec_by_id, Scale};
use sparseadapt::eval::{compare, ComparisonSetup};
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy, SparseAdaptController};
use trainer::collect::{collect, CollectOptions};
use trainer::scenarios::TrainingPreset;
use trainer::train::{train_ensemble, TrainOptions};
use transmuter::config::{MachineSpec, MemKind, TransmuterConfig};
use transmuter::machine::Machine;
use transmuter::metrics::OptMode;

fn tiny_collect_options() -> CollectOptions {
    CollectOptions {
        preset: TrainingPreset::Tiny,
        k_random: 5,
        seed: 42,
        threads: 2,
    }
}

fn tiny_ensemble(mode: OptMode) -> PredictiveEnsemble {
    let data = collect(MemKind::Cache, &tiny_collect_options());
    train_ensemble(
        &data.datasets_for(mode),
        &TrainOptions {
            grid: false,
            ..TrainOptions::default()
        },
    )
}

#[test]
fn suite_matrix_through_spmspm_pipeline() {
    // Generate a suite stand-in, multiply by its transpose on the
    // machine, and check both functional output and simulation sanity.
    let spec = spec_by_id("R02").expect("R02 exists");
    let m = spec.generate(Scale::Quick, GenSeed(1));
    let a = m.to_csc();
    let b = m.to_csr().transpose();
    let built = spmspm::build(&a, &b, 16);

    // Functional check against the dense reference.
    let dense = m.to_csr().matmul_dense_reference(&b);
    for (r, c, v) in built.result.iter().take(500) {
        assert!((v - dense[r as usize][c as usize]).abs() < 1e-9);
    }

    // Simulation sanity.
    let machine_spec = MachineSpec::default().with_epoch_ops(1_000);
    let run = Machine::new(machine_spec, TransmuterConfig::baseline()).run(&built.workload);
    assert!(run.time_s > 0.0 && run.energy_j > 0.0);
    assert_eq!(run.fp_ops, built.workload.total_fp_ops());
    assert!(run.epochs.len() > 1);
}

#[test]
fn graph_kernels_agree_with_references_end_to_end() {
    let g = rmat(256, 2_000, GenSeed(2)).to_csc();
    let b = bfs::build(&g, 0, 16);
    assert_eq!(b.levels, bfs::reference_levels(&g, 0));
    let s = sssp::build(&g, 0, 16);
    let reference = sssp::reference_distances(&g, 0);
    for (a, b) in s.dist.iter().zip(&reference) {
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            other => panic!("distance mismatch: {other:?}"),
        }
    }
    // Both run on the machine.
    let spec = MachineSpec::default().with_epoch_ops(500);
    assert!(Machine::new(spec, TransmuterConfig::baseline())
        .run(&b.workload)
        .time_s
        .is_finite());
}

#[test]
fn trained_controller_beats_max_cfg_efficiency() {
    // The core claim of the paper, end to end at tiny scale: a model
    // trained on uniform sweeps drives the machine to (much) better
    // energy efficiency than the Maximum static configuration.
    let ensemble = tiny_ensemble(OptMode::EnergyEfficient);
    let a = rmat(512, 4_000, GenSeed(3)).to_csc();
    let x = uniform_random_vector(512, 0.5, GenSeed(4));
    let spec = MachineSpec::default().with_epoch_ops(250);
    let built = spmspv::build(&a, &x, spec.geometry.gpe_count());

    let max_run = Machine::new(spec, TransmuterConfig::maximum()).run(&built.workload);
    let mut ctrl = SparseAdaptController::new(ensemble, ReconfigPolicy::hybrid40(), spec);
    let adaptive = Machine::new(spec, TransmuterConfig::best_avg_cache())
        .run_with_controller(&built.workload, &mut ctrl);

    let gain = adaptive.metrics().gflops_per_watt() / max_run.metrics().gflops_per_watt();
    assert!(
        gain > 1.5,
        "adaptive should be far more efficient than MaxCfg, got {gain:.2}x"
    );
}

#[test]
fn full_scheme_comparison_is_internally_consistent() {
    let ensemble = tiny_ensemble(OptMode::EnergyEfficient);
    let a = uniform_random(384, 3_000, GenSeed(5)).to_csc();
    let x = uniform_random_vector(384, 0.5, GenSeed(6));
    let built = spmspv::build(&a, &x, 16);
    let setup = ComparisonSetup {
        spec: MachineSpec::default().with_epoch_ops(250),
        mode: OptMode::EnergyEfficient,
        policy: ReconfigPolicy::hybrid40(),
        l1_kind: MemKind::Cache,
        sampled: 8,
        seed: 11,
        threads: 2,
    };
    let cmp = compare(&built.workload, &ensemble, &setup);
    let score = |m| OptMode::EnergyEfficient.score(m);
    // Oracle >= greedy >= profileadapt variants; oracle >= ideal static
    // >= named statics.
    assert!(score(&cmp.oracle) >= score(&cmp.ideal_greedy) - 1e-12);
    assert!(score(&cmp.ideal_greedy) >= score(&cmp.profileadapt_ideal) - 1e-12);
    assert!(score(&cmp.profileadapt_ideal) >= score(&cmp.profileadapt_naive) - 1e-12);
    assert!(score(&cmp.oracle) >= score(&cmp.ideal_static) - 1e-12);
    for s in [&cmp.baseline, &cmp.best_avg, &cmp.max_cfg] {
        assert!(score(&cmp.ideal_static) >= score(s) - 1e-12);
    }
}

#[test]
fn stitched_epochs_match_live_static_run() {
    // The stitching methodology's soundness: a constant schedule over
    // the sweep equals an actual static simulation.
    let a = uniform_random(256, 2_000, GenSeed(7)).to_csc();
    let x = uniform_random_vector(256, 0.5, GenSeed(8));
    let built = spmspv::build(&a, &x, 16);
    let spec = MachineSpec::default().with_epoch_ops(300);
    let configs = sample_configs(MemKind::Cache, 5, 13);
    let sweep = SweepData::simulate(spec, &built.workload, &configs, 2);
    for (c, cfg) in configs.iter().enumerate() {
        let live = Machine::new(spec, *cfg).run(&built.workload);
        let stitched = sweep.static_metrics(c);
        assert!(
            (live.time_s - stitched.time_s).abs() / live.time_s < 1e-9,
            "config {c} time mismatch"
        );
        assert!(
            (live.energy_j - stitched.energy_j).abs() / live.energy_j < 1e-9,
            "config {c} energy mismatch"
        );
    }
}

#[test]
fn model_roundtrip_preserves_predictions() {
    let ensemble = tiny_ensemble(OptMode::PowerPerformance);
    let json = ensemble.to_json();
    let restored = PredictiveEnsemble::from_json(&json).expect("valid model JSON");
    // Same predictions on a grid of synthetic telemetry points.
    let mut telemetry = transmuter::counters::Telemetry::default();
    for i in 0..20 {
        telemetry.l1_miss_rate = i as f64 / 20.0;
        telemetry.mem_read_util = 1.0 - i as f64 / 20.0;
        telemetry.gpe_fp_ipc = 0.05 * i as f64;
        let cfg = TransmuterConfig::baseline();
        assert_eq!(
            ensemble.predict(&telemetry, &cfg),
            restored.predict(&telemetry, &cfg)
        );
    }
}

#[test]
fn paper_rejects_unknown_experiments_and_flags_with_usage() {
    for args in [&["fig1", "fig99"][..], &["--serial", "fig1"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("paper binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: paper "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
