//! Differential proof of epoch-cache soundness: every §5.3 scheme
//! produces **bit-identical** results with the epoch cache off, on-cold,
//! and on-warm, across kernel workloads and both L1 kinds.
//!
//! The epoch cache's correctness argument is by construction (the key
//! includes a digest of the machine state entering the epoch), but this
//! suite is the executable form of that argument: it runs the full
//! [`sparseadapt::eval::compare`] pipeline — sweeps, stitched schemes,
//! and the live SparseAdapt controller — three times per scenario and
//! requires `SchemeComparison` equality down to the float bits, while
//! also requiring that the cached passes actually *hit* (a cache that
//! never hits is trivially sound). Live runs are the cache's only
//! writers and readers, and a second test holds sweeps to that.
//!
//! This lives in its own test binary because it toggles the process-wide
//! [`EpochCache::global`] enabled flag; its tests take [`GLOBAL_FLAG`]
//! so they never overlap.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use mltree::{Dataset, DecisionTree, TreeParams};
use sa_bench::workloads;
use sparse::suite::{spec_by_id, Scale};
use sparseadapt::epoch_cache::EpochCache;
use sparseadapt::eval::{compare, reference_configs, ComparisonSetup};
use sparseadapt::features::{feature_names, FEATURE_COUNT};
use sparseadapt::runtime::run_live;
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::trace_cache::TraceCache;
use sparseadapt::PredictiveEnsemble;
use transmuter::config::{ConfigParam, MemKind, TransmuterConfig};
use transmuter::machine::StaticController;
use transmuter::workload::Workload;

/// Held by every test here: each one toggles and clears the
/// process-wide caches.
static GLOBAL_FLAG: Mutex<()> = Mutex::new(());

fn hold_global_flag() -> MutexGuard<'static, ()> {
    GLOBAL_FLAG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A deterministic ensemble that asks for a 125 MHz clock and the Best
/// Avg values elsewhere. The live run starts at Best Avg, so the clock
/// prediction forces a real reconfiguration (after the two-in-a-row
/// debounce) — the epoch cache must survive the hit→miss transition at
/// the divergence point, not just all-hit replays.
fn downclock_ensemble(l1_kind: MemKind) -> PredictiveEnsemble {
    let best_avg = match l1_kind {
        MemKind::Cache => TransmuterConfig::best_avg_cache(),
        MemKind::Spm => TransmuterConfig::best_avg_spm(),
    };
    let mut trees = BTreeMap::new();
    for p in ConfigParam::ALL {
        let target = match p {
            ConfigParam::Clock => 2, // 125 MHz
            _ => p.get_index(&best_avg),
        };
        let mut d = Dataset::new(feature_names());
        d.push(vec![0.0; FEATURE_COUNT], target);
        d.push(vec![1.0; FEATURE_COUNT], target);
        trees.insert(p, DecisionTree::fit(&d, &TreeParams::default()));
    }
    PredictiveEnsemble::new(trees)
}

fn scenarios() -> Vec<(
    &'static str,
    transmuter::config::MachineSpec,
    Workload,
    MemKind,
)> {
    let n_gpes = 16;
    let quick = Scale::Quick;
    let r02 = spec_by_id("R02").expect("R02 in suite");
    let r12 = spec_by_id("R12").expect("R12 in suite");
    let mut out = Vec::new();
    for l1_kind in [MemKind::Cache, MemKind::Spm] {
        out.push((
            "spmspm-r02",
            workloads::spmspm_spec(quick),
            workloads::spmspm_workload(&r02, quick, l1_kind, 7, n_gpes),
            l1_kind,
        ));
        out.push((
            "spmspv-r12",
            workloads::spmspv_spec(quick),
            workloads::spmspv_workload(&r12, quick, l1_kind, 11, n_gpes),
            l1_kind,
        ));
        // BFS has no L1-kind algorithm variant; the scheme configs still
        // differ per kind, which is what the comparison exercises.
        out.push((
            "bfs-r12",
            workloads::spmspv_spec(quick),
            workloads::bfs_workload(&r12, quick, 13, n_gpes).0,
            l1_kind,
        ));
    }
    out
}

#[test]
fn schemes_are_bit_identical_with_cache_off_cold_and_warm() {
    let _flag = hold_global_flag();
    let epoch_cache = EpochCache::global();
    let trace_cache = TraceCache::global();
    assert!(!epoch_cache.is_enabled(), "cache must default to off");

    for (name, spec, workload, l1_kind) in scenarios() {
        let setup = ComparisonSetup {
            spec,
            l1_kind,
            sampled: 5,
            threads: 4,
            ..ComparisonSetup::default()
        };
        let ensemble = downclock_ensemble(l1_kind);
        let (_, best_avg, _) = reference_configs(l1_kind);

        // A: epoch cache off — the pre-cache behaviour.
        let off = compare(&workload, &ensemble, &setup);

        // B: epoch cache on, cold. The trace cache is cleared so the
        // sweep re-simulates; it records nothing. A live run that never
        // reconfigures goes first and records every Best Avg epoch, so
        // SparseAdapt's run hits their shared prefix, misses once its
        // reconfiguration diverges the state, and records its own tail.
        epoch_cache.set_enabled(true);
        epoch_cache.clear();
        trace_cache.clear();
        run_live(spec, best_avg, &workload, &mut StaticController);
        let primed = epoch_cache.stats();
        let cold = compare(&workload, &ensemble, &setup);
        let cold_stats = epoch_cache.stats();

        // C: epoch cache on, warm. Trace cache cleared again; the live
        // run repeats B's and must be served by the epoch cache alone.
        trace_cache.clear();
        let warm = compare(&workload, &ensemble, &setup);
        let warm_stats = epoch_cache.stats();
        epoch_cache.set_enabled(false);

        assert_eq!(off, cold, "[{name}/{l1_kind:?}] cache-on-cold diverged");
        assert_eq!(off, warm, "[{name}/{l1_kind:?}] cache-on-warm diverged");
        assert_eq!(primed.hits, 0, "[{name}/{l1_kind:?}] {primed:?}");
        assert!(
            cold_stats.hits > primed.hits,
            "[{name}/{l1_kind:?}] live run should hit the shared Best Avg prefix, \
             {primed:?} -> {cold_stats:?}"
        );
        assert!(
            cold_stats.inserts > primed.inserts,
            "[{name}/{l1_kind:?}] live run should record its post-divergence epochs, \
             {primed:?} -> {cold_stats:?}"
        );
        assert!(
            warm_stats.hits > cold_stats.hits,
            "[{name}/{l1_kind:?}] warm pass should add hits, {cold_stats:?} -> {warm_stats:?}"
        );
        assert_eq!(
            warm_stats.inserts, cold_stats.inserts,
            "[{name}/{l1_kind:?}] the warm pass should simulate no epoch"
        );
        assert!(
            off.sparseadapt_reconfigs > 0,
            "[{name}/{l1_kind:?}] the ensemble must force a reconfiguration \
             or the hit→miss transition goes untested"
        );

        // Keep the resident set bounded across the matrix.
        epoch_cache.clear();
        trace_cache.clear();
    }
}

/// A sweep with the epoch cache enabled neither reads nor writes it: its
/// trace-cache misses simulate unhooked, exactly as with the cache off.
#[test]
fn sweeps_neither_look_up_nor_record_epochs() {
    let _flag = hold_global_flag();
    let epoch_cache = EpochCache::global();
    let r12 = spec_by_id("R12").expect("R12 in suite");
    let spec = workloads::spmspv_spec(Scale::Quick);
    let workload = workloads::spmspv_workload(&r12, Scale::Quick, MemKind::Cache, 11, 16);
    let configs = sample_configs(MemKind::Cache, 5, 0xC0FFEE);

    epoch_cache.set_enabled(true);
    epoch_cache.clear();
    TraceCache::global().clear();
    let sweep = SweepData::simulate(spec, &workload, &configs, 4);
    let stats = epoch_cache.stats();
    epoch_cache.set_enabled(false);
    TraceCache::global().clear();

    assert_eq!(stats.lookups, 0, "the sweep looked up epochs: {stats:?}");
    assert_eq!(stats.inserts, 0, "the sweep recorded epochs: {stats:?}");
    assert_eq!(stats.entries, 0, "{stats:?}");
    let plain = SweepData::simulate_uncached(spec, &workload, &configs, 4);
    assert_eq!(sweep.traces, plain.traces);
}
