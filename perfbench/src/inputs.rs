//! Seeded inputs. The seed drives the matrices (through `GenSeed`), the
//! sampled configurations (through `sample_configs`) and, for serve, the
//! request order; the program only ever sees the generated inputs.
//! Scale is pinned to quick.

use std::path::{Path, PathBuf};

use sa_bench::experiments::Kernel;
use sa_bench::workloads::{spmspm_workload, spmspv_workload};
use sa_bench::Harness;
use sparse::suite::{spec_by_id, Scale};
use sparseadapt::stitch::sample_configs;
use sparseadapt::PredictiveEnsemble;
use transmuter::config::{MachineSpec, MemKind, TransmuterConfig};
use transmuter::metrics::OptMode;
use transmuter::workload::Workload;

use crate::stats::Digest;

/// The pinned dataset scale.
pub const SCALE: Scale = Scale::Quick;
/// Configurations per sweep (the quick-scale harness default).
pub const SWEEP_CONFIGS: usize = 24;
/// Threads a sweep may use: the load stays within two cores.
pub const SWEEP_THREADS: usize = 2;
/// SpMSpM stand-ins of `adapt_memo`, chosen so the
/// recording sweep of `adapt_memo` stays under 1 GiB of snapshots
/// (R01/R03/R07 hold 1.3–2.0 GiB each, R06 about 11 GiB). Largest first,
/// so the epoch tier's peak comes before earlier inputs fragment the heap.
pub const ADAPT_SPMSPM: [&str; 4] = ["R08", "R05", "R02", "R04"];
/// SpMSpV stand-ins of `adapt_memo`.
pub const ADAPT_SPMSPV: [&str; 8] = ["R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"];
/// Derived-seed repetitions of each SpMSpV input, so their short epochs
/// hold a share of closed-loop time comparable to SpMSpM's.
pub const SPMSPV_REPS: u64 = 8;

/// One seeded simulation input.
#[derive(Debug)]
pub struct Input {
    /// Matrix id, with `#k` for derived-seed repetitions.
    pub id: String,
    /// Machine the kernel runs on (its epoch size).
    pub spec: MachineSpec,
    /// The op streams.
    pub workload: Workload,
    /// Op-stream entries across all phases and GPEs.
    pub entries: u64,
    /// This input's seeded sample of configurations to sweep (Baseline,
    /// Best Avg and Maximum are always in it). Each input draws its own,
    /// so a run averages over many sampled configurations.
    pub configs: Vec<TransmuterConfig>,
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Op-stream entries of a workload.
pub fn entries(w: &Workload) -> u64 {
    w.phases
        .iter()
        .flat_map(|p| p.streams.iter())
        .map(|s| s.len() as u64)
        .sum()
}

/// Builds one suite input through the harness's workload builders, with
/// configurations sampled from `config_seed`.
///
/// # Panics
///
/// Panics on an unknown matrix id or a kernel other than SpMSpM/SpMSpV.
pub fn build(id: &str, label: String, kernel: Kernel, seed: u64, config_seed: u64) -> Input {
    let matrix = spec_by_id(id).expect("suite matrix id");
    let spec = kernel.spec(SCALE);
    let gpes = spec.geometry.gpe_count();
    let workload = match kernel {
        Kernel::SpMSpM => spmspm_workload(&matrix, SCALE, MemKind::Cache, seed, gpes),
        Kernel::SpMSpV => spmspv_workload(&matrix, SCALE, MemKind::Cache, seed, gpes),
        other => panic!("no builder for {other:?}"),
    };
    Input {
        id: label,
        spec,
        entries: entries(&workload),
        workload,
        configs: sample_configs(MemKind::Cache, SWEEP_CONFIGS, config_seed),
    }
}

/// The `adapt_memo` inputs. The
/// seed drives the matrices; the configurations `adapt_memo` records are
/// the harness's own sample, as `paper --epoch-cache` records them, so
/// the epoch tier's size does not swing with the seed's draw of cache
/// capacities.
pub fn adapt_inputs(seed: u64) -> Vec<Input> {
    let mut specs: Vec<(&str, String, Kernel, u64)> = ADAPT_SPMSPM
        .iter()
        .map(|id| (*id, id.to_string(), Kernel::SpMSpM, seed))
        .collect();
    for rep in 0..SPMSPV_REPS {
        for id in ADAPT_SPMSPV {
            specs.push((
                id,
                format!("{id}#{rep}"),
                Kernel::SpMSpV,
                derive_seed(seed, rep),
            ));
        }
    }
    specs
        .into_iter()
        .map(|(id, label, kernel, matrix_seed)| {
            build(id, label, kernel, matrix_seed, Harness::default().seed)
        })
        .collect()
}

/// Digest of everything the seed generated: workload fingerprints and
/// configurations. Equal seeds must give equal digests.
pub fn input_digest(inputs: &[Input]) -> u64 {
    let mut d = Digest::default();
    for input in inputs {
        d.str(&input.id);
        d.u64(input.workload.fingerprint());
        for c in &input.configs {
            d.u64(c.fingerprint());
        }
    }
    d.finish()
}

/// The repository root (the benchmark package sits one level below it).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Path of a committed quick-scale cache-L1 model.
pub fn model_path(mode: OptMode) -> PathBuf {
    repo_root()
        .join("models/quick")
        .join(format!("sparseadapt-cache-{}.json", mode.name()))
}

/// Fails unless every committed quick model the workloads use exists, so
/// a missing file stops the benchmark instead of triggering training.
pub fn require_models() -> Result<(), String> {
    for mode in OptMode::ALL {
        let path = model_path(mode);
        if !path.is_file() {
            return Err(format!("missing committed model {}", path.display()));
        }
    }
    Ok(())
}

/// Loads the EE and PP ensembles, in [`OptMode::ALL`] order.
pub fn load_models() -> Result<Vec<(OptMode, PredictiveEnsemble)>, String> {
    require_models()?;
    OptMode::ALL
        .iter()
        .map(|&mode| {
            let path = model_path(mode);
            PredictiveEnsemble::load(&path)
                .map(|e| (mode, e))
                .map_err(|e| format!("cannot load {}: {e}", path.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = input_digest(&adapt_inputs(7));
        assert_eq!(a, input_digest(&adapt_inputs(7)));
        assert_ne!(a, input_digest(&adapt_inputs(8)));
    }

    #[test]
    fn seeds_change_matrices_and_configs_independently() {
        let w1 = build("R04", "R04".into(), Kernel::SpMSpM, 1, 1);
        let w2 = build("R04", "R04".into(), Kernel::SpMSpM, 2, 1);
        let w3 = build("R04", "R04".into(), Kernel::SpMSpM, 1, 2);
        assert_ne!(w1.workload.fingerprint(), w2.workload.fingerprint());
        assert_eq!(w1.configs, w2.configs);
        assert_eq!(w1.workload.fingerprint(), w3.workload.fingerprint());
        assert_ne!(w1.configs, w3.configs);
        assert!(w1.entries > 0);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..SPMSPV_REPS).map(|k| derive_seed(5, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(derive_seed(5, 3), seeds[3]);
    }

    #[test]
    fn committed_models_are_present() {
        require_models().expect("models/quick is committed");
    }
}
