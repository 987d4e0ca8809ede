//! Real-matrix suite: every `.mtx` file in a directory through the
//! SpMV / SpTRSV / SymGS kernel family under the named configuration
//! presets.
//!
//! Unlike the figure experiments this one is parameterised by user
//! data, so it reports raw baseline throughput plus per-preset gains
//! rather than reproducing a specific paper panel. Solver kernels are
//! skipped (with a note) for rectangular matrices.

use std::path::Path;

use transmuter::config::TransmuterConfig;
use transmuter::machine::Machine;

use super::{map_items, source_workload, Kernel};
use crate::models::results_dir;
use crate::mtx::{scan_dir, MatrixSource};
use crate::report::Table;
use crate::Harness;

/// The presets swept per (matrix, kernel); `quick` keeps the two the
/// smoke test needs.
fn presets(quick: bool) -> Vec<(&'static str, TransmuterConfig)> {
    let mut v = vec![
        ("Baseline", TransmuterConfig::baseline()),
        ("BestAvgC", TransmuterConfig::best_avg_cache()),
    ];
    if !quick {
        v.push(("BestAvgS", TransmuterConfig::best_avg_spm()));
        v.push(("MaxCfg", TransmuterConfig::maximum()));
    }
    v
}

/// The kernels the real-matrix suite drives.
pub const KERNELS: [Kernel; 3] = [Kernel::SpMV, Kernel::SpTRSV, Kernel::SymGS];

fn kernel_tag(k: Kernel) -> &'static str {
    match k {
        Kernel::SpMV => "spmv",
        Kernel::SpTRSV => "sptrsv",
        Kernel::SymGS => "symgs",
        Kernel::SpMSpM => "spmspm",
        Kernel::SpMSpV => "spmspv",
    }
}

/// Runs the suite over every `.mtx` in `dir`; returns the table
/// (also emitted to `results/mtx.csv`). `Err` carries an unreadable
/// directory or an unparseable file.
pub fn run(harness: &Harness, dir: &Path, quick: bool) -> Result<Table, String> {
    let sources = scan_dir(dir)?;
    if sources.is_empty() {
        return Err(format!("no .mtx files in {}", dir.display()));
    }
    let presets = presets(quick);
    let mut columns: Vec<String> = vec!["gflops:Baseline".to_string()];
    for (name, _) in presets.iter().skip(1) {
        columns.push(format!("gflops:{name}"));
        columns.push(format!("eff:{name}"));
    }
    let mut t = Table::new(
        "Real-matrix suite — presets vs Baseline per kernel",
        &columns,
    );

    // One work item per (matrix, kernel) pair; rectangular matrices
    // only get the kernels that accept them.
    let mut items: Vec<(String, MatrixSource, Kernel)> = Vec::new();
    for (stem, src) in &sources {
        for k in KERNELS {
            if k.requires_square() && !src.is_square() {
                println!("note: {stem} is rectangular; skipping {}", kernel_tag(k));
                continue;
            }
            items.push((stem.clone(), src.clone(), k));
        }
    }

    let rows = map_items(harness, &items, |(_, src, kernel), h| {
        let spec = kernel.spec(h.scale);
        let mut baseline = None;
        let mut values = Vec::new();
        for (i, (_, cfg)) in presets.iter().enumerate() {
            // The workload variant follows the preset's L1 kind, as in
            // the scheme comparisons.
            let wl = source_workload(h, src, *kernel, cfg.l1_kind);
            let m = Machine::new(spec, *cfg).run(&wl).metrics();
            if i == 0 {
                values.push(m.gflops());
                baseline = Some(m);
            } else {
                let base = baseline.as_ref().expect("baseline runs first");
                values.push(m.gflops() / base.gflops());
                values.push(m.gflops_per_watt() / base.gflops_per_watt());
            }
        }
        values
    });
    for ((stem, _, kernel), row) in items.iter().zip(rows) {
        t.push(&format!("{stem}/{}", kernel_tag(*kernel)), row);
    }
    t.push_geomean();
    t.emit(&results_dir(), "mtx");
    Ok(t)
}
