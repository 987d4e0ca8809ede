//! Offline training CLI.
//!
//! ```text
//! Usage: train [--preset tiny|quick|paper] [--out DIR] [--grid] [--csv DIR]
//! ```
//!
//! Collects the Table 3 training sweeps for both L1 kinds, trains both
//! optimisation modes' ensembles, and writes the four model files the
//! runtime and the harness load. `--csv` additionally exports the raw
//! per-parameter datasets (the artifact's `dataset-exp.csv` layout).

use std::path::PathBuf;

use trainer::collect::{collect, CollectOptions};
use trainer::scenarios::TrainingPreset;
use trainer::train::{model_path, train_and_save_modes, TrainOptions};
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = TrainingPreset::Quick;
    let mut out = PathBuf::from("models/custom");
    let mut grid = false;
    let mut csv: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--preset" => {
                i += 1;
                preset = match args.get(i).map(String::as_str) {
                    Some("tiny") => TrainingPreset::Tiny,
                    Some("quick") => TrainingPreset::Quick,
                    Some("paper") => TrainingPreset::Paper,
                    other => {
                        eprintln!("unknown preset {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--grid" => grid = true,
            "--csv" => {
                i += 1;
                csv = Some(PathBuf::from(args.get(i).expect("--csv needs a directory")));
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: train [--preset tiny|quick|paper] [--out DIR] [--grid] [--csv DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    std::fs::create_dir_all(&out)?;
    let copts = CollectOptions {
        preset,
        ..CollectOptions::default()
    };
    let topts = TrainOptions {
        grid,
        ..TrainOptions::default()
    };
    for l1_kind in [MemKind::Cache, MemKind::Spm] {
        let started = std::time::Instant::now();
        let data = collect(l1_kind, &copts);
        eprintln!(
            "collected {} examples for {l1_kind:?} in {:.1}s",
            data.len(),
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &csv {
            data.save_csvs(&dir.join(format!("{l1_kind:?}").to_lowercase()))?;
        }
        train_and_save_modes(&out, l1_kind, &data, &topts)?;
        for mode in OptMode::ALL {
            eprintln!("wrote {}", model_path(&out, l1_kind, mode).display());
        }
    }
    Ok(())
}
