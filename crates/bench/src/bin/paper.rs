//! Regenerates the paper's tables and figures.
//!
//! ```text
//! Usage: paper [--threads N] [--cache-dir DIR] [--cache-mem-cap BYTES]
//!              [--epoch-cache] [--serial] [--mtx DIR] [--quick]
//!              [experiment ...|all]
//! Experiments: fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table6 sec64
//!              sec7 insights ablation
//! Scale via SA_SCALE = quick | half | paper (default quick).
//! ```
//!
//! `--mtx DIR` runs the real-matrix suite instead: every `.mtx` file in
//! DIR goes through the SpMV / SpTRSV / SymGS kernel family under the
//! named configuration presets (see DESIGN.md, "Matrix ingestion").
//! Named experiments can still be listed alongside it; without any, the
//! run is the mtx suite alone. `--quick` trims the preset sweep to the
//! smoke-test pair (Baseline and BestAvg-cache).
//!
//! `--threads N` caps the worker pool (default: available parallelism).
//! `--cache-dir DIR` persists simulated traces to disk so later runs —
//! even across processes — reuse them. `--cache-mem-cap BYTES` bounds
//! the in-memory trace cache (LRU eviction beyond the cap) for
//! memory-constrained hosts. `--epoch-cache` additionally memoizes at
//! *epoch* granularity, keyed on the machine state entering each epoch,
//! so live controller runs fast-forward through epochs any earlier
//! sweep already simulated (see DESIGN.md §2, "Epoch-granular
//! memoization"). That cache is memory-only: `--cache-dir` is what
//! carries work across processes. `--serial` runs experiments one after
//! another at full thread count instead of fanning out; use it when
//! per-experiment progress output matters more than wall clock.
//!
//! With `all` (the default), experiments themselves run concurrently.
//! The thread budget is apportioned by each experiment's measured cost
//! weight ([`sa_bench::experiment_weight`]), so sweep-heavy experiments
//! (fig6/fig9/fig12-class) get proportionally more of the pool than the
//! near-instant report-only ones, while all of them share the
//! process-wide trace and model caches.
//!
//! Models are trained on first use and cached under `models/<scale>/`;
//! result CSVs land in `results/`.

use sa_bench::{experiments, Harness};

const ALL: [&str; 14] = [
    "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table6", "sec64",
    "sec7", "insights", "ablation",
];

fn run_one(harness: &Harness, which: &str) -> bool {
    let started = std::time::Instant::now();
    let ok = match which {
        "fig1" => {
            experiments::fig1::run(harness);
            true
        }
        "fig5" => {
            experiments::fig5::run(harness);
            true
        }
        "fig6" => {
            experiments::fig6::run(harness);
            true
        }
        "fig7" => {
            experiments::fig7::run(harness);
            true
        }
        "fig8" => {
            experiments::fig8::run(harness);
            true
        }
        "fig9" => {
            experiments::fig9::run(harness);
            true
        }
        "fig10" => {
            experiments::fig10::run(harness);
            true
        }
        "fig11" => {
            experiments::fig11::run(harness);
            true
        }
        "fig12" => {
            experiments::fig12::run(harness);
            true
        }
        "table6" => {
            experiments::table6::run(harness);
            true
        }
        "sec64" => {
            experiments::sec64::run(harness);
            true
        }
        "sec7" => {
            experiments::sec7::run(harness);
            true
        }
        "insights" => {
            experiments::insights::run(harness);
            true
        }
        "ablation" => {
            experiments::ablation::run(harness);
            true
        }
        _ => false,
    };
    if ok {
        eprintln!(
            "# {which} finished in {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
    ok
}

struct Cli {
    threads: Option<usize>,
    cache_dir: Option<std::path::PathBuf>,
    cache_mem_cap: Option<usize>,
    epoch_cache: bool,
    serial: bool,
    mtx_dir: Option<std::path::PathBuf>,
    quick: bool,
    experiments: Vec<String>,
}

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: paper [--threads N] [--cache-dir DIR] [--cache-mem-cap BYTES] \
         [--epoch-cache] [--serial] [--mtx DIR] [--quick] \
         [experiment ...|all]\n\
         experiments: {} all",
        ALL.join(" ")
    );
    std::process::exit(code);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        threads: None,
        cache_dir: None,
        cache_mem_cap: None,
        epoch_cache: false,
        serial: false,
        mtx_dir: None,
        quick: false,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        usage_and_exit(2)
                    });
                cli.threads = Some(n);
            }
            "--cache-dir" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--cache-dir needs a path");
                    usage_and_exit(2)
                });
                cli.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--cache-mem-cap" => {
                let cap = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--cache-mem-cap needs a positive byte count");
                        usage_and_exit(2)
                    });
                cli.cache_mem_cap = Some(cap);
            }
            "--epoch-cache" => cli.epoch_cache = true,
            "--serial" => cli.serial = true,
            "--mtx" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--mtx needs a directory of .mtx files");
                    usage_and_exit(2)
                });
                cli.mtx_dir = Some(std::path::PathBuf::from(dir));
            }
            "--quick" => cli.quick = true,
            "--help" | "-h" => usage_and_exit(0),
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'");
                usage_and_exit(2)
            }
            other => cli.experiments.push(other.to_string()),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let mut harness = Harness::default();
    if let Some(n) = cli.threads {
        harness = harness.with_threads(n);
    }
    if let Some(dir) = &cli.cache_dir {
        sparseadapt::trace_cache::TraceCache::global().set_disk_dir(Some(dir.clone()));
    }
    if cli.cache_mem_cap.is_some() {
        sparseadapt::trace_cache::TraceCache::global().set_memory_cap(cli.cache_mem_cap);
    }
    if cli.epoch_cache {
        sparseadapt::epoch_cache::EpochCache::global().set_enabled(true);
    }
    // With `--mtx` and no named experiments, the run is the real-matrix
    // suite alone — `all` is not implied.
    let list: Vec<String> = if cli.experiments.is_empty() && cli.mtx_dir.is_some() {
        Vec::new()
    } else if cli.experiments.is_empty() || cli.experiments.iter().any(|e| e == "all") {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        cli.experiments.clone()
    };
    for exp in &list {
        if !ALL.contains(&exp.as_str()) {
            eprintln!("unknown experiment '{exp}'");
            usage_and_exit(2);
        }
    }
    eprintln!(
        "# scale={:?} sampled={} threads={} cache_dir={:?}",
        harness.scale, harness.sampled_configs, harness.threads, cli.cache_dir
    );

    let started = std::time::Instant::now();
    if let Some(dir) = &cli.mtx_dir {
        let mtx_started = std::time::Instant::now();
        match experiments::mtx::run(&harness, dir, cli.quick) {
            Ok(_) => eprintln!(
                "# mtx finished in {:.1}s",
                mtx_started.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("mtx suite failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if cli.serial || list.len() <= 1 {
        for exp in &list {
            run_one(&harness, exp);
        }
    } else {
        // Fan out across experiments, cost-weighted: `outer` experiments
        // run concurrently and the thread budget is apportioned by each
        // one's measured weight, so sweep-heavy experiments hold larger
        // inner pools than the near-instant report-only ones. Heavy
        // experiments also start first, shortening the makespan tail.
        // All of them share the process-wide trace and model caches, so
        // overlapping sweeps (e.g. fig6 and fig8 on the same suite)
        // simulate each (spec, workload, config) triple exactly once.
        let mut order: Vec<usize> = (0..list.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(sa_bench::experiment_weight(&list[i])));
        let ordered: Vec<&String> = order.iter().map(|&i| &list[i]).collect();
        let weights: Vec<u64> = ordered
            .iter()
            .map(|e| sa_bench::experiment_weight(e))
            .collect();
        let (outer, _) = sparseadapt::exec::split_threads(list.len(), harness.threads);
        // With `outer` experiments in flight at a time, apportioning
        // threads * len / outer across all of them keeps the expected
        // concurrent thread usage near the budget.
        let budget = (harness.threads * list.len()).div_ceil(outer);
        let shares = sparseadapt::exec::weighted_shares(&weights, budget);
        sparseadapt::exec::parallel_map(list.len(), outer, |i| {
            run_one(&harness.with_threads(shares[i]), ordered[i])
        });
    }
    let stats = sparseadapt::trace_cache::TraceCache::global().stats();
    eprintln!(
        "# all done in {:.1}s — trace cache: {} hits / {} misses ({} from disk), {} resident",
        started.elapsed().as_secs_f64(),
        stats.hits,
        stats.misses,
        stats.disk_hits,
        stats.entries
    );
}
