//! Regenerates the paper's tables and figures.
//!
//! ```text
//! Usage: paper [--threads N] [--cache-dir DIR] [--cache-mem-cap BYTES]
//!              [--epoch-cache] [--mtx DIR] [--quick]
//!              [experiment ...|all]
//! Experiments: the names in experiments::REGISTRY (`paper --help` lists them)
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
//! so a live controller run fast-forwards through the epochs an earlier
//! live run of the same workload already simulated: the shared prefix
//! up to where their decisions diverge (see DESIGN.md §2,
//! "Epoch-granular memoization"). Sweeps never record into it. That
//! cache is memory-only: `--cache-dir` is what carries work across
//! processes, and the `# all done` line reports its hits, lookups and
//! resident size.
//!
//! Experiments are the entries of [`experiments::REGISTRY`]. Several
//! named at once (`all`, the default, names every one) run
//! concurrently: the thread budget is apportioned by each experiment's
//! cost weight, so sweep-heavy experiments (fig6/fig9/fig12-class) get
//! proportionally more of the pool than the near-instant report-only
//! ones, while all of them share the process-wide trace and model
//! caches. A lone experiment gets the whole budget.
//!
//! Models are trained on first use and cached under `models/<scale>/`;
//! result CSVs land in `results/`.

use sa_bench::experiments::{self, Experiment, REGISTRY};
use sa_bench::Harness;

fn run_one(harness: &Harness, experiment: &Experiment) {
    let started = std::time::Instant::now();
    (experiment.run)(harness);
    eprintln!(
        "# {} finished in {:.1}s",
        experiment.name,
        started.elapsed().as_secs_f64()
    );
}

struct Cli {
    threads: Option<usize>,
    cache_dir: Option<std::path::PathBuf>,
    cache_mem_cap: Option<usize>,
    epoch_cache: bool,
    mtx_dir: Option<std::path::PathBuf>,
    quick: bool,
    experiments: Vec<String>,
}

fn usage_and_exit(code: i32) -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: paper [--threads N] [--cache-dir DIR] [--cache-mem-cap BYTES] \
         [--epoch-cache] [--mtx DIR] [--quick] \
         [experiment ...|all]\n\
         experiments: {} all",
        names.join(" ")
    );
    std::process::exit(code);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        threads: None,
        cache_dir: None,
        cache_mem_cap: None,
        epoch_cache: false,
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
    let mut list: Vec<&Experiment> = if cli.experiments.is_empty() && cli.mtx_dir.is_some() {
        Vec::new()
    } else if cli.experiments.is_empty() || cli.experiments.iter().any(|e| e == "all") {
        REGISTRY.iter().collect()
    } else {
        cli.experiments
            .iter()
            .map(|name| {
                experiments::find(name).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{name}'");
                    usage_and_exit(2)
                })
            })
            .collect()
    };
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
    // Fan out across experiments, cost-weighted: `outer` experiments run
    // concurrently and the thread budget is apportioned by each one's
    // weight, so sweep-heavy experiments hold larger inner pools than the
    // near-instant report-only ones. Heavy experiments also start first,
    // shortening the makespan tail. All of them share the process-wide
    // trace and model caches, so overlapping sweeps (e.g. fig6 and fig8
    // on the same suite) simulate each (spec, workload, config) triple
    // exactly once. A lone experiment is one item: `outer` is 1 and its
    // share the whole budget.
    list.sort_by_key(|e| std::cmp::Reverse(e.weight));
    let weights: Vec<u64> = list.iter().map(|e| e.weight).collect();
    let (outer, _) = sparseadapt::exec::split_threads(list.len(), harness.threads);
    // With `outer` experiments in flight at a time, apportioning
    // threads * len / outer across all of them keeps the expected
    // concurrent thread usage near the budget.
    let budget = (harness.threads * list.len()).div_ceil(outer);
    let shares = sparseadapt::exec::weighted_shares(&weights, budget);
    sparseadapt::exec::parallel_map(list.len(), outer, |i| {
        run_one(&harness.with_threads(shares[i]), list[i])
    });
    let stats = sparseadapt::trace_cache::TraceCache::global().stats();
    let epochs = if cli.epoch_cache {
        let s = sparseadapt::epoch_cache::EpochCache::global().stats();
        format!(
            "; epoch tier: {} hits / {} lookups, {:.1} MiB resident",
            s.hits,
            s.lookups,
            s.resident_bytes as f64 / (1u64 << 20) as f64
        )
    } else {
        String::new()
    };
    eprintln!(
        "# all done in {:.1}s — trace cache: {} hits / {} misses ({} from disk), {} resident{epochs}",
        started.elapsed().as_secs_f64(),
        stats.hits,
        stats.misses,
        stats.disk_hits,
        stats.entries
    );
}
