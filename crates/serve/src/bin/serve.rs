//! The `sparseadapt-serve` daemon binary — single daemon or cluster.
//!
//! ```text
//! Usage: serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!              [--max-conns N] [--idle-timeout-ms MS]
//!              [--cache-dir DIR] [--cache-mem-cap BYTES]
//!              [--epoch-cache] [--epoch-cache-dir DIR]
//!              [--epoch-peer-fetch] [--epoch-fetch-budget-ms MS]
//!              [--epoch-warm-push K]
//!              [--addr-file PATH]
//!              [--router --shards N [--shard-weights W,..] [--vnodes N]
//!               [--allow-admin] [--record FILE]]
//! Scale via SA_SCALE = quick | half | paper (default quick).
//! ```
//!
//! Without `--router` the process is one daemon shard. With `--router`
//! it spawns `--shards` copies of itself on ephemeral ports (sharing
//! `--cache-dir` as the cluster's disk tier), then fronts them with a
//! consistent-hash router on `--addr`; `--record` appends every routed
//! POST to a JSONL log that `loadgen --replay` can play back.
//! `--shard-weights` assigns per-shard ring weights (comma-separated,
//! one per shard); `--allow-admin` opts into runtime topology mutations
//! via the `/v2/admin` control plane (add/remove/reweight shards).
//!
//! `--epoch-cache` enables the in-memory epoch-boundary cache;
//! `--epoch-cache-dir` adds a per-shard SAEP disk tier (deliberately
//! *not* shared across router-spawned shards). `--epoch-peer-fetch`
//! lets a shard fetch missing epochs from cluster peers (discovered
//! from the pushed topology) with a hard `--epoch-fetch-budget-ms`
//! wall-clock budget per lookup; `--epoch-warm-push K` pushes the K
//! hottest epochs to ring neighbors after each completed sweep.
//!
//! The process drains cleanly on SIGINT/SIGTERM or `POST
//! /v2/admin/drain`: it stops accepting, finishes in-flight work, and
//! exits 0.

use std::path::PathBuf;
use std::time::Duration;

use serve::shard::{spawn_shards, start_router, RouterConfig, ShardSpawn};
use serve::{start, ServeConfig};

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--max-conns N] [--idle-timeout-ms MS] \
         [--cache-dir DIR] [--cache-mem-cap BYTES] \
         [--epoch-cache] [--epoch-cache-dir DIR] [--epoch-peer-fetch] \
         [--epoch-fetch-budget-ms MS] [--epoch-warm-push K] \
         [--addr-file PATH] [--router --shards N [--shard-weights W,..] \
         [--vnodes N] [--allow-admin] [--record FILE]]"
    );
    std::process::exit(code);
}

/// Everything the command line can say; `router` switches which half is
/// used.
struct Cli {
    config: ServeConfig,
    router: bool,
    shards: usize,
    weights: Vec<f64>,
    vnodes: usize,
    allow_admin: bool,
    record: Option<PathBuf>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        config: ServeConfig::default(),
        router: false,
        shards: 3,
        weights: Vec::new(),
        vnodes: 0,
        allow_admin: false,
        record: None,
    };
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage_and_exit(2)
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cli.config.addr = need(&mut args, "--addr"),
            "--workers" => {
                cli.config.workers = need(&mut args, "--workers").parse().unwrap_or_else(|_| {
                    eprintln!("--workers needs an integer");
                    usage_and_exit(2)
                })
            }
            "--queue-cap" => {
                cli.config.queue_cap = need(&mut args, "--queue-cap")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--queue-cap needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--cache-dir" => {
                cli.config.cache_dir = Some(PathBuf::from(need(&mut args, "--cache-dir")))
            }
            "--cache-mem-cap" => {
                cli.config.cache_mem_cap = Some(
                    need(&mut args, "--cache-mem-cap")
                        .parse()
                        .unwrap_or_else(|_| {
                            eprintln!("--cache-mem-cap needs a byte count");
                            usage_and_exit(2)
                        }),
                )
            }
            "--addr-file" => {
                cli.config.addr_file = Some(PathBuf::from(need(&mut args, "--addr-file")))
            }
            "--epoch-cache" => cli.config.epoch_cache = true,
            "--epoch-cache-dir" => {
                cli.config.epoch_cache_dir =
                    Some(PathBuf::from(need(&mut args, "--epoch-cache-dir")))
            }
            "--epoch-peer-fetch" => cli.config.epoch_peer_fetch = true,
            "--epoch-fetch-budget-ms" => {
                cli.config.epoch_fetch_budget_ms = need(&mut args, "--epoch-fetch-budget-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--epoch-fetch-budget-ms needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--epoch-warm-push" => {
                cli.config.epoch_warm_push = need(&mut args, "--epoch-warm-push")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--epoch-warm-push needs an integer");
                        usage_and_exit(2)
                    })
            }
            "--max-conns" => {
                cli.config.max_conns = need(&mut args, "--max-conns")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--max-conns needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--idle-timeout-ms" => {
                cli.config.idle_timeout_ms = need(&mut args, "--idle-timeout-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--idle-timeout-ms needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--router" => cli.router = true,
            "--shards" => {
                cli.shards = need(&mut args, "--shards")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--shards needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--shard-weights" => {
                cli.weights = need(&mut args, "--shard-weights")
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w > 0.0)
                            .unwrap_or_else(|| {
                                eprintln!("--shard-weights needs comma-separated positive numbers");
                                usage_and_exit(2)
                            })
                    })
                    .collect()
            }
            "--allow-admin" => cli.allow_admin = true,
            "--vnodes" => {
                cli.vnodes = need(&mut args, "--vnodes").parse().unwrap_or_else(|_| {
                    eprintln!("--vnodes needs an integer");
                    usage_and_exit(2)
                })
            }
            "--record" => cli.record = Some(PathBuf::from(need(&mut args, "--record"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown flag '{other}'");
                usage_and_exit(2)
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    if cli.router {
        run_router(cli);
    } else {
        run_daemon(cli.config);
    }
}

fn run_daemon(mut config: ServeConfig) {
    config.handle_signals = true;
    let handle = match start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# sparseadapt-serve listening on {} — {} workers, queue cap {} (scale {:?})",
        handle.addr,
        handle.state.pool.workers(),
        handle.state.pool.queue_cap(),
        handle.state.harness.scale,
    );
    // Serve until a drain completes (SIGINT/SIGTERM or
    // `POST /v2/admin/drain`), then exit cleanly.
    let drain = handle.state.drain.clone();
    while !drain.wait_completed(Duration::from_secs(3600)) {}
    eprintln!("# sparseadapt-serve drained, exiting");
    std::process::exit(0);
}

fn run_router(cli: Cli) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("serve: cannot locate own binary for shard spawning: {e}");
            std::process::exit(1);
        }
    };
    let run_dir = std::env::temp_dir().join(format!("sparseadapt-cluster-{}", std::process::id()));
    let shards = match spawn_shards(&ShardSpawn {
        exe,
        count: cli.shards,
        workers: cli.config.workers,
        queue_cap: cli.config.queue_cap,
        cache_dir: cli.config.cache_dir.clone(),
        cache_mem_cap: cli.config.cache_mem_cap,
        // Epoch flags are forwarded per shard; `--epoch-cache-dir` is
        // deliberately NOT forwarded — each shard's disk tier must stay
        // private or cross-shard fetches would be unobservable.
        epoch_cache: cli.config.epoch_cache,
        epoch_peer_fetch: cli.config.epoch_peer_fetch,
        epoch_fetch_budget_ms: cli.config.epoch_fetch_budget_ms,
        epoch_warm_push: cli.config.epoch_warm_push,
        run_dir,
    }) {
        Ok(shards) => shards,
        Err(e) => {
            eprintln!("serve: shard spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let handle = match start_router(RouterConfig {
        addr: cli.config.addr,
        shards: shards.iter().map(|s| s.addr).collect(),
        weights: cli.weights,
        vnodes: cli.vnodes,
        record: cli.record,
        allow_admin: cli.allow_admin,
    }) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve: router bind failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &cli.config.addr_file {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, handle.addr.to_string()).is_err()
            || std::fs::rename(&tmp, path).is_err()
        {
            eprintln!("serve: cannot publish router address to {}", path.display());
        }
    }
    eprintln!(
        "# sparseadapt-serve router on {} — {} shards: {}",
        handle.addr,
        shards.len(),
        shards
            .iter()
            .map(|s| s.addr.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    // Serve until the router itself is drained (`POST /v2/admin/drain`
    // on the router) or killed; `shards` stays in scope so children
    // outlive the loop and are reaped on a clean exit.
    let drain = handle.state.drain_control().clone();
    while !drain.wait_completed(Duration::from_secs(3600)) {}
    drop(handle);
    drop(shards);
    eprintln!("# sparseadapt-serve router drained, exiting");
    std::process::exit(0);
}
