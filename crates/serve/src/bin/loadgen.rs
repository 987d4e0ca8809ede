//! The `loadgen` load-testing client.
//!
//! ```text
//! Usage: loadgen [--addr HOST:PORT] [--duration SECONDS] [--concurrency N]
//!                [--rps TARGET] [--out FILE] [--guard FILE] [--guard-factor F]
//!                [--replay FILE]
//!                [--open-loop [--connections N] [--open-rps R]
//!                 [--open-duration SECONDS] [--quick]]
//!        loadgen --epoch-ab [--serve-exe PATH] [--epoch-budget-ms MS]
//!                [--out FILE]
//! ```
//!
//! Runs a cold pass (every unique request once, empty-cache latencies)
//! then a warm phase (concurrent closed-loop or rate-paced traffic),
//! prints the report, and optionally writes it to `--out`
//! (`BENCH_serve.json`). With `--replay FILE` the fixed mix is replaced
//! by a recorded JSONL trace (as written by `serve --router --record`):
//! each request fires at its recorded timestamp offset. Exits non-zero
//! when any response falls outside {2xx, 429-class rejections} or when
//! `--guard` detects a warm-p99 regression.
//!
//! `--open-loop` appends a third phase after cold/warm: `--connections`
//! keep-alive sockets multiplexed on one epoll loop, issuing at a
//! Poisson-paced `--open-rps` regardless of completions (the
//! coordinated-omission-resistant mode — latency is measured from each
//! request's *scheduled* time). Any open-loop error or server-initiated
//! disconnect also fails the run.
//!
//! `--epoch-ab` is a self-contained mode: it spawns two fresh two-shard
//! clusters from `--serve-exe` (default: the `serve` binary next to
//! this one) — remote epoch tier on, then off — warms shard A, measures
//! the same simulate mix live on shard B, and merges the comparison
//! into `--out` (`BENCH_serve.json`) as the `cluster_epoch_tier` block.
//! It fails when the arms' simulation payloads differ or the tier-on
//! arm saw no remote hits.

use std::path::PathBuf;

use serve::loadgen::{
    check_guard, merge_epoch_ab, run, run_epoch_ab, EpochAbConfig, LoadgenConfig,
};

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--duration SECONDS] [--concurrency N] \
         [--rps TARGET] [--out FILE] [--guard FILE] [--guard-factor F] [--replay FILE] \
         [--open-loop [--connections N] [--open-rps R] [--open-duration SECONDS] \
         [--quick]] | \
         loadgen --epoch-ab [--serve-exe PATH] [--epoch-budget-ms MS] [--out FILE]"
    );
    std::process::exit(code);
}

/// The `--epoch-ab` half of the command line.
struct EpochAbCli {
    enabled: bool,
    serve_exe: Option<PathBuf>,
    budget_ms: u64,
}

fn parse_config() -> (LoadgenConfig, EpochAbCli) {
    let mut config = LoadgenConfig::default();
    let mut epoch_ab = EpochAbCli {
        enabled: false,
        serve_exe: None,
        budget_ms: 2_000,
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
            "--addr" => config.addr = need(&mut args, "--addr"),
            "--duration" => {
                config.duration_s = need(&mut args, "--duration")
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--duration needs a positive number of seconds");
                        usage_and_exit(2)
                    })
            }
            "--concurrency" => {
                config.concurrency = need(&mut args, "--concurrency")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--concurrency needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--rps" => {
                config.target_rps = Some(
                    need(&mut args, "--rps")
                        .parse()
                        .ok()
                        .filter(|&r: &f64| r > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--rps needs a positive rate");
                            usage_and_exit(2)
                        }),
                )
            }
            "--out" => config.out = Some(PathBuf::from(need(&mut args, "--out"))),
            "--replay" => config.replay = Some(PathBuf::from(need(&mut args, "--replay"))),
            "--guard" => config.guard = Some(PathBuf::from(need(&mut args, "--guard"))),
            "--guard-factor" => {
                config.guard_factor = need(&mut args, "--guard-factor")
                    .parse()
                    .ok()
                    .filter(|&f: &f64| f > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--guard-factor needs a positive factor");
                        usage_and_exit(2)
                    })
            }
            "--open-loop" => config.open_loop = true,
            "--connections" => {
                config.connections = need(&mut args, "--connections")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--connections needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--open-rps" => {
                config.open_rps = need(&mut args, "--open-rps")
                    .parse()
                    .ok()
                    .filter(|&r: &f64| r > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--open-rps needs a positive rate");
                        usage_and_exit(2)
                    })
            }
            "--open-duration" => {
                config.open_duration_s = need(&mut args, "--open-duration")
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--open-duration needs a positive number of seconds");
                        usage_and_exit(2)
                    })
            }
            "--quick" => config.quick = true,
            "--epoch-ab" => epoch_ab.enabled = true,
            "--serve-exe" => {
                epoch_ab.serve_exe = Some(PathBuf::from(need(&mut args, "--serve-exe")))
            }
            "--epoch-budget-ms" => {
                epoch_ab.budget_ms = need(&mut args, "--epoch-budget-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--epoch-budget-ms needs a positive integer");
                        usage_and_exit(2)
                    })
            }
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown flag '{other}'");
                usage_and_exit(2)
            }
        }
    }
    (config, epoch_ab)
}

/// Runs the self-contained epoch-tier A/B and exits. Failure modes:
/// differing payloads across arms, no remote hits with the tier on, or
/// request errors in any measured phase.
fn run_epoch_ab_mode(config: &LoadgenConfig, cli: &EpochAbCli) -> ! {
    let serve_exe = cli.serve_exe.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("serve")))
            .unwrap_or_else(|| {
                eprintln!("loadgen: cannot locate the serve binary; pass --serve-exe");
                std::process::exit(1);
            })
    });
    if !serve_exe.is_file() {
        eprintln!(
            "loadgen: serve binary {} not found; pass --serve-exe",
            serve_exe.display()
        );
        std::process::exit(1);
    }
    let report = match run_epoch_ab(&EpochAbConfig {
        serve_exe,
        budget_ms: cli.budget_ms,
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: epoch-ab: {e}");
            std::process::exit(1);
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = &config.out {
        if let Err(e) = merge_epoch_ab(path, &report) {
            eprintln!("loadgen: epoch-ab: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "# epoch tier on: live B mean {:.2} ms (remote hit ratio {:.3}, fetch p50 {:.2} ms, \
         p95 {:.2} ms); off: {:.2} ms; speedup {:.2}x; payloads identical: {}",
        report.tier_on.live_b.mean_ms,
        report.tier_on.remote_hit_ratio,
        report.tier_on.remote_fetch_p50_ms,
        report.tier_on.remote_fetch_p95_ms,
        report.tier_off.live_b.mean_ms,
        report.warm_speedup,
        report.identical,
    );
    let mut failed = false;
    if !report.identical {
        eprintln!("loadgen: epoch-ab: arms returned different simulation payloads");
        failed = true;
    }
    if report.tier_on.remote_hits == 0 {
        eprintln!("loadgen: epoch-ab: tier-on arm saw no remote hits");
        failed = true;
    }
    for (name, arm) in [("on", &report.tier_on), ("off", &report.tier_off)] {
        let errors = arm.warm_a.errors + arm.live_b.errors;
        if errors > 0 {
            eprintln!("loadgen: epoch-ab: tier-{name} arm saw {errors} request errors");
            failed = true;
        }
    }
    std::process::exit(i32::from(failed))
}

fn main() {
    let (config, epoch_ab) = parse_config();
    if epoch_ab.enabled {
        run_epoch_ab_mode(&config, &epoch_ab);
    }
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = &config.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("loadgen: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    eprintln!(
        "# cold {:.1} req/s (p99 {:.1} ms) -> warm {:.1} req/s (p99 {:.2} ms), {:.1}x; \
         server hit ratio {:.3}",
        report.cold.rps,
        report.cold.p99_ms,
        report.warm.rps,
        report.warm.p99_ms,
        report.warm_over_cold_rps,
        report.server_hit_ratio,
    );
    if report.cold_cache_hits > 0 {
        eprintln!(
            "# warning: {} cold-pass responses were already cached — start a fresh daemon \
             for a true cold baseline",
            report.cold_cache_hits
        );
    }
    let mut failed = false;
    if report.cold.errors + report.warm.errors > 0 {
        eprintln!(
            "loadgen: {} responses outside {{2xx, 429}}",
            report.cold.errors + report.warm.errors
        );
        failed = true;
    }
    if let Some(open) = &report.open_loop {
        eprintln!(
            "# open loop: {} conns (ramp {:.1}s), offered {:.1} rps -> achieved {:.1} rps \
             ({} ok / {} rejected / {} errors / {} disconnects), p99 {:.2} ms, \
             {} stalled issues (max {} on one conn)",
            open.connections,
            open.connect_s,
            open.offered_rps,
            open.achieved_rps,
            open.ok,
            open.rejected,
            open.errors,
            open.disconnects,
            open.p99_ms,
            open.stalled_issues,
            open.max_conn_stalls,
        );
        if open.errors > 0 || open.disconnects > 0 {
            eprintln!(
                "loadgen: open loop saw {} errors and {} disconnects",
                open.errors, open.disconnects
            );
            failed = true;
        }
    }
    if let Some(guard) = &config.guard {
        if let Err(e) = check_guard(&report, guard, config.guard_factor) {
            eprintln!("loadgen: guard: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
