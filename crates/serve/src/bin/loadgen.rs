//! The `loadgen` load-testing client.
//!
//! ```text
//! Usage: loadgen [--addr HOST:PORT] [--duration SECONDS] [--connections N]
//!                [--rps R | --replay FILE]
//!                [--out FILE] [--guard FILE] [--guard-factor F]
//!        loadgen --peer-ab [--serve-exe PATH] [--out FILE]
//! ```
//!
//! Every measured request goes through one epoll engine and is timed
//! from its due time. By default the run is a cold pass (the mix once
//! on one connection) then a closed loop: `--connections` keep-alive
//! sockets, each re-armed the moment its response lands, for
//! `--duration` seconds. `--rps R` replaces the closed loop with an
//! open loop: Poisson arrivals at `R` per second over the connections,
//! which do not slow down when the server does. `--replay FILE`
//! replaces both with a recorded JSONL trace (as written by `serve
//! --router --record`), each request due at its recorded offset,
//! round-robin over the connections.
//!
//! The report is printed and, with `--out`, merged into that file
//! under the run's kind: `closed_loop`, `open_loop` or `replay`.
//! `--guard FILE` compares the run's p99 with the block of the same
//! kind in `FILE`. The run exits non-zero on any response outside
//! {2xx, backpressure}, any server-initiated disconnect, or a guard
//! breach.
//!
//! `--peer-ab` is a self-contained mode: it spawns two fresh two-shard
//! clusters from `--serve-exe` (default: the `serve` binary next to
//! this one) — the trace cache's cluster tier on (`--peer-fetch`, with
//! a 2,000 ms budget), then off — warms shard A, measures the same 105
//! simulations (the default mix's five kernel/matrix pairs × 21 sampled
//! configurations) live on shard B, and merges the comparison into
//! `--out` as the `cluster_peer_tier` block. It fails when the arms'
//! simulation payloads differ, the tier-on arm saw no remote hits, or
//! any pass saw an error.

use std::path::PathBuf;

use serde::Serialize;
use serve::loadgen::{check_guard, merge_report, run, run_peer_ab, LoadgenConfig, PhaseStats};

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--duration SECONDS] [--connections N] \
         [--rps R | --replay FILE] [--out FILE] [--guard FILE] [--guard-factor F] | \
         loadgen --peer-ab [--serve-exe PATH] [--out FILE]"
    );
    std::process::exit(code);
}

/// The `--peer-ab` half of the command line.
#[derive(Default)]
struct PeerAbCli {
    enabled: bool,
    serve_exe: Option<PathBuf>,
}

fn parse_config() -> (LoadgenConfig, PeerAbCli) {
    let mut config = LoadgenConfig::default();
    let mut peer_ab = PeerAbCli::default();
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
            "--rps" => {
                config.rps = Some(
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
            "--peer-ab" => peer_ab.enabled = true,
            "--serve-exe" => {
                peer_ab.serve_exe = Some(PathBuf::from(need(&mut args, "--serve-exe")))
            }
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown flag '{other}'");
                usage_and_exit(2)
            }
        }
    }
    if config.rps.is_some() && config.replay.is_some() {
        eprintln!("--rps and --replay are two different schedules; pass one");
        usage_and_exit(2)
    }
    (config, peer_ab)
}

/// Prints `report` and merges it into `--out` under `key`; exits 1 when
/// the file cannot be written.
fn publish(config: &LoadgenConfig, key: &str, report: &impl Serialize) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    println!("{json}");
    if let Some(path) = &config.out {
        if let Err(e) = merge_report(path, key, report.to_value()) {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    }
}

/// Reports a phase's request errors and server-initiated disconnects;
/// true when there were any.
fn phase_failed(name: &str, phase: &PhaseStats) -> bool {
    let failed = phase.errors > 0 || phase.disconnects > 0;
    if failed {
        eprintln!(
            "loadgen: {name}: {} errors, {} disconnects",
            phase.errors, phase.disconnects
        );
    }
    failed
}

/// Runs the self-contained peer-tier A/B and exits. Failure modes:
/// differing payloads across arms, no remote hits with the tier on, or
/// request errors in any pass.
fn run_peer_ab_mode(config: &LoadgenConfig, cli: &PeerAbCli) -> ! {
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
    let report = match run_peer_ab(&serve_exe) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: peer-ab: {e}");
            std::process::exit(1);
        }
    };
    publish(config, "cluster_peer_tier", &report);
    eprintln!(
        "# peer tier on: live B mean {:.2} ms ({} remote hits, {} remote misses, {} simulated, \
         fetch p50 {:.2} ms, mean {:.2} ms); off: {:.2} ms; speedup {:.2}x; payloads identical: {}",
        report.tier_on.live_b.mean_ms,
        report.tier_on.remote_hits,
        report.tier_on.remote_misses,
        report.tier_on.misses,
        report.tier_on.fetch_p50_ms,
        report.tier_on.fetch_mean_ms,
        report.tier_off.live_b.mean_ms,
        report.warm_speedup,
        report.identical,
    );
    let mut failed = false;
    if !report.identical {
        eprintln!("loadgen: peer-ab: arms returned different simulation payloads");
        failed = true;
    }
    if report.tier_on.remote_hits == 0 {
        eprintln!("loadgen: peer-ab: tier-on arm saw no remote hits");
        failed = true;
    }
    for (name, arm) in [("on", &report.tier_on), ("off", &report.tier_off)] {
        failed |= phase_failed(&format!("peer-ab tier-{name} warm A"), &arm.warm_a);
        failed |= phase_failed(&format!("peer-ab tier-{name} live B"), &arm.live_b);
    }
    std::process::exit(i32::from(failed))
}

fn main() {
    let (config, peer_ab) = parse_config();
    if peer_ab.enabled {
        run_peer_ab_mode(&config, &peer_ab);
    }
    let key = config.key();
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    publish(&config, key, &report);
    let warm = &report.warm;
    eprintln!(
        "# {key}: {} conns (ramp {:.1}s), {} sent -> {:.1} req/s ({} ok / {} rejected / \
         {} errors / {} disconnects), p50 {:.2} ms, p99 {:.2} ms, {} stalled (max {} on one \
         conn); server hit ratio {:.3}",
        report.connections,
        warm.connect_s,
        warm.requests,
        warm.rps,
        warm.ok,
        warm.rejected,
        warm.errors,
        warm.disconnects,
        warm.p50_ms,
        warm.p99_ms,
        warm.stalled,
        warm.max_conn_stalls,
        report.server_hit_ratio,
    );
    let mut failed = phase_failed(key, warm);
    if let Some(cold) = &report.cold {
        eprintln!(
            "# cold {:.1} req/s (p99 {:.1} ms); warm/cold {:.1}x",
            cold.rps, cold.p99_ms, report.warm_over_cold_rps,
        );
        failed |= phase_failed("cold pass", cold);
    }
    if report.cold_cache_hits > 0 {
        eprintln!(
            "# warning: {} cold-pass responses were already cached — start a fresh daemon \
             for a true cold baseline",
            report.cold_cache_hits
        );
    }
    if let Some(guard) = &config.guard {
        if let Err(e) = check_guard(&report, key, guard, config.guard_factor) {
            eprintln!("loadgen: guard: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
