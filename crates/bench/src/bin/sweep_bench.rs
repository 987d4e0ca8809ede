//! Timing harness for the sweep engine: measures thread scaling, the
//! SoA inner loop against the frozen reference path, the trace cache's
//! effect on a repeated sweep and the epoch cache's effect on a warm
//! resweep and on live schemes, then writes the numbers to
//! `BENCH_sweep.json` at the repository root.
//!
//! ```text
//! Usage: sweep_bench [--threads N] [--configs S] [--out FILE]
//! Scale via SA_SCALE = quick | half | paper (default quick).
//! ```
//!
//! The cached scenario mirrors what `paper` does end to end: several
//! experiments sweep the same (spec, workload, config) triples, so the
//! second and later sweeps should be near-free.

use std::collections::BTreeMap;
use std::time::Instant;

use fxhash::FxHashMap;
use mltree::{Dataset, DecisionTree, TreeParams};
use serde::Serialize;
use sparse::suite::{spmspm_suite, spmspv_suite};
use sparseadapt::epoch_cache::EpochCache;
use sparseadapt::exec;
use sparseadapt::features::{feature_names, FEATURE_COUNT};
use sparseadapt::runtime::run_live;
use sparseadapt::schemes::{self, ScheduleController};
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::trace_cache::TraceCache;
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy, SparseAdaptController};
use transmuter::config::{ConfigParam, MachineSpec, MemKind, TransmuterConfig};
use transmuter::metrics::OptMode;
use transmuter::workload::Workload;

#[derive(Serialize)]
struct ScenarioTiming {
    workload: String,
    configs: usize,
    epochs: usize,
    /// One thread, work stealing (degenerates to serial execution).
    serial_s: f64,
    /// N threads, work stealing, cache bypassed.
    work_stealing_s: f64,
    /// N threads, work stealing, but through the frozen pre-SoA
    /// reference simulation path (AoS op vectors, per-event heap churn,
    /// unbatched HBM) — the PR-1 inner loop kept verbatim for A/B.
    legacy_aos_s: f64,
    /// N threads, work stealing, first pass through the trace cache.
    cached_first_s: f64,
    /// Same sweep again — every config is a cache hit.
    cached_second_s: f64,
    /// Epoch-cache-warm resweep (trace cache cleared each rep): every
    /// epoch fast-forwards from the epoch tier. Its traces must equal
    /// the cold sweep's — a mismatch makes the harness exit non-zero.
    epoch_resweep_s: f64,
    /// serial_s / work_stealing_s: thread-scaling win.
    thread_speedup: f64,
    /// work_stealing_s / cached_second_s: what a repeated sweep costs
    /// relative to a cold one.
    resweep_speedup: f64,
    /// legacy_aos_s / work_stealing_s: the SoA + batched-HBM inner-loop
    /// win on an uncached sweep, identical outputs on both sides.
    soa_speedup: f64,
    /// One trace of this sweep in the binary `trace_bin` disk-cache
    /// format.
    trace_bin_bytes: usize,
    /// The sweep re-run with the epoch cache recording (trace cache
    /// cleared first): the one-time cost of warming the epoch tier.
    epoch_sweep_warm_s: f64,
    /// Live-scheme evaluation (live SparseAdapt + greedy replay +
    /// ProfileAdapt replay), epoch cache disabled.
    live_cold_s: f64,
    /// The same evaluation right after the sweep warmed the cache: the
    /// shared prefix epochs fast-forward, post-divergence epochs are
    /// simulated once and recorded.
    live_warm_first_s: f64,
    /// Steady state: every epoch of every scheme is a cache hit.
    live_warm_s: f64,
    /// live_cold_s / live_warm_s.
    live_speedup: f64,
    /// Epoch-cache hit rate over the warm passes.
    epoch_hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    /// `std::thread::available_parallelism` on the measuring host; the
    /// thread speedups are only meaningful when this is > 1.
    host_cpus: usize,
    scale: String,
    sampled_configs: usize,
    scenarios: Vec<ScenarioTiming>,
    /// Geometric means over the scenarios.
    geomean_thread_speedup: f64,
    geomean_resweep_speedup: f64,
    geomean_soa_speedup: f64,
    geomean_live_speedup: f64,
    /// SipHash `HashMap` vs vendored `FxHashMap` lookup throughput on
    /// fingerprint-triple keys (the trace/epoch cache key shape).
    fxhash_lookup_speedup: f64,
    notes: Vec<String>,
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Best-of-`reps` wall clock. The minimum is the standard
/// noise-robust estimator for a deterministic computation: scheduler
/// preemption and interrupts only ever add time, so the smallest
/// observation is the closest to the true cost.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let (mut best, mut out) = time(&mut f);
    for _ in 1..reps {
        let (t, r) = time(&mut f);
        if t < best {
            best = t;
            out = r;
        }
    }
    (best, out)
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// A deterministic hand-built ensemble (no training cost): asks for a
/// 125 MHz clock and Best Avg elsewhere, so the live SparseAdapt run
/// performs one real reconfiguration — the epoch cache's warm pass has
/// to survive the hit→miss transition at the divergence point, exactly
/// like the differential suite.
fn downclock_ensemble() -> PredictiveEnsemble {
    let best_avg = TransmuterConfig::best_avg_cache();
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

/// One pass over the live-scheme evaluation path: the closed-loop
/// SparseAdapt controller plus live replays of the Ideal Greedy and
/// ProfileAdapt schedules. This is the work `eval::compare` pays after
/// its sweep — the epoch cache's target.
fn live_schemes_pass(
    spec: MachineSpec,
    workload: &Workload,
    sweep: &SweepData,
    ensemble: &PredictiveEnsemble,
) {
    let mode = OptMode::default();
    let mut ctrl = SparseAdaptController::new(ensemble.clone(), ReconfigPolicy::Aggressive, spec);
    run_live(
        spec,
        TransmuterConfig::best_avg_cache(),
        workload,
        &mut ctrl,
    );
    let greedy = schemes::ideal_greedy(sweep, mode);
    let schedule: Vec<TransmuterConfig> =
        greedy.schedule.iter().map(|&i| sweep.configs[i]).collect();
    let mut replay = ScheduleController::new(schedule);
    run_live(spec, replay.start_config(), workload, &mut replay);
    let mut max = TransmuterConfig::maximum();
    max.l1_kind = MemKind::Cache;
    let profile_idx = sweep
        .config_index(&max)
        .expect("reference configs are always sampled");
    let pa = schemes::profileadapt_ideal(sweep, mode, profile_idx);
    let schedule: Vec<TransmuterConfig> = pa.schedule.iter().map(|&i| sweep.configs[i]).collect();
    let mut replay = ScheduleController::new(schedule);
    run_live(spec, replay.start_config(), workload, &mut replay);
}

/// SipHash vs FxHash lookup throughput on the cache-key shape (three
/// u64 fingerprints). Keys are already uniformly distributed, which is
/// why the caches use FxHash: SipHash's flood resistance buys nothing.
fn fxhash_lookup_bench() -> f64 {
    const N: usize = 1 << 16;
    const ROUNDS: usize = 64;
    let keys: Vec<(u64, u64, u64)> = (0..N as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (x, x ^ 0xabcd_ef01, x.rotate_left(17))
        })
        .collect();
    let mut sip: std::collections::HashMap<(u64, u64, u64), u64> = std::collections::HashMap::new();
    let mut fx: FxHashMap<(u64, u64, u64), u64> = FxHashMap::default();
    for &k in &keys {
        sip.insert(k, k.0);
        fx.insert(k, k.0);
    }
    let (sip_s, a) = time(|| {
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for k in &keys {
                acc = acc.wrapping_add(sip[k]);
            }
        }
        acc
    });
    let (fx_s, b) = time(|| {
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for k in &keys {
                acc = acc.wrapping_add(fx[k]);
            }
        }
        acc
    });
    assert_eq!(a, b);
    sip_s / fx_s
}

/// The epoch-cache-warm resweep must reproduce the cold sweep bit for
/// bit. A divergence voids every epoch-cache timing, so the harness
/// names the offending config and exits non-zero instead of reporting
/// bogus speedups.
fn check_resweep_identity(name: &str, cold: &SweepData, warm: &SweepData) {
    for (c, (a, b)) in cold.traces.iter().zip(warm.traces.iter()).enumerate() {
        if **a != **b {
            eprintln!(
                "sweep_bench: epoch-cache-warm resweep diverged from the cold sweep on \
                 scenario {name}, config {c}: the traces must be bit-identical"
            );
            std::process::exit(1);
        }
    }
}

fn bench_scenario(
    name: &str,
    spec: MachineSpec,
    workload: &Workload,
    configs: &[transmuter::config::TransmuterConfig],
    threads: usize,
    reps: usize,
) -> ScenarioTiming {
    // Warm-up pass so page faults and lazy allocations don't land on
    // the first measured variant.
    SweepData::simulate_uncached(spec, workload, configs, threads);

    let (serial_s, _) = time_min(reps, || {
        SweepData::simulate_uncached(spec, workload, configs, 1)
    });
    let (work_stealing_s, sweep) = time_min(reps, || {
        SweepData::simulate_uncached(spec, workload, configs, threads)
    });
    let (legacy_aos_s, legacy) = time_min(reps, || {
        SweepData::simulate_reference(spec, workload, configs, threads)
    });
    for (c, (a, b)) in sweep.traces.iter().zip(legacy.traces.iter()).enumerate() {
        assert_eq!(
            **a, **b,
            "SoA and legacy paths diverged on config {c}: the A/B is void"
        );
    }
    let trace_bin_bytes = sparseadapt::trace_bin::encode_trace(&sweep.traces[0]).len();
    TraceCache::global().clear();
    let (cached_first_s, _) = time(|| SweepData::simulate(spec, workload, configs, threads));
    let (cached_second_s, _) = time(|| SweepData::simulate(spec, workload, configs, threads));

    // -- epoch-granular memoization: the live-scheme evaluation path --
    let epoch_cache = EpochCache::global();
    let ensemble = downclock_ensemble();
    // Cold: cache off, every live epoch is simulated.
    let (live_cold_s, _) = time_min(reps, || {
        live_schemes_pass(spec, workload, &sweep, &ensemble)
    });
    // Warm the epoch tier by re-running the sweep with the cache
    // recording (trace cache cleared so the sweep actually simulates).
    epoch_cache.set_enabled(true);
    epoch_cache.clear();
    TraceCache::global().clear();
    let (epoch_sweep_warm_s, _) = time(|| SweepData::simulate(spec, workload, configs, threads));
    // Epoch-cache-warm resweep: the epoch tier is hot and the trace
    // cache is cleared before every pass, so every epoch replays from
    // the cache and must still match the cold sweep bit for bit.
    let (epoch_resweep_s, warm) = time_min(reps, || {
        TraceCache::global().clear();
        SweepData::simulate(spec, workload, configs, threads)
    });
    check_resweep_identity(name, &sweep, &warm);
    // First live pass after the sweep: constant-config prefixes
    // fast-forward; each scheme's post-divergence tail simulates once
    // and is recorded.
    let (live_warm_first_s, _) = time(|| live_schemes_pass(spec, workload, &sweep, &ensemble));
    // Steady state: everything hits.
    let (live_warm_s, _) = time_min(reps, || {
        live_schemes_pass(spec, workload, &sweep, &ensemble)
    });
    let epoch_stats = epoch_cache.stats();
    assert!(
        epoch_stats.hits > 0,
        "warmed live-scheme passes never hit the epoch cache: {epoch_stats:?}"
    );
    epoch_cache.set_enabled(false);
    epoch_cache.clear();

    ScenarioTiming {
        workload: name.to_string(),
        configs: configs.len(),
        epochs: sweep.traces[0].len(),
        serial_s,
        work_stealing_s,
        legacy_aos_s,
        cached_first_s,
        cached_second_s,
        epoch_resweep_s,
        thread_speedup: serial_s / work_stealing_s,
        resweep_speedup: work_stealing_s / cached_second_s,
        soa_speedup: legacy_aos_s / work_stealing_s,
        trace_bin_bytes,
        epoch_sweep_warm_s,
        live_cold_s,
        live_warm_first_s,
        live_warm_s,
        live_speedup: live_cold_s / live_warm_s,
        epoch_hit_rate: epoch_stats.hit_rate(),
    }
}

fn main() {
    let mut threads = exec::default_threads();
    let mut sampled = 16usize;
    let mut reps = 3usize;
    let mut out = String::from("BENCH_sweep.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()).unwrap_or(threads),
            "--configs" => sampled = args.next().and_then(|v| v.parse().ok()).unwrap_or(sampled),
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(reps)
                    .max(1)
            }
            "--out" => out = args.next().unwrap_or(out),
            "--quick" => quick = true,
            other => {
                eprintln!(
                    "usage: sweep_bench [--threads N] [--configs S] [--reps R] [--out FILE] \
                     [--quick]"
                );
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    if quick {
        // CI smoke leg: the point is exercising every code path
        // (including both identity checks), not producing stable
        // numbers.
        reps = 1;
        sampled = sampled.min(6);
    }
    let harness = sa_bench::Harness::default().with_threads(threads);
    let seed = harness.seed;
    eprintln!(
        "# sweep_bench scale={:?} threads={threads} configs={sampled} reps={reps}",
        harness.scale
    );

    let mut scenarios = Vec::new();
    // One SpMSpM and one SpMSpV matrix from each suite end: a dense-ish
    // head and a power-law tail exercise skewed per-config runtimes.
    let mm = spmspm_suite();
    let mv = spmspv_suite();
    let mut picks = vec![
        (&mm[0], sa_bench::experiments::Kernel::SpMSpM),
        (mm.last().unwrap(), sa_bench::experiments::Kernel::SpMSpM),
        (&mv[0], sa_bench::experiments::Kernel::SpMSpV),
        (mv.last().unwrap(), sa_bench::experiments::Kernel::SpMSpV),
    ];
    if quick {
        picks.truncate(2);
    }
    let configs = sample_configs(MemKind::Cache, sampled, seed);
    for (mspec, kernel) in picks {
        let spec = kernel.spec(harness.scale);
        let wl = sa_bench::experiments::suite_workload(&harness, mspec, kernel, MemKind::Cache);
        eprintln!("# scenario {} ({:?})", mspec.id, kernel);
        let t = bench_scenario(mspec.id, spec, &wl, &configs, threads, reps);
        eprintln!(
            "#   serial {:.2}s | steal {:.2}s | legacy {:.2}s (soa {:.2}x) | cached 2nd {:.4}s | \
             warm resweep {:.3}s",
            t.serial_s,
            t.work_stealing_s,
            t.legacy_aos_s,
            t.soa_speedup,
            t.cached_second_s,
            t.epoch_resweep_s
        );
        eprintln!(
            "#   live cold {:.3}s | warm-first {:.3}s | warm {:.3}s ({:.2}x, hit rate {:.3})",
            t.live_cold_s, t.live_warm_first_s, t.live_warm_s, t.live_speedup, t.epoch_hit_rate
        );
        scenarios.push(t);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = vec![
        "serial_s is one thread; work_stealing_s is N threads, trace cache bypassed".into(),
        format!(
            "every timing is the minimum over {reps} repetitions (best-of-N; OS noise only ever \
             adds time to a deterministic computation)"
        ),
        "cached_second_s repeats an identical sweep; every config is a trace-cache hit".into(),
        "resweep_speedup is the repeated-sweep cost vs a cold sweep, the situation `paper all` \
         hits whenever two experiments share a (spec, workload, config) triple"
            .into(),
        "legacy_aos_s runs the frozen pre-SoA inner loop (AoS op vectors, per-event heap \
         traffic, unbatched HBM, allocating prefetch); soa_speedup is the inner-loop win with \
         bit-identical traces asserted on every config"
            .into(),
        "epoch_resweep_s re-runs the sweep with the epoch tier hot and the trace cache \
         cleared each rep; its traces must equal the cold sweep's (the harness exits non-zero \
         on divergence)"
            .into(),
        "live_* time the live-scheme evaluation path (closed-loop SparseAdapt with a \
         deterministic downclock ensemble that forces one reconfiguration, plus live replays \
         of the Ideal Greedy and ProfileAdapt schedules) with the epoch cache off (cold), \
         right after the sweep warmed it (warm_first: constant-config prefixes fast-forward, \
         post-divergence tails simulate once and are recorded), and at steady state (warm: \
         every epoch hits); results are bit-identical in all three, enforced by \
         tests/epoch_cache_differential.rs"
            .into(),
        "epoch_sweep_warm_s is the one-time cost of the recording sweep (snapshotting machine \
         state at every epoch boundary) relative to cached_first_s"
            .into(),
        "fxhash_lookup_speedup: the trace/epoch cache maps moved from SipHash HashMap to the \
         vendored FxHashMap; keys are already uniformly distributed fingerprints, so SipHash's \
         flood resistance buys nothing — the figure is lookup throughput on the (spec, \
         workload, config) key shape"
            .into(),
    ];
    if host_cpus <= 1 {
        notes.push(
            "host has a single CPU: thread speedups necessarily measure ~1x here; \
             the wall-clock win on this host comes from the trace cache and the simulator \
             inner-loop optimizations"
                .into(),
        );
    }
    let report = Report {
        threads,
        host_cpus,
        scale: format!("{:?}", harness.scale),
        sampled_configs: sampled,
        geomean_thread_speedup: geomean(scenarios.iter().map(|s| s.thread_speedup)),
        geomean_resweep_speedup: geomean(scenarios.iter().map(|s| s.resweep_speedup)),
        geomean_soa_speedup: geomean(scenarios.iter().map(|s| s.soa_speedup)),
        geomean_live_speedup: geomean(scenarios.iter().map(|s| s.live_speedup)),
        fxhash_lookup_speedup: fxhash_lookup_bench(),
        scenarios,
        notes,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    eprintln!(
        "# geomeans: threads {:.2}x, resweep {:.2}x, soa {:.2}x, live {:.2}x, fxhash {:.2}x \
         -> {out}",
        report.geomean_thread_speedup,
        report.geomean_resweep_speedup,
        report.geomean_soa_speedup,
        report.geomean_live_speedup,
        report.fxhash_lookup_speedup
    );
}
