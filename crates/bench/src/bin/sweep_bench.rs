//! Timing harness for the sweep engine: measures thread scaling, the
//! simulator's serial cost per simulated op, the SoA inner loop against
//! the frozen reference path, the trace cache's effect on a repeated
//! sweep and the epoch cache's effect on live schemes, then writes the
//! numbers to `BENCH_sweep.json` at the repository root.
//!
//! ```text
//! Usage: sweep_bench [--threads N] [--configs S] [--reps R] [--out FILE] [--quick]
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
use sparseadapt::trace_cache::{TraceCache, TraceKey};
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy, SparseAdaptController};
use transmuter::config::{ConfigParam, MachineSpec, MemKind, TransmuterConfig};
use transmuter::machine::RunResult;
use transmuter::metrics::OptMode;
use transmuter::workload::Workload;

/// Each timing `X_s` is the minimum over the repetitions and
/// `X_median_s` their median.
#[derive(Serialize)]
struct ScenarioTiming {
    workload: String,
    configs: usize,
    epochs: usize,
    /// Op-stream entries of the workload, over every phase and GPE.
    entries: u64,
    /// One thread, work stealing (degenerates to serial execution).
    serial_s: f64,
    serial_median_s: f64,
    /// serial_s per simulated event (one op-stream entry under one
    /// config), in ns: the simulator's host cost per op.
    serial_ns_per_event: f64,
    /// N threads, work stealing, cache bypassed.
    work_stealing_s: f64,
    work_stealing_median_s: f64,
    /// N threads, work stealing, but through the frozen pre-SoA
    /// reference simulation path (AoS op vectors, per-event heap churn,
    /// unbatched HBM) — the original inner loop kept verbatim for A/B.
    legacy_aos_s: f64,
    legacy_aos_median_s: f64,
    /// N threads, work stealing, through an emptied trace cache.
    cached_first_s: f64,
    cached_first_median_s: f64,
    /// Same sweep again — every config is a cache hit.
    cached_second_s: f64,
    cached_second_median_s: f64,
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
    /// Live-scheme evaluation (live SparseAdapt + greedy replay +
    /// ProfileAdapt replay), epoch cache disabled.
    live_cold_s: f64,
    live_cold_median_s: f64,
    /// The same evaluation from an emptied epoch cache: each run
    /// records its epochs, and hits only what an earlier run of the
    /// pass recorded.
    live_warm_first_s: f64,
    live_warm_first_median_s: f64,
    /// Steady state: every epoch of every scheme is a cache hit.
    live_warm_s: f64,
    live_warm_median_s: f64,
    /// live_cold_s / live_warm_s.
    live_speedup: f64,
    /// The epoch tier's accounted footprint after one recording pass:
    /// every live epoch's exit snapshot, shared cache pages counted
    /// once.
    epoch_resident_mb: f64,
    /// Epoch-cache hit rate within one recording pass.
    epoch_first_hit_rate: f64,
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
    /// Repetitions behind every timing's minimum and median.
    reps: usize,
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

/// Wall clock over repetitions of one computation.
struct Timing {
    /// The minimum: the standard noise-robust estimator for a
    /// deterministic computation, since scheduler preemption and
    /// interrupts only ever add time.
    min_s: f64,
    /// The median, which shows the spread the minimum hides.
    median_s: f64,
}

/// Times `reps` runs of `run`, each after an untimed `prepare`, and
/// returns every run's output in order.
fn time_reps<R>(
    reps: usize,
    mut prepare: impl FnMut(),
    mut run: impl FnMut() -> R,
) -> (Timing, Vec<R>) {
    let mut secs = Vec::with_capacity(reps);
    let mut outs = Vec::with_capacity(reps);
    for _ in 0..reps {
        prepare();
        let (t, r) = time(&mut run);
        secs.push(t);
        outs.push(r);
    }
    secs.sort_by(f64::total_cmp);
    let mid = secs.len() / 2;
    let median_s = if secs.len() % 2 == 0 {
        (secs[mid - 1] + secs[mid]) / 2.0
    } else {
        secs[mid]
    };
    (
        Timing {
            min_s: secs[0],
            median_s,
        },
        outs,
    )
}

/// Op-stream entries of a workload, over every phase and GPE.
fn entries(workload: &Workload) -> u64 {
    workload
        .phases
        .iter()
        .flat_map(|p| &p.streams)
        .map(|s| s.len() as u64)
        .sum()
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
/// performs one real reconfiguration — the epoch cache has to survive
/// the hit→miss transition at the divergence point, exactly like the
/// differential suite.
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
) -> [RunResult; 3] {
    let mode = OptMode::default();
    let mut ctrl = SparseAdaptController::new(ensemble.clone(), ReconfigPolicy::Aggressive, spec);
    let live = run_live(
        spec,
        TransmuterConfig::best_avg_cache(),
        workload,
        &mut ctrl,
    );
    let greedy = schemes::ideal_greedy(sweep, mode);
    let schedule: Vec<TransmuterConfig> =
        greedy.schedule.iter().map(|&i| sweep.configs[i]).collect();
    let mut replay = ScheduleController::new(schedule);
    let greedy = run_live(spec, replay.start_config(), workload, &mut replay);
    let mut max = TransmuterConfig::maximum();
    max.l1_kind = MemKind::Cache;
    let profile_idx = sweep
        .config_index(&max)
        .expect("reference configs are always sampled");
    let pa = schemes::profileadapt_ideal(sweep, mode, profile_idx);
    let schedule: Vec<TransmuterConfig> = pa.schedule.iter().map(|&i| sweep.configs[i]).collect();
    let mut replay = ScheduleController::new(schedule);
    let profile = run_live(spec, replay.start_config(), workload, &mut replay);
    [live, greedy, profile]
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

/// Every pass with the epoch cache on must reproduce the pass with it
/// off bit for bit. A divergence voids every epoch-cache timing, so the
/// harness names the offending run and exits non-zero instead of
/// reporting bogus speedups.
fn check_live_identity(name: &str, pass: &str, off: &[RunResult; 3], on: &[RunResult; 3]) {
    let runs = ["SparseAdapt", "Ideal Greedy replay", "ProfileAdapt replay"];
    for ((run, a), b) in runs.iter().zip(off).zip(on) {
        if a != b {
            eprintln!(
                "sweep_bench: the {run} run of a {pass} pass with the epoch cache on diverged \
                 from the cache-off pass on scenario {name}: the results must be bit-identical"
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

    let (serial, _) = time_reps(
        reps,
        || {},
        || SweepData::simulate_uncached(spec, workload, configs, 1),
    );
    let (work_stealing, mut sweeps) = time_reps(
        reps,
        || {},
        || SweepData::simulate_uncached(spec, workload, configs, threads),
    );
    let sweep = sweeps.swap_remove(0);
    let (legacy_aos, legacy) = time_reps(
        reps,
        || {},
        || SweepData::simulate_reference(spec, workload, configs, threads),
    );
    for (c, (a, b)) in sweep.traces.iter().zip(legacy[0].traces.iter()).enumerate() {
        assert_eq!(
            **a, **b,
            "SoA and legacy paths diverged on config {c}: the A/B is void"
        );
    }
    let key = TraceKey::new(&spec, workload, &configs[0]);
    let trace_bin_bytes = sparseadapt::trace_bin::encode_trace(&key, &sweep.traces[0]).len();
    let (cached_first, _) = time_reps(
        reps,
        || TraceCache::global().clear(),
        || SweepData::simulate(spec, workload, configs, threads),
    );
    let (cached_second, _) = time_reps(
        reps,
        || {},
        || SweepData::simulate(spec, workload, configs, threads),
    );

    // -- epoch-granular memoization: the live-scheme evaluation path --
    let epoch_cache = EpochCache::global();
    let ensemble = downclock_ensemble();
    // Cold: cache off, every live epoch is simulated.
    let (live_cold, mut off) = time_reps(
        reps,
        || {},
        || live_schemes_pass(spec, workload, &sweep, &ensemble),
    );
    let off = off.swap_remove(0);
    // First pass from an emptied tier: every run records its epochs and
    // hits only those an earlier run of the pass shares with it.
    epoch_cache.set_enabled(true);
    let (live_warm_first, firsts) = time_reps(
        reps,
        || epoch_cache.clear(),
        || live_schemes_pass(spec, workload, &sweep, &ensemble),
    );
    let first_stats = epoch_cache.stats();
    // Steady state: everything hits.
    let (live_warm, warms) = time_reps(
        reps,
        || {},
        || live_schemes_pass(spec, workload, &sweep, &ensemble),
    );
    let warm_stats = epoch_cache.stats();
    epoch_cache.set_enabled(false);
    epoch_cache.clear();
    for on in &firsts {
        check_live_identity(name, "recording", &off, on);
    }
    for on in &warms {
        check_live_identity(name, "warm", &off, on);
    }
    let warm_hits = warm_stats.hits - first_stats.hits;
    let warm_lookups = warm_stats.lookups - first_stats.lookups;
    assert!(
        warm_hits > 0,
        "warm live-scheme passes never hit the epoch cache: {warm_stats:?}"
    );

    let entries = entries(workload);
    ScenarioTiming {
        workload: name.to_string(),
        configs: configs.len(),
        epochs: sweep.traces[0].len(),
        entries,
        serial_s: serial.min_s,
        serial_median_s: serial.median_s,
        serial_ns_per_event: serial.min_s * 1e9 / (entries * configs.len() as u64) as f64,
        work_stealing_s: work_stealing.min_s,
        work_stealing_median_s: work_stealing.median_s,
        legacy_aos_s: legacy_aos.min_s,
        legacy_aos_median_s: legacy_aos.median_s,
        cached_first_s: cached_first.min_s,
        cached_first_median_s: cached_first.median_s,
        cached_second_s: cached_second.min_s,
        cached_second_median_s: cached_second.median_s,
        thread_speedup: serial.min_s / work_stealing.min_s,
        resweep_speedup: work_stealing.min_s / cached_second.min_s,
        soa_speedup: legacy_aos.min_s / work_stealing.min_s,
        trace_bin_bytes,
        live_cold_s: live_cold.min_s,
        live_cold_median_s: live_cold.median_s,
        live_warm_first_s: live_warm_first.min_s,
        live_warm_first_median_s: live_warm_first.median_s,
        live_warm_s: live_warm.min_s,
        live_warm_median_s: live_warm.median_s,
        live_speedup: live_cold.min_s / live_warm.min_s,
        epoch_resident_mb: first_stats.resident_bytes as f64 / (1u64 << 20) as f64,
        epoch_first_hit_rate: first_stats.hit_rate(),
        epoch_hit_rate: warm_hits as f64 / warm_lookups as f64,
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
        // (including the SoA-vs-reference and cache-on-vs-off identity
        // checks), not producing stable numbers.
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
            "#   serial {:.2}s ({:.1} ns/event) | steal {:.2}s | legacy {:.2}s (soa {:.2}x) | \
             cached 2nd {:.4}s",
            t.serial_s,
            t.serial_ns_per_event,
            t.work_stealing_s,
            t.legacy_aos_s,
            t.soa_speedup,
            t.cached_second_s,
        );
        eprintln!(
            "#   live cold {:.3}s | warm-first {:.3}s | warm {:.3}s ({:.2}x, hit rate {:.3}) | \
             epoch tier {:.1} MiB",
            t.live_cold_s,
            t.live_warm_first_s,
            t.live_warm_s,
            t.live_speedup,
            t.epoch_hit_rate,
            t.epoch_resident_mb
        );
        scenarios.push(t);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = vec![
        "serial_s is one thread; work_stealing_s is N threads, trace cache bypassed".into(),
        "serial_ns_per_event is serial_s over entries x configs: one event is one op-stream \
         entry simulated under one config"
            .into(),
        format!(
            "every timing X_s is the minimum over {reps} repetitions (best-of-N; OS noise only \
             ever adds time to a deterministic computation) and X_median_s their median; the \
             speedups divide minimums"
        ),
        "cached_second_s repeats an identical sweep; every config is a trace-cache hit".into(),
        "resweep_speedup is the repeated-sweep cost vs a cold sweep, the situation `paper all` \
         hits whenever two experiments share a (spec, workload, config) triple"
            .into(),
        "legacy_aos_s runs the frozen pre-SoA inner loop (AoS op vectors, per-event heap \
         traffic, unbatched HBM, allocating prefetch, L1 access energies derived from the \
         energy table on every access); soa_speedup is the inner-loop win with bit-identical \
         traces asserted on every config"
            .into(),
        "live_* time the live-scheme evaluation path (closed-loop SparseAdapt with a \
         deterministic downclock ensemble that forces one reconfiguration, plus live replays \
         of the Ideal Greedy and ProfileAdapt schedules) with the epoch cache off (cold), from \
         an emptied cache each rep (warm_first: every run records its epochs, and hits only \
         what an earlier run of the pass shares with it), and at steady state (warm: every \
         epoch hits); sweeps never touch the epoch cache, and every cache-on pass must equal \
         the cache-off pass (the harness exits non-zero on divergence)"
            .into(),
        "epoch_resident_mb is the epoch tier's accounted memory after one recording pass \
         (snapshots share unchanged cache pages, each counted once); epoch_first_hit_rate is \
         the hit rate within that pass and epoch_hit_rate over the warm passes"
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
        reps,
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
