//! The simulation workload, `adapt_memo`.
//!
//! Each one sets up (several times, for a steady `setup_s`), measures
//! whole rounds over its seeded jobs until the window has elapsed, and
//! then checks its outputs: repeats of a job must be bit-identical, and
//! a seeded sample is re-run through an independent path.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sparseadapt::epoch_cache::EpochCache;
use sparseadapt::runtime::run_live;
use sparseadapt::schemes;
use sparseadapt::stitch::SweepData;
use sparseadapt::trace_cache::TraceCache;
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy, SparseAdaptController};
use transmuter::config::TransmuterConfig;
use transmuter::counters::Telemetry;
use transmuter::machine::{
    CachedEpoch, Controller, EpochBoundary, EpochHook, EpochRecord, Machine, RunResult,
};
use transmuter::metrics::{Metrics, OptMode};

use crate::inputs::{self, Input, SWEEP_THREADS};
use crate::report::Report;
use crate::stats::{self, Digest};
use crate::trace::{self, Tracer, ROOT};
use crate::Ctx;

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// well under a second, so one alone is at the mercy of the host.
pub const SETUPS: usize = 7;
/// Configurations re-simulated through `Machine::run_reference`.
const REFERENCE_SAMPLES: usize = 2;
/// Closed-loop runs re-run through `run_reference_with_controller`.
const REFERENCE_RUNS: usize = 3;
/// Telemetry samples kept for timing `PredictiveEnsemble::predict`.
const PREDICT_SAMPLES: usize = 4096;
/// Worker threads for closed-loop runs: the host's two cores.
const LIVE_THREADS: usize = 2;

/// The three §4.4 policies every closed-loop input runs under.
fn policies() -> [ReconfigPolicy; 3] {
    [
        ReconfigPolicy::hybrid40(),
        ReconfigPolicy::Conservative,
        ReconfigPolicy::Aggressive,
    ]
}

/// Resets process-wide state so neither workload order nor an earlier
/// pass can change a number: both caches empty, no disk or remote tier,
/// and the epoch tier on only when asked.
pub fn isolate(epoch_tier: bool) {
    let traces = TraceCache::global();
    traces.set_disk_dir(None);
    traces.set_memory_cap(None);
    traces.clear();
    let epochs = EpochCache::global();
    epochs.set_disk_dir(None);
    epochs.set_remote(None);
    epochs.set_memory_cap(None);
    epochs.clear();
    epochs.set_enabled(epoch_tier);
}

/// Sets up once, timed from its own start.
pub fn set_up<T>(report: &mut Report, build: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = build();
    report.setups_s.push(started.elapsed().as_secs_f64());
    out
}

/// Sets up [`SETUPS`]` - 1` more times (untraced runs), each timed like
/// the first and dropped before the next starts. Called after the peak
/// resident set is read and the checks have run, so the repeats never
/// reach the measured window or `peak_rss_mb`.
pub fn repeat_set_up<T>(ctx: &Ctx, report: &mut Report, mut build: impl FnMut() -> T) {
    if ctx.traced {
        return;
    }
    for _ in 1..SETUPS {
        drop(set_up(report, &mut build));
    }
}

/// Built inputs plus what building them cost.
struct Built {
    inputs: Vec<Input>,
    build_s: f64,
}

fn build(seed: u64, make: fn(u64) -> Vec<Input>) -> Built {
    let started = Instant::now();
    let inputs = make(seed);
    let build_s = started.elapsed().as_secs_f64();
    Built { inputs, build_s }
}

fn note_inputs(report: &mut Report, built: &Built) {
    report.layers.insert("kernels.build_s", built.build_s);
    report.layers.insert(
        "kernels.events",
        built.inputs.iter().map(|i| i.entries).sum::<u64>() as f64,
    );
    report.notes.push(format!(
        "input_digest={:016x} inputs={} configs_per_input={}",
        inputs::input_digest(&built.inputs),
        built.inputs.len(),
        inputs::SWEEP_CONFIGS
    ));
}

/// Digest of a closed-loop run: every field a caller can observe.
fn run_digest(r: &RunResult, reconfigs: usize) -> u64 {
    let mut d = Digest::default();
    d.f64(r.time_s);
    d.f64(r.energy_j);
    d.u64(r.flops);
    d.u64(r.fp_ops);
    d.value(&r.epochs);
    d.u64(reconfigs as u64);
    d.finish()
}

/// Keeps the first digest of every job and counts repeats that differ.
struct Outputs {
    first: Vec<Option<u64>>,
}

impl Outputs {
    fn new(jobs: usize) -> Outputs {
        Outputs {
            first: vec![None; jobs],
        }
    }

    /// Records one operation's output digest; `false` when it differs
    /// from an earlier run of the same job.
    fn see(&mut self, job: usize, digest: u64) -> bool {
        *self.first[job].get_or_insert(digest) == digest
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for v in &self.first {
            d.u64(v.unwrap_or(0));
        }
        d.finish()
    }
}

/// Overhead of tracing on the primary metric: how much lower the traced
/// window's throughput is than the untraced one's.
pub fn note_overhead(report: &mut Report, untraced: f64, traced: f64) {
    report.layers.insert("trace.untraced_ops_per_s", untraced);
    report.layers.insert("trace.traced_ops_per_s", traced);
    if untraced > 0.0 {
        report
            .layers
            .insert("trace.overhead_frac", (untraced - traced) / untraced);
    }
}

fn reference_index(configs: &[TransmuterConfig], cfg: TransmuterConfig) -> usize {
    configs
        .iter()
        .position(|c| *c == cfg)
        .expect("reference configurations are always sampled")
}

/// All five §5.3 schemes in both modes, stitched from one sweep; the
/// Oracle calls are timed when a tracer is given.
fn stitch_all(
    sweep: &SweepData,
    max_idx: usize,
    mut tracer: Option<(&mut Tracer, u32, u64)>,
) -> Vec<Metrics> {
    let mut out = Vec::new();
    for mode in OptMode::ALL {
        out.push(schemes::ideal_static(sweep, mode).1);
        out.push(schemes::ideal_greedy(sweep, mode).metrics);
        let oracle = match tracer.as_mut() {
            Some((t, parent, run)) => t.time("core.schemes.oracle", *parent, *run, || {
                schemes::oracle(sweep, mode)
            }),
            None => schemes::oracle(sweep, mode),
        };
        out.push(oracle.metrics);
        out.push(schemes::profileadapt_naive(sweep, mode, max_idx).metrics);
        out.push(schemes::profileadapt_ideal(sweep, mode, max_idx).metrics);
    }
    out
}

/// The stitched Oracle's EE score over the Baseline static run's.
fn oracle_gain(sweep: &SweepData, schemes: &[Metrics]) -> f64 {
    let baseline = reference_index(&sweep.configs, TransmuterConfig::baseline());
    let ee = OptMode::EnergyEfficient;
    ee.score(&schemes[2]) / ee.score(&sweep.static_metrics(baseline))
}

// ---------------------------------------------------------------------------
// adapt_memo
// ---------------------------------------------------------------------------

/// Shared state of the wrapping controller and hook of a traced run.
struct Probe {
    tracer: Tracer,
    run_span: u32,
    run_id: u64,
    boundaries: u64,
    reconfigs: u64,
    samples: Vec<(usize, Telemetry, TransmuterConfig)>,
    model: usize,
    lookups: u64,
    hits: u64,
    miss_end: Option<u64>,
    hit_end: Option<u64>,
    recorded: (u64, u64),
    fast_forward: (u64, u64),
    state_bytes: (u64, u64),
}

impl Probe {
    fn new(tracer: Tracer) -> Probe {
        Probe {
            tracer,
            run_span: ROOT,
            run_id: 0,
            boundaries: 0,
            reconfigs: 0,
            samples: Vec::new(),
            model: 0,
            lookups: 0,
            hits: 0,
            miss_end: None,
            hit_end: None,
            recorded: (0, 0),
            fast_forward: (0, 0),
            state_bytes: (0, 0),
        }
    }

    /// Folds another worker's probe into this one.
    fn merge(&mut self, mut other: Probe) {
        let spans = other.tracer.take();
        self.tracer.extend(spans);
        self.boundaries += other.boundaries;
        self.reconfigs += other.reconfigs;
        let room = PREDICT_SAMPLES.saturating_sub(self.samples.len());
        self.samples.extend(other.samples.into_iter().take(room));
        self.lookups += other.lookups;
        self.hits += other.hits;
        for (mine, theirs) in [
            (&mut self.recorded, other.recorded),
            (&mut self.fast_forward, other.fast_forward),
            (&mut self.state_bytes, other.state_bytes),
        ] {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Closes a pending fast-forward interval at `now`.
    fn end_fast_forward(&mut self, now: u64) {
        if let Some(t) = self.hit_end.take() {
            self.fast_forward.0 += 1;
            self.fast_forward.1 += now.saturating_sub(t);
        }
    }
}

/// A [`Controller`] that times each decision and counts reconfigurations.
struct TracedController<'a> {
    inner: SparseAdaptController,
    probe: &'a RefCell<Probe>,
}

impl Controller for TracedController<'_> {
    fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
        let mut p = self.probe.borrow_mut();
        let start = p.tracer.now_ns();
        p.end_fast_forward(start);
        let decision = self.inner.on_epoch(record);
        let end = p.tracer.now_ns();
        let (span, run) = (p.run_span, p.run_id);
        p.tracer
            .leaf("core.runtime.on_epoch", span, run, start, end);
        p.boundaries += 1;
        if decision.is_some_and(|c| c != record.config) {
            p.reconfigs += 1;
        }
        if p.samples.len() < PREDICT_SAMPLES {
            let model = p.model;
            p.samples.push((model, record.telemetry, record.config));
        }
        decision
    }
}

/// An [`EpochHook`] around the epoch tier's hook that times lookups and
/// records, the epochs between them, and the digest of recorded states.
struct TracedHook<'a, H: EpochHook> {
    inner: H,
    probe: &'a RefCell<Probe>,
}

impl<H: EpochHook> EpochHook for TracedHook<'_, H> {
    fn lookup(&mut self, boundary: &EpochBoundary) -> Option<Arc<CachedEpoch>> {
        let mut p = self.probe.borrow_mut();
        let start = p.tracer.now_ns();
        p.end_fast_forward(start);
        let hit = self.inner.lookup(boundary);
        let end = p.tracer.now_ns();
        let (span, run) = (p.run_span, p.run_id);
        p.tracer
            .leaf("core.epoch_cache.lookup", span, run, start, end);
        p.lookups += 1;
        if hit.is_some() {
            p.hits += 1;
            p.hit_end = Some(end);
        } else {
            p.miss_end = Some(end);
        }
        hit
    }

    fn record(&mut self, boundary: &EpochBoundary, epoch: CachedEpoch) {
        let mut p = self.probe.borrow_mut();
        let now = p.tracer.now_ns();
        if let Some(t) = p.miss_end.take() {
            p.recorded.0 += 1;
            p.recorded.1 += now.saturating_sub(t);
        }
        let (span, run) = (p.run_span, p.run_id);
        p.tracer.time("transmuter.state_digest", span, run, || {
            black_box(epoch.exit.digest())
        });
        p.state_bytes.0 += 1;
        p.state_bytes.1 += epoch.exit.approx_heap_bytes() as u64;
        let start = p.tracer.now_ns();
        self.inner.record(boundary, epoch);
        let end = p.tracer.now_ns();
        p.tracer
            .leaf("core.epoch_cache.record", span, run, start, end);
    }
}

/// One closed-loop job: input × model × policy.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    input: usize,
    model: usize,
    policy: ReconfigPolicy,
}

fn live_jobs(inputs: &[Input], models: usize) -> Vec<LiveJob> {
    let mut jobs = Vec::new();
    for input in 0..inputs.len() {
        for model in 0..models {
            for policy in policies() {
                jobs.push(LiveJob {
                    input,
                    model,
                    policy,
                });
            }
        }
    }
    jobs
}

/// Runs one closed-loop job from Best Avg; traced runs go through the
/// wrapping controller (and hook, with the epoch tier on).
fn live_run(
    job: LiveJob,
    inputs: &[Input],
    models: &[(OptMode, PredictiveEnsemble)],
    probe: Option<&RefCell<Probe>>,
    run_id: u64,
) -> (RunResult, usize, f64) {
    let input = &inputs[job.input];
    let start_cfg = TransmuterConfig::best_avg_cache();
    let ctrl = SparseAdaptController::new(models[job.model].1.clone(), job.policy, input.spec);
    let Some(probe) = probe else {
        let mut ctrl = ctrl;
        let started = Instant::now();
        let r = run_live(input.spec, start_cfg, &input.workload, &mut ctrl);
        return (r, ctrl.reconfig_count(), started.elapsed().as_secs_f64());
    };
    let started = Instant::now();
    let (span, t0) = {
        let mut p = probe.borrow_mut();
        let span = p.tracer.reserve();
        p.run_span = span;
        p.run_id = run_id;
        p.model = job.model;
        (span, p.tracer.now_ns())
    };
    let mut traced = TracedController { inner: ctrl, probe };
    let cache = EpochCache::global();
    let r = if cache.is_enabled() {
        // `run_live` with the epoch tier on, opened up so the hook can be
        // wrapped: fingerprint the workload, then run hooked.
        let fp = probe
            .borrow_mut()
            .tracer
            .time("transmuter.fingerprint", span, run_id, || {
                input.workload.fingerprint()
            });
        let mut hook = TracedHook {
            inner: cache.hook_for(input.spec.fingerprint(), fp),
            probe,
        };
        Machine::new(input.spec, start_cfg).run_with_controller_and_hook(
            &input.workload,
            &mut traced,
            &mut hook,
        )
    } else {
        run_live(input.spec, start_cfg, &input.workload, &mut traced)
    };
    let secs = started.elapsed().as_secs_f64();
    let mut p = probe.borrow_mut();
    let end = p.tracer.now_ns();
    p.end_fast_forward(end);
    p.tracer.push(span, "transmuter.run", ROOT, run_id, t0);
    (r, traced.inner.reconfig_count(), secs)
}

/// Per-layer numbers of a traced closed-loop window.
fn note_live_layers(
    report: &mut Report,
    probe: Probe,
    models: &[(OptMode, PredictiveEnsemble)],
    window: &LiveWindow,
    sweep_events: f64,
    ctx: &Ctx,
) {
    let Probe {
        mut tracer,
        boundaries,
        reconfigs,
        samples,
        lookups,
        hits,
        recorded,
        fast_forward,
        state_bytes,
        ..
    } = probe;
    let spans = tracer.take();
    let layers = trace::by_name(&spans);
    let stat = |name: &str| layers.get(name).copied().unwrap_or_default();
    let run = stat("transmuter.run");
    let sweep = stat("transmuter.sweep");
    report.layers.insert(
        "transmuter.sweep_ns_per_event",
        sweep.total_ns as f64 / sweep_events.max(1.0),
    );
    for (span, metric) in [
        ("core.schemes.stitch", "core.schemes.stitch_ms"),
        ("core.schemes.oracle", "core.schemes.oracle_ms"),
    ] {
        let total = stat(span).total_ns as f64;
        report
            .layers
            .insert(metric, total / sweep.count.max(1) as f64 / 1e6);
    }
    report.layers.insert(
        "transmuter.epoch_us",
        run.self_ns as f64 / window.epochs.max(1.0) / 1e3,
    );
    report.layers.insert(
        "transmuter.run_ns_per_event",
        run.self_ns as f64 / window.run_events.max(1.0),
    );
    report.layers.insert(
        "core.runtime.on_epoch_us",
        stat("core.runtime.on_epoch").mean_us(),
    );
    report.layers.insert(
        "core.runtime.reconfig_frac",
        reconfigs as f64 / boundaries.max(1) as f64,
    );
    let mean_us = |(n, ns): (u64, u64)| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    if lookups > 0 {
        report.layers.insert(
            "core.epoch_cache.lookup_us",
            stat("core.epoch_cache.lookup").mean_us(),
        );
        report.layers.insert(
            "core.epoch_cache.record_us",
            stat("core.epoch_cache.record").mean_us(),
        );
        report
            .layers
            .insert("core.epoch_cache.hit_rate", hits as f64 / lookups as f64);
        report
            .layers
            .insert("transmuter.recorded_epoch_us", mean_us(recorded));
        report
            .layers
            .insert("transmuter.fast_forward_us", mean_us(fast_forward));
        report.layers.insert(
            "transmuter.state_digest_us",
            stat("transmuter.state_digest").mean_us(),
        );
        report.layers.insert(
            "transmuter.state_kb",
            state_bytes.1 as f64 / state_bytes.0.max(1) as f64 / 1024.0,
        );
        let fp = stat("transmuter.fingerprint");
        report
            .layers
            .insert("transmuter.fingerprint_ms", fp.mean_us() / 1e3);
        report
            .layers
            .insert("transmuter.fingerprint_calls", fp.count as f64);
    }
    // The model alone, replayed on the telemetry the runs produced.
    if !samples.is_empty() {
        let started = Instant::now();
        for (model, telemetry, config) in &samples {
            black_box(models[*model].1.predict(telemetry, config));
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / samples.len() as f64;
        report.layers.insert("mltree.predict_us", us);
    }
    report.layers.insert("trace.spans", spans.len() as f64);
    ctx.write_spans(&spans);
}

/// The Baseline static run of every input, uncached and untiered, for
/// `sa_gain` (GFLOPS/W of the EE-model runs over Baseline's).
fn baselines(inputs: &[Input]) -> Vec<Metrics> {
    inputs
        .iter()
        .map(|i| {
            Machine::new(i.spec, TransmuterConfig::baseline())
                .run(&i.workload)
                .metrics()
        })
        .collect()
}

fn sa_gain(
    jobs: &[LiveJob],
    first: &[Option<Metrics>],
    base: &[Metrics],
    models: &[(OptMode, PredictiveEnsemble)],
) -> f64 {
    let ratios: Vec<f64> = jobs
        .iter()
        .zip(first)
        .filter(|(j, _)| models[j.model].0 == OptMode::EnergyEfficient)
        .filter_map(|(j, m)| m.map(|m| m.gflops_per_watt() / base[j.input].gflops_per_watt()))
        .collect();
    stats::geomean(&ratios).unwrap_or(0.0)
}

/// Runs the jobs of one phase on [`LIVE_THREADS`] workers pulling from a
/// shared counter (each with its own probe when traced) and returns the
/// outputs in job order plus the phase's wall time. Closed-loop runs are
/// independent, so `paper` fans them out the same way.
fn parallel_phase<R: Send>(
    jobs: &[usize],
    probes: &mut [RefCell<Probe>],
    run: &(dyn Fn(usize, Option<&RefCell<Probe>>) -> R + Sync),
) -> (Vec<R>, f64) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut slots: Vec<Option<&mut RefCell<Probe>>> = probes.iter_mut().map(Some).collect();
    slots.resize_with(LIVE_THREADS, || None);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = slots
            .into_iter()
            .map(|slot| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            return out;
                        }
                        out.push((i, run(jobs[i], slot.as_deref())));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop worker"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, r)| r).collect(), secs)
}

/// What a closed-loop window measured: throughput, entries run live,
/// epochs, and SpMSpV's share of each round's run time.
struct LiveWindow {
    rate: f64,
    run_events: f64,
    epochs: f64,
    spmspv_share: Vec<f64>,
}

/// The SparseAdapt closed loop with the in-memory epoch tier on (as
/// `paper --epoch-cache`). For each input, a cold recording sweep over its
/// configurations (with all five §5.3 schemes stitched from it) fills the
/// tier, the input's closed-loop runs read it, and the tier is emptied.
pub fn adapt_memo(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let make = || {
        isolate(true);
        let built = build(ctx.seed, inputs::adapt_inputs);
        let models = inputs::load_models().unwrap_or_else(|e| crate::fail(&e));
        (built, models)
    };
    let (built, models) = set_up(&mut report, make);
    note_inputs(&mut report, &built);
    let inputs = &built.inputs;
    let jobs = live_jobs(inputs, models.len());
    let per_input = jobs.len() / inputs.len();
    let mut outputs = Outputs::new(jobs.len());
    let mut sweep_outputs = Outputs::new(inputs.len());
    let mut first: Vec<Option<Metrics>> = vec![None; jobs.len()];
    let mut oracle_gains = vec![0.0; inputs.len()];
    let mut maximum_cfg = TransmuterConfig::maximum();
    maximum_cfg.l1_kind = transmuter::config::MemKind::Cache;
    // Seeded (input, configuration) pairs of the recording sweeps that the
    // frozen reference engine re-simulates.
    let samples: Vec<(usize, usize)> = (0..REFERENCE_SAMPLES as u64)
        .map(|k| {
            let r = inputs::derive_seed(ctx.seed, 100 + k);
            let input = (r % inputs.len() as u64) as usize;
            (
                input,
                ((r >> 32) % inputs[input].configs.len() as u64) as usize,
            )
        })
        .collect();
    let mut kept: Vec<Option<Arc<Vec<EpochRecord>>>> = vec![None; samples.len()];
    let mut sweep_events = 0.0;
    let (mut tc_misses, mut tc_resident) = (0u64, 0usize);
    let (mut ec_resident, mut ec_evictions) = (0usize, 0u64);

    let mut window = |report: &mut Report, probes: &mut [RefCell<Probe>]| -> LiveWindow {
        let (mut work, mut wall) = (0.0, 0.0);
        let (mut run_events, mut epochs) = (0.0, 0.0);
        let mut spmspv_share = Vec::new();
        sweep_events = 0.0;
        (tc_misses, tc_resident) = (0, 0);
        (ec_resident, ec_evictions) = (0, 0);
        let started = Instant::now();
        let mut round = 0;
        loop {
            // Run time of the round's SpMSpM and SpMSpV runs, summed over
            // the workers.
            let mut run_secs = [0.0f64; 2];
            for (i, input) in inputs.iter().enumerate() {
                // Cold: both caches start empty, so the sweep only inserts
                // into the trace cache and only records into the tier.
                TraceCache::global().clear();
                EpochCache::global().clear();
                let configs = &input.configs;
                let maximum = reference_index(configs, maximum_cfg);
                let run_id = (round * inputs.len() + i) as u64;
                let t0 = Instant::now();
                let (sweep, schemes) = match probes.first() {
                    None => {
                        let sweep =
                            SweepData::simulate(input.spec, &input.workload, configs, SWEEP_THREADS);
                        let schemes = stitch_all(&sweep, maximum, None);
                        (sweep, schemes)
                    }
                    Some(p) => {
                        let t = &mut p.borrow_mut().tracer;
                        let sweep = t.time("transmuter.sweep", ROOT, run_id, || {
                            SweepData::simulate(input.spec, &input.workload, configs, SWEEP_THREADS)
                        });
                        let stitch = t.reserve();
                        let s0 = t.now_ns();
                        let schemes = stitch_all(&sweep, maximum, Some((&mut *t, stitch, run_id)));
                        t.push(stitch, "core.schemes.stitch", ROOT, run_id, s0);
                        (sweep, schemes)
                    }
                };
                let secs = t0.elapsed().as_secs_f64();
                let events = (input.entries * configs.len() as u64) as f64;
                wall += secs;
                work += events;
                sweep_events += events;
                report.job(round, events, secs);
                let stats = TraceCache::global().stats();
                tc_misses += stats.misses;
                tc_resident = tc_resident.max(stats.resident_bytes);
                let mut d = Digest::default();
                for tr in &sweep.traces {
                    d.value(tr.as_slice());
                }
                d.value(&schemes);
                report.check(sweep_outputs.see(i, d.finish()));
                if round == 0 {
                    oracle_gains[i] = oracle_gain(&sweep, &schemes);
                    for (k, &(si, c)) in samples.iter().enumerate() {
                        if si == i {
                            kept[k] = Some(Arc::clone(&sweep.traces[c]));
                        }
                    }
                }
                drop(sweep);

                let phase_jobs: Vec<usize> = (i * per_input..(i + 1) * per_input).collect();
                let run = |idx: usize, probe: Option<&RefCell<Probe>>| {
                    let run_id = (round * jobs.len() + idx) as u64;
                    let (r, reconfigs, secs) = live_run(jobs[idx], inputs, &models, probe, run_id);
                    (run_digest(&r, reconfigs), r.metrics(), r.epochs.len(), secs)
                };
                let (outs, secs) = parallel_phase(&phase_jobs, probes, &run);
                let mut phase_work = 0.0;
                for (&idx, (digest, metrics, n_epochs, run_s)) in phase_jobs.iter().zip(outs) {
                    phase_work += input.entries as f64;
                    epochs += n_epochs as f64;
                    run_secs[usize::from(i >= inputs::ADAPT_SPMSPM.len())] += run_s;
                    report.check(outputs.see(idx, digest));
                    first[idx].get_or_insert(metrics);
                }
                run_events += phase_work;
                work += phase_work;
                wall += secs;
                report.job(round, phase_work, secs);
                let s = EpochCache::global().stats();
                ec_resident = ec_resident.max(s.resident_bytes);
                ec_evictions += s.evictions;
                EpochCache::global().clear();
            }
            spmspv_share.push(run_secs[1] / (run_secs[0] + run_secs[1]));
            // The peak resident set at the end of the first round, when
            // every job has run once: later rounds repeat the same work and
            // only add allocator fragmentation (one seed's peak read 1070
            // MiB after one round in every run, and up to 1261 MiB after
            // three).
            if round == 0 {
                report.capture_rss();
            }
            round += 1;
            if started.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        LiveWindow {
            rate: work / wall,
            run_events,
            epochs,
            spmspv_share,
        }
    };

    let spmspv_share = if ctx.traced {
        let mut scratch = Report::default();
        let untraced = window(&mut scratch, &mut []);
        report.attempted += scratch.attempted;
        report.failed += scratch.failed;
        let mut probes: Vec<RefCell<Probe>> = (0..LIVE_THREADS as u32)
            .map(|w| RefCell::new(Probe::new(Tracer::new(ctx.origin, w << 26))))
            .collect();
        let traced = window(&mut report, &mut probes);
        note_overhead(&mut report, untraced.rate, traced.rate);
        let mut merged = probes.remove(0).into_inner();
        for p in probes {
            merged.merge(p.into_inner());
        }
        note_live_layers(&mut report, merged, &models, &traced, sweep_events, ctx);
        for (name, value) in [
            ("core.trace_cache.misses", tc_misses as f64),
            ("core.trace_cache.resident_mb", tc_resident as f64 / 1048576.0),
            ("core.epoch_cache.resident_mb", ec_resident as f64 / 1048576.0),
            ("core.epoch_cache.evictions", ec_evictions as f64),
        ] {
            report.layers.insert(name, value);
        }
        untraced.spmspv_share
    } else {
        window(&mut report, &mut []).spmspv_share
    };

    // Checks run after every timed pass, with the epoch tier off, so
    // verification never warms a cache the workload reads. Every tiered
    // run must equal the same run without the tier.
    isolate(false);
    for (idx, &job) in jobs.iter().enumerate() {
        let (r, reconfigs, _) = live_run(job, inputs, &models, None, 0);
        report.check(outputs.first[idx] == Some(run_digest(&r, reconfigs)));
    }
    // A seeded sample through the frozen reference engine: one SpMSpM run
    // and the rest drawn from all jobs, plus sampled sweep configurations.
    for k in 0..REFERENCE_RUNS as u64 {
        let r = inputs::derive_seed(ctx.seed, 200 + k);
        let idx = if k == 0 {
            (r % (inputs::ADAPT_SPMSPM.len() * per_input) as u64) as usize
        } else {
            (r % jobs.len() as u64) as usize
        };
        let job = jobs[idx];
        let input = &inputs[job.input];
        let mut ctrl =
            SparseAdaptController::new(models[job.model].1.clone(), job.policy, input.spec);
        let reference = Machine::new(input.spec, TransmuterConfig::best_avg_cache())
            .run_reference_with_controller(&input.workload, &mut ctrl);
        report.check(outputs.first[idx] == Some(run_digest(&reference, ctrl.reconfig_count())));
    }
    for (k, &(i, c)) in samples.iter().enumerate() {
        let input = &inputs[i];
        let reference = Machine::new(input.spec, input.configs[c]).run_reference(&input.workload);
        let ok = kept[k]
            .as_ref()
            .is_some_and(|t| t.as_slice() == reference.epochs.as_slice());
        report.check(ok);
    }
    let base = baselines(inputs);
    repeat_set_up(ctx, &mut report, make);
    isolate(false);
    let gain = sa_gain(&jobs, &first, &base, &models);
    let oracle = stats::geomean(&oracle_gains).unwrap_or(0.0);
    report.layers.insert("core.runtime.sa_gain", gain);
    report.layers.insert("core.schemes.oracle_gain", oracle);
    let mut d = Digest::default();
    d.u64(outputs.digest());
    d.u64(sweep_outputs.digest());
    d.value(&base);
    report.notes.push(format!(
        "output_digest={:016x} sa_gain={gain:?} oracle_gain={oracle:?} runs_per_round={}",
        d.finish(),
        jobs.len()
    ));
    let shares: Vec<String> = spmspv_share.iter().map(|s| format!("{s:.3}")).collect();
    report
        .notes
        .push(format!("spmspv_run_share=[{}]", shares.join(",")));
    report
}
