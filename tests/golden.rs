//! Golden-trace regression suite.
//!
//! Simulates a small matrix of kernel workloads × configurations and
//! folds every epoch record — index, configuration fingerprint, metric
//! bits, FP-op count, all 18 telemetry features, reconfiguration costs —
//! into one FNV-1a digest per scenario, compared against the checked-in
//! `tests/golden_digests.txt`.
//!
//! The simulator is deterministic and its traces are content-addressed
//! (cached across processes, stitched across configurations), so *any*
//! digest change means observable behaviour changed: a one-ULP drift in
//! a telemetry lane is a real regression, not noise. A legitimate model
//! change must regenerate the goldens:
//!
//! ```text
//! SA_GOLDEN_REGEN=1 cargo test --release -p sa-bench --test golden
//! ```
//!
//! On mismatch the test prints a per-scenario table of expected vs
//! actual digests (with decoded time/energy so the direction of the
//! drift is visible) and writes the same report to
//! `target/golden-diff.txt` for CI to upload as an artifact.

use std::fmt::Write as _;
use std::path::PathBuf;

use sa_bench::experiments::Kernel;
use sa_bench::workloads;
use sparse::gen::GenSeed;
use sparse::suite::{spec_by_id, Scale};
use transmuter::config::{ClockFreq, MachineSpec, MemKind, SharingMode, TransmuterConfig};
use transmuter::machine::{EpochRecord, Machine, StaticController};
use transmuter::workload::Workload;

/// FNV-1a, the same stable hash the workload/config fingerprints use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of a full trace: every field of every epoch, bit-exact.
fn trace_digest(epochs: &[EpochRecord]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(epochs.len() as u64);
    for e in epochs {
        h.write_u64(e.index as u64);
        h.write_u64(e.config.fingerprint());
        h.write_u64(e.metrics.time_s.to_bits());
        h.write_u64(e.metrics.energy_j.to_bits());
        h.write_u64(e.metrics.flops);
        h.write_u64(e.fp_ops);
        for f in e.telemetry.to_features() {
            h.write_u64(f.to_bits());
        }
        h.write_u64(e.reconfig_time_s.to_bits());
        h.write_u64(e.reconfig_energy_j.to_bits());
    }
    h.0
}

struct Scenario {
    name: &'static str,
    spec: MachineSpec,
    config: TransmuterConfig,
    workload: Workload,
}

/// Loads a checked-in `.mtx` fixture.
fn fixture(name: &str) -> sparse::CooMatrix {
    let path = repo_path(&format!("tests/fixtures/{name}"));
    sparse::mtx::load(&path)
        .unwrap_or_else(|e| panic!("cannot load fixture {}: {e}", path.display()))
        .matrix
}

/// The golden matrix: one representative of each kernel family, plus
/// configuration variety (baseline vs tuned, prefetch on/off, shared vs
/// private, 4 kB vs larger banks, cache vs scratchpad L1) so every
/// machine subsystem contributes to some digest.
fn scenarios() -> Vec<Scenario> {
    let n_gpes = 16;
    let quick = Scale::Quick;
    let r02 = spec_by_id("R02").expect("R02 in suite");
    let r09 = spec_by_id("R09").expect("R09 in suite");
    let r12 = spec_by_id("R12").expect("R12 in suite");

    let mut tuned = TransmuterConfig::best_avg_cache();
    tuned.prefetch_degree = 8;
    let mut no_prefetch = TransmuterConfig::best_avg_cache();
    no_prefetch.prefetch_degree = 0;
    let big_private = TransmuterConfig {
        l1_kind: MemKind::Cache,
        l1_sharing: SharingMode::Private,
        l2_sharing: SharingMode::Private,
        l1_capacity_kb: 32,
        l2_capacity_kb: 64,
        clock: ClockFreq::Mhz500,
        prefetch_degree: 4,
    };

    vec![
        Scenario {
            name: "spmspm-r02-baseline",
            spec: workloads::spmspm_spec(quick),
            config: TransmuterConfig::baseline(),
            workload: workloads::spmspm_workload(&r02, quick, MemKind::Cache, 7, n_gpes),
        },
        Scenario {
            name: "spmspm-r02-tuned",
            spec: workloads::spmspm_spec(quick),
            config: tuned,
            workload: workloads::spmspm_workload(&r02, quick, MemKind::Cache, 7, n_gpes),
        },
        Scenario {
            name: "spmspv-r12-baseline",
            spec: workloads::spmspv_spec(quick),
            config: TransmuterConfig::baseline(),
            workload: workloads::spmspv_workload(&r12, quick, MemKind::Cache, 11, n_gpes),
        },
        Scenario {
            name: "spmspv-r12-no-prefetch",
            spec: workloads::spmspv_spec(quick),
            config: no_prefetch,
            workload: workloads::spmspv_workload(&r12, quick, MemKind::Cache, 11, n_gpes),
        },
        Scenario {
            name: "bfs-r12-baseline",
            spec: workloads::spmspv_spec(quick),
            config: TransmuterConfig::baseline(),
            workload: workloads::bfs_workload(&r12, quick, 13, n_gpes).0,
        },
        Scenario {
            name: "sssp-r12-tuned",
            spec: workloads::spmspv_spec(quick),
            config: tuned,
            workload: workloads::sssp_workload(&r12, quick, 17, n_gpes).0,
        },
        // The real-matrix kernel family, driven from checked-in `.mtx`
        // fixtures: coordinate/general real, coordinate/symmetric real,
        // and pattern-field inputs.
        Scenario {
            name: "spmv-wing64-baseline",
            spec: workloads::spmspv_spec(quick),
            config: TransmuterConfig::baseline(),
            workload: Kernel::SpMV.workload(&fixture("wing_64.mtx"), MemKind::Cache, 19, n_gpes),
        },
        Scenario {
            name: "sptrsv-mesh48-tuned",
            spec: workloads::spmspv_spec(quick),
            config: tuned,
            workload: Kernel::SpTRSV.workload(
                &fixture("mesh_sym_48.mtx"),
                MemKind::Cache,
                23,
                n_gpes,
            ),
        },
        Scenario {
            name: "symgs-net56-baseline",
            spec: workloads::spmspv_spec(quick),
            config: TransmuterConfig::baseline(),
            workload: Kernel::SymGS.workload(
                &fixture("net_pat_56.mtx"),
                MemKind::Cache,
                29,
                n_gpes,
            ),
        },
        // Larger banks on both layers, both private, at half clock: the
        // scenarios above all run 4 kB banks with a shared L2.
        Scenario {
            name: "spmspm-r02-bigbank-private",
            spec: workloads::spmspm_spec(quick),
            config: big_private,
            workload: workloads::spmspm_workload(&r02, quick, MemKind::Cache, 7, n_gpes),
        },
        // A scratchpad L1 (Best Avg SPM: 32 kB private L2).
        Scenario {
            name: "spmv-r09-spm",
            spec: workloads::spmspv_spec(quick),
            config: TransmuterConfig::best_avg_spm(),
            workload: Kernel::SpMV.workload(
                &r09.generate(quick, GenSeed(31)),
                MemKind::Spm,
                31,
                n_gpes,
            ),
        },
    ]
}

struct Result {
    name: &'static str,
    digest: u64,
    epochs: usize,
    time_s: f64,
    energy_j: f64,
}

fn simulate(s: &Scenario) -> Result {
    let run = Machine::new(s.spec, s.config).run(&s.workload);
    Result {
        name: s.name,
        digest: trace_digest(&run.epochs),
        epochs: run.epochs.len(),
        time_s: run.time_s,
        energy_j: run.energy_j,
    }
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn render_line(r: &Result) -> String {
    format!(
        "{} {:016x} {} {:016x} {:016x}",
        r.name,
        r.digest,
        r.epochs,
        r.time_s.to_bits(),
        r.energy_j.to_bits()
    )
}

struct Golden {
    digest: u64,
    epochs: usize,
    time_s: f64,
    energy_j: f64,
}

fn parse_goldens(text: &str) -> Vec<(String, Golden)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 5, "malformed golden line: {l:?}");
            let parse_hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
            (
                f[0].to_string(),
                Golden {
                    digest: parse_hex(f[1]),
                    epochs: f[2].parse().expect("epoch count"),
                    time_s: f64::from_bits(parse_hex(f[3])),
                    energy_j: f64::from_bits(parse_hex(f[4])),
                },
            )
        })
        .collect()
}

#[test]
fn golden_traces_are_unchanged() {
    let golden_path = repo_path("tests/golden_digests.txt");
    let results: Vec<Result> = scenarios().iter().map(simulate).collect();

    if std::env::var("SA_GOLDEN_REGEN").as_deref() == Ok("1") {
        let mut out = String::from(
            "# Golden trace digests. One line per scenario:\n\
             #   name  trace-digest  epochs  time_s-bits  energy_j-bits\n\
             # Regenerate: SA_GOLDEN_REGEN=1 cargo test --release -p sa-bench --test golden\n",
        );
        for r in &results {
            out.push_str(&render_line(r));
            out.push('\n');
        }
        std::fs::write(&golden_path, out).expect("write goldens");
        eprintln!("regenerated {} scenarios", results.len());
        return;
    }

    let text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun SA_GOLDEN_REGEN=1 cargo test --release -p sa-bench --test golden to create it",
            golden_path.display()
        )
    });
    let goldens = parse_goldens(&text);

    let mut diff = String::new();
    let expected_names: Vec<&str> = goldens.iter().map(|(n, _)| n.as_str()).collect();
    let actual_names: Vec<&str> = results.iter().map(|r| r.name).collect();
    if expected_names != actual_names {
        writeln!(
            diff,
            "scenario set changed:\n  golden file: {expected_names:?}\n  test matrix: {actual_names:?}"
        )
        .unwrap();
    } else {
        for ((_, g), r) in goldens.iter().zip(&results) {
            if g.digest == r.digest {
                continue;
            }
            writeln!(diff, "scenario {}:", r.name).unwrap();
            writeln!(diff, "  digest   {:016x} -> {:016x}", g.digest, r.digest).unwrap();
            if g.epochs != r.epochs {
                writeln!(diff, "  epochs   {} -> {}", g.epochs, r.epochs).unwrap();
            }
            if g.time_s != r.time_s {
                writeln!(
                    diff,
                    "  time_s   {:.9e} -> {:.9e} ({:+.3}%)",
                    g.time_s,
                    r.time_s,
                    (r.time_s / g.time_s - 1.0) * 100.0
                )
                .unwrap();
            }
            if g.energy_j != r.energy_j {
                writeln!(
                    diff,
                    "  energy_j {:.9e} -> {:.9e} ({:+.3}%)",
                    g.energy_j,
                    r.energy_j,
                    (r.energy_j / g.energy_j - 1.0) * 100.0
                )
                .unwrap();
            }
            if g.epochs == r.epochs && g.time_s == r.time_s && g.energy_j == r.energy_j {
                writeln!(
                    diff,
                    "  (headline metrics match; the drift is in telemetry, \
                     per-epoch metrics, or config fingerprints)"
                )
                .unwrap();
            }
        }
    }

    if !diff.is_empty() {
        let report = format!(
            "golden trace digests diverged\n\n{diff}\n\
             If this change is intended, regenerate with:\n  \
             SA_GOLDEN_REGEN=1 cargo test --release -p sa-bench --test golden\n"
        );
        let artifact = repo_path("target/golden-diff.txt");
        if let Some(dir) = artifact.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&artifact, &report);
        panic!("{report}");
    }
}

/// The epoch-cache leg of the golden job (`SA_EPOCH_CACHE=1`, run by
/// CI alongside the plain leg): every golden scenario is re-simulated
/// through the epoch-cache hook — once cold (recording every epoch),
/// once warm (replaying them) — and both passes must digest identically
/// to the unhooked run above. A private cache instance is used so this
/// test cannot race the process-wide flag with other tests.
#[test]
fn epoch_cached_traces_match_plain_digests() {
    if std::env::var("SA_EPOCH_CACHE").as_deref() != Ok("1") {
        eprintln!("skipping epoch-cache golden leg (set SA_EPOCH_CACHE=1 to run it)");
        return;
    }
    use sparseadapt::epoch_cache::EpochCache;
    for s in scenarios() {
        let plain = simulate(&s);
        let cache = EpochCache::new();
        let spec_fp = s.spec.fingerprint();
        let workload_fp = s.workload.fingerprint();
        for pass in ["cold", "warm"] {
            let mut hook = cache.hook_for(spec_fp, workload_fp);
            let run = Machine::new(s.spec, s.config).run_with_controller_and_hook(
                &s.workload,
                &mut StaticController,
                &mut hook,
            );
            assert_eq!(
                trace_digest(&run.epochs),
                plain.digest,
                "scenario {} diverged under the epoch cache ({pass} pass)",
                s.name
            );
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "scenario {}: the warm pass never hit the cache ({stats:?})",
            s.name
        );
    }
}

/// The digest function itself is pinned: if `trace_digest` silently
/// changed (field order, new field, different seed), every golden would
/// "fail" at once with no real behaviour change — this canary makes
/// that case unambiguous.
#[test]
fn digest_function_is_stable() {
    use transmuter::metrics::Metrics;
    let cfg = TransmuterConfig::baseline();
    let rec = EpochRecord {
        index: 3,
        config: cfg,
        metrics: Metrics::new(1.5, 0.25, 1000),
        fp_ops: 1000,
        telemetry: transmuter::counters::Telemetry::default(),
        reconfig_time_s: 0.0,
        reconfig_energy_j: 0.0,
    };
    let d = trace_digest(&[rec]);
    assert_eq!(
        d, 0x80ef_2092_25b2_a114,
        "trace_digest changed ({d:#018x}); update this canary only together \
         with a deliberate golden regeneration"
    );
}
