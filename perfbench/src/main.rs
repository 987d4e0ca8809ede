//! The repository benchmark: one workload, one seed, one window.
//!
//! ```text
//! perfbench --workload <adapt_memo|serve_warm>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) measures the same window untraced and then traced,
//! and prints the per-layer metrics. Lines starting with `#` carry the
//! input and output digests; the last line is the JSON result. See
//! `perfbench/README.md` for the workloads and the metric map.
//!
//! The benchmark reaches the program only through its public functions
//! and traits, and over HTTP.

mod inputs;
mod report;
mod serve_warm;
mod sims;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 2] = ["adapt_memo", "serve_warm"];

/// Environment variables that would silently change what is measured.
const REFUSED_ENV: [&str; 2] = ["SA_SCALE", "SA_LOCKSTEP"];

/// Settings of one benchmark run.
#[derive(Debug)]
pub struct Ctx {
    /// Process start, as near as `main` can tell.
    pub origin: Instant,
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub traced: bool,
    /// Where traced runs write their spans.
    pub trace_out: Option<PathBuf>,
}

impl Ctx {
    /// Writes the spans of a traced run; the spans stay in memory until
    /// the run ends.
    pub fn write_spans(&self, spans: &[trace::Span]) {
        let Some(dir) = &self.trace_out else { return };
        let path = dir.join(format!("spans-{}-{}.tsv", self.workload, self.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| trace::write_tsv(&path, spans));
        match written {
            Ok(()) => eprintln!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
        }
    }
}

/// Stops the run without a result.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(3);
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(origin: Instant) -> Ctx {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                );
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Ctx {
        origin,
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        trace_out,
    }
}

fn main() {
    let origin = Instant::now();
    let ctx = parse_args(origin);
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            fail(&format!(
                "{var} is set; unset it so the benchmark measures the pinned defaults"
            ));
        }
    }
    let report = match ctx.workload {
        "adapt_memo" => sims::adapt_memo(&ctx),
        "serve_warm" => serve_warm::serve_warm(&ctx),
        other => unreachable!("validated workload {other}"),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} threads={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let rates: Vec<String> = report
        .windows
        .iter()
        .filter(|w| w.secs > 0.0)
        .map(|w| format!("{:.4e}", w.work / w.secs))
        .collect();
    println!("# slice_ops_per_s=[{}]", rates.join(","));
    let (p50, p99) = report.latency_ms();
    println!("# p50_ms={p50:?} p99_ms={p99:?}");
    let setups: Vec<String> = report.setups_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("# setups_s=[{}]", setups.join(","));
    println!(
        "# attempted={} failed={} fail_frac={:?}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.result_line(ctx.traced));
}
