//! Cycle-approximate simulator of the Transmuter CGRA (Pal et al.,
//! PACT '20) with the SparseAdapt reconfiguration hooks of MICRO '21.
//!
//! The simulated machine is a tiled manycore: `M` tiles × `N`
//! general-purpose processing elements (GPEs), each tile managed by a
//! local control processor (LCP). GPEs reach a layer of reconfigurable
//! L1 data-cache banks through a crossbar, tiles share a layer of L2
//! banks through a second crossbar, and the L2 talks to a
//! bandwidth-regulated HBM model. Seven configuration parameters
//! (Table 1 of the paper) can be changed at run time:
//!
//! * L1 memory type (cache / scratchpad) — compile-time in this work,
//! * L1 / L2 sharing mode (shared / private),
//! * L1 / L2 bank capacity (4–64 kB),
//! * global clock (31.25 MHz – 1 GHz, DVFS),
//! * prefetcher aggressiveness (off / 4 / 8).
//!
//! Workloads are abstract per-GPE op streams ([`workload::Op`]) with
//! *real addresses*, so cache hit rates, bandwidth pressure and crossbar
//! contention — the signals SparseAdapt's predictive model feeds on — are
//! genuinely data-dependent. Execution is event-driven: every GPE owns a
//! local clock and shared resources serialise through busy-until
//! timestamps, processed in global time order.
//!
//! # Example
//!
//! ```
//! use transmuter::config::{MachineSpec, TransmuterConfig};
//! use transmuter::machine::Machine;
//! use transmuter::workload::{OpStream, Phase, Workload};
//!
//! // A toy workload: each of the 16 GPEs streams over 1 kB of data.
//! let spec = MachineSpec::default();
//! let streams: Vec<OpStream> = (0..spec.geometry.gpe_count())
//!     .map(|g| {
//!         let base = g as u64 * 4096;
//!         let mut ops = OpStream::with_capacity(256);
//!         for i in 0..128u64 {
//!             ops.push_load(base + i * 8, 1);
//!             ops.push_flops(2);
//!         }
//!         ops
//!     })
//!     .collect();
//! let wl = Workload::new("toy", vec![Phase::new("stream", streams)]);
//! let mut machine = Machine::new(spec, TransmuterConfig::baseline());
//! let result = machine.run(&wl);
//! assert!(result.time_s > 0.0 && result.energy_j > 0.0);
//! assert_eq!(result.flops, 16 * 128 * 3); // FP-op currency includes loads
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod hbm;
pub mod machine;
pub mod metrics;
pub mod power;
pub mod prefetch;
pub mod reconfig;
pub mod workload;

pub use config::{MachineSpec, TransmuterConfig};
pub use counters::Telemetry;
pub use machine::{
    CachedEpoch, EpochBoundary, EpochHook, EpochRecord, Machine, MachineState, RunResult,
};
pub use metrics::Metrics;
