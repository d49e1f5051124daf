//! # scan-core — the multi-GPU batch scan library
//!
//! Reproduction of the primary contribution of *"Efficient Solving of Scan
//! Primitive on Multi-GPU Systems"* (Diéguez, Amor, Doallo, Nukada,
//! Matsuoka — IPPS 2018): a tuned, batched, multi-GPU prefix-sum built on
//! the three-kernel Chunk-Reduce / Intermediate-Scan / Scan+Add pipeline
//! (Fig. 3) with the `(s, p, l, K)` tuning premises of §3.2.
//!
//! ## Proposals
//!
//! One entry point, [`ScanRequest`], runs every proposal — they are the
//! same three-kernel pipeline over different `(W, V, Y, M)` GPU
//! selections, named by [`Proposal`]:
//!
//! * [`Proposal::Sp`] — **Scan-SP**, the single-GPU batch pipeline;
//! * [`Proposal::Mps`] — **Scan-MPS**, Multi-GPU Problem Scattering: every
//!   problem split across all `W` GPUs of a node (Fig. 7);
//! * [`Proposal::Mppc`] — **Scan-MP-PC**, Prioritized Communications: each
//!   PCIe network's `V` GPUs take a slice of the batch, so no transfer ever
//!   leaves a network (Fig. 8);
//! * [`Proposal::MpsMultinode`] — Scan-MPS across nodes with
//!   MPI_Gather/MPI_Scatter collectives (§4.1);
//! * [`Proposal::Case1`] — the trivial no-communication distribution
//!   (Case 1).
//!
//! Every proposal but Case 1 also runs under a seeded
//! [`interconnect::FaultPlan`] ([`ScanRequest::faults`]) with
//! degraded-mode replanning, and a request can capture execution traces
//! ([`TraceOptions`]) for Chrome-trace export, per-resource utilization
//! and critical-path attribution — see [`request`] and [`report`].
//!
//! ## Quickstart
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use scan_core::{premises, verify, ProblemParams, ScanRequest};
//! use skeletons::Add;
//!
//! // 8 problems of 4096 elements, batched in one invocation.
//! let problem = ProblemParams::new(12, 3);
//! let input: Vec<i32> = (0..problem.total_elems()).map(|i| (i % 5) as i32).collect();
//!
//! let device = DeviceSpec::tesla_k80();
//! // Premises 1-3 derive (s, p, l) and the K search space; take the default K.
//! let base = premises::derive_tuple(&device, 4, 0);
//! let k = premises::default_k(&device, &problem, &base, 1).unwrap_or(0);
//!
//! let out = ScanRequest::new(Add, problem).tuple(base.with_k(k)).run(&input).unwrap();
//! verify::verify_batch(Add, problem, &input, &out.data).unwrap();
//! println!("{:.1} Melem/s", out.report.throughput() / 1e6);
//! ```

#![warn(missing_docs)]
// Warp/worker-indexed loops mirror the CUDA kernels they model; iterator
// rewrites would obscure the lane/warp index arithmetic under test.
#![allow(clippy::needless_range_loop)]

pub mod autotune;
pub mod breakdown;
pub mod cache;
mod case1;
pub mod error;
pub mod exec;
mod fault;
pub mod lease;
mod mppc;
mod mps;
pub mod multi_gpu;
mod multinode;
pub mod params;
pub mod plan;
pub mod premises;
pub mod reduce;
pub mod report;
pub mod request;
mod single;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod verify;

pub use autotune::{autotune_k, autotune_scan_sp, TuneResult};
pub use breakdown::{Breakdown, BreakdownRow};
pub use cache::{CacheStats, PlanCache, PlanHit, PlannedLaunch};
pub use error::{ScanError, ScanResult};
pub use exec::{PipelinePolicy, PipelineRun};
pub use lease::{scan_on_lease, GpuLease, LeaseRun};
pub use params::{NodeConfig, ProblemParams, ScanKind};
pub use plan::ExecutionPlan;
pub use reduce::{reduce_sp, ReduceOutput};
pub use report::{RunReport, ScanOutput, TraceHandle};
pub use request::{Proposal, ScanRequest, TraceOptions};
