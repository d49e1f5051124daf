//! # scan-serve — a multi-tenant scheduler over the simulated cluster
//!
//! The library crates below this one execute *one* scan at a time on an
//! idle cluster. `scan-serve` runs a **workload**: a stream of
//! [`ServeRequest`]s (sizes, arrivals, priorities, deadlines) served by a
//! deterministic simulated-clock loop that
//!
//! * **admits** arrivals into a queue ordered by a pluggable [`Policy`]
//!   (FIFO, shortest-job-first, earliest-deadline-first);
//! * **leases** GPUs from a [`DevicePool`] — partial grants are planned
//!   with the degraded-mode subset rule, and each lease gets its own
//!   stream ids via `gpu_sim::StreamNamespace`. Pools may mix device
//!   generations ([`ServeConfig::devices`]): grants never span models,
//!   and selection picks the fastest compatible subset by
//!   `width · throughput`;
//! * **coalesces** compatible small scans into one batched Scan-SP launch
//!   (the paper's Fig. 11–13 batching insight applied across tenants),
//!   bit-identically to serving each request alone;
//! * **mixes operators** in one window: each request names an
//!   [`OpKind`] — i32 sum (default), f64 max, segmented sum, or the gated
//!   first-order recurrence as an affine-pair monoid — and dispatch,
//!   coalescing, plan-cache keys and response checksums all respect the
//!   operator boundary (see `docs/operators.md`);
//! * **executes** every launch's `ExecGraph` against one shared
//!   `interconnect::FleetTimeline`, so cross-request contention
//!   serialises exactly like intra-request contention, and the whole
//!   window exports as a single Perfetto trace.
//!
//! One server is one shard: the [`Router`] scales the same loop out to
//! N shards on one shared simulated clock — pluggable [`Placement`],
//! bounded admission with deterministic redirect/reject, per-tenant SLO
//! escalation ([`SloConfig`]), and cross-shard work stealing costed as
//! an explicit InfiniBand transfer (see `docs/sharding.md`).
//!
//! Everything is bit-deterministic from the workload seed; golden
//! snapshots pin one window per policy (and one sharded window), and a
//! 1-shard router is byte-equal to the unsharded [`Server::run`]. See
//! `docs/serving.md`.
//!
//! ## Quickstart
//!
//! ```
//! use scan_serve::{Policy, ServeConfig, Server, WorkloadSpec};
//!
//! let requests = WorkloadSpec::default_for(7, 16).generate();
//! let report = Server::new(ServeConfig::new(Policy::Edf, 7)).run(&requests).unwrap();
//! assert_eq!(report.completions.len(), 16);
//! println!("{}", report.metrics.summary());
//! ```

#![warn(missing_docs)]

pub mod coalesce;
pub mod json;
pub mod kind;
pub mod metrics;
pub mod policy;
pub mod pool;
pub mod request;
pub mod router;
pub mod serve;
mod shard;
pub mod workload;

pub use json::Json;
pub use kind::{
    request_input_f64_into, request_input_gated_into, request_input_into, request_input_seg_into,
    OpKind, ServedKind, ServedOutput,
};
pub use metrics::{FleetMetrics, ShardedMetrics};
pub use policy::Policy;
pub use pool::{DevicePool, PoolDevice, PoolLease};
pub use request::ServeRequest;
pub use router::{
    Placement, Rejection, Router, RouterConfig, ShardReport, ShardedReport, SloConfig,
};
pub use serve::{Completion, ResponseStats, ServeConfig, ServeReport, Server};
pub use workload::{request_input, requests_from_json, requests_to_json, WorkloadSpec};
