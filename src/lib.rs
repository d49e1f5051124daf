//! # multigpu-scan
//!
//! A Rust reproduction of *"Efficient Solving of Scan Primitive on
//! Multi-GPU Systems"* (Diéguez, Amor, Doallo, Nukada, Matsuoka —
//! IPPS 2018): a tuned, batched, multi-GPU prefix sum, together with every
//! substrate it needs — a functional GPU simulator, a PCIe/InfiniBand
//! fabric model, BPLG-style kernel skeletons, and the five competing
//! libraries of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] — the GPU simulator (`gpu-sim`);
//! * [`fabric`] — the interconnect model (`interconnect`);
//! * [`devices`] — hardware models and fabric presets (`devices`);
//! * [`kernels`] — scan skeletons (`skeletons`);
//! * [`scan`] — the paper's proposals (`scan-core`);
//! * [`serve`] — the multi-tenant serving layer (`scan-serve`);
//! * [`competitors`] — CUDPP/Thrust/ModernGPU/CUB/LightScan (`baselines`).
//!
//! The unified builder [`ScanRequest`] fronts every proposal, fault plan
//! and observability option; see `examples/quickstart.rs` for a
//! three-line batch scan, `examples/trace_export.rs` for Chrome-trace
//! export, and the `figures` binary in `crates/bench` for the full
//! evaluation.

pub use baselines as competitors;
pub use devices;
pub use gpu_sim as sim;
pub use interconnect as fabric;
pub use scan_core as scan;
pub use scan_serve as serve;
pub use skeletons as kernels;

// The unified entry point, flat at the crate root: most callers need
// nothing beyond `multigpu_scan::{ScanRequest, Proposal}`.
pub use scan_core::{CacheStats, PlanCache, Proposal, ScanRequest, TraceHandle, TraceOptions};

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use baselines::{Cub, Cudpp, LightScan, ModernGpu, ScanLibrary, Thrust};
    pub use devices::{DeviceModel, DevicePreset, FabricPreset};
    pub use gpu_sim::DeviceSpec;
    pub use interconnect::{
        Fabric, FaultError, FaultEvent, FaultPlan, FaultReport, GpuEviction, LinkFault, Topology,
        Trace,
    };
    pub use scan_core::{
        premises, CacheStats, NodeConfig, PipelinePolicy, PlanCache, ProblemParams, Proposal,
        ScanOutput, ScanRequest, TraceHandle, TraceOptions,
    };
    pub use scan_serve::{
        OpKind, Placement, Policy, Rejection, Router, RouterConfig, ServeConfig, ServeRequest,
        ServedOutput, Server, ShardReport, ShardedMetrics, ShardedReport, SloConfig, WorkloadSpec,
    };
    pub use skeletons::{
        Add, AffinePair, GatedOp, Max, Min, Mul, ScanOp, SegPair, SegmentedAdd, SplkTuple,
    };
}
