//! # interconnect — the multi-GPU / multi-node fabric simulator
//!
//! Models the communication substrate of the paper's evaluation platform
//! (Figure 2 and Table 1): TSUBAME-KFC nodes with two PCIe networks of four
//! Tesla K80 GPUs each, connected by InfiniBand FDR.
//!
//! * [`topology`] — who is plugged in where, and which [`LinkClass`]
//!   connects any two GPUs;
//! * [`link`] — bandwidth/latency of each link class;
//! * [`transfer`] — functional peer-to-peer copies with cost records;
//! * [`collectives`] — intra-node gather/scatter/barrier cost models;
//! * [`mpi`] — CUDA-aware MPI collectives for the Multi-Node proposals;
//! * [`graph`] — the stream/event execution graph: operations as DAG nodes
//!   scheduled over exclusive link and stream resources, makespan as the
//!   critical path;
//! * [`fault`] — seeded, deterministic fault injection: degraded links,
//!   transient transfer failures with retry/backoff, lost links;
//! * [`trace`] — observability over scheduled graphs: Chrome-trace JSON
//!   export, per-resource utilization metrics, critical-path attribution;
//! * [`timeline`] — the phase-synchronous view (Fig. 14 breakdowns),
//!   derivable from an execution graph.

#![warn(missing_docs)]

pub mod collectives;
pub mod fault;
pub mod graph;
pub mod link;
pub mod mpi;
pub mod timeline;
pub mod topology;
pub mod trace;
pub mod transfer;

pub use collectives::{
    barrier_cost, gather_cost, scatter_cost, strided_exchange_cost, CollectiveCost, StridedPart,
};
pub use fault::{
    apply_link_faults, FaultError, FaultEvent, FaultPlan, FaultReport, GpuEviction, LinkFault,
};
#[doc(hidden)]
pub use graph::reference_schedule;
pub use graph::{
    empty_remap, merge_fleet_parts, Admission, EventKind, ExecGraph, ExecNode, FleetTimeline,
    FxBuildHasher, FxHasher, NodeId, NodeMeta, RemapTable, Resource, ResourceMap, Schedule,
};
pub use link::{FabricSpec, LinkParams};
pub use mpi::{MpiComm, MpiCost};
pub use timeline::{Phase, Timeline};
pub use topology::{LinkClass, Location, Topology};
pub use trace::{
    CriticalPathNode, CriticalPathReport, FleetTrace, ResourceUtilization, Trace, UtilizationReport,
};
pub use transfer::{Fabric, Transfer};
