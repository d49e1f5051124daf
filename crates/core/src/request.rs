//! The scan entry point: [`ScanRequest`].
//!
//! Every proposal — healthy or fault-injected, inclusive or exclusive,
//! barrier-synchronous or pipelined — runs through one builder:
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use scan_core::{Proposal, ScanRequest};
//! use scan_core::params::{NodeConfig, ProblemParams};
//! use skeletons::{Add, SplkTuple};
//!
//! let problem = ProblemParams::new(12, 2);
//! let input: Vec<i32> = (0..problem.total_elems()).map(|i| (i % 7) as i32).collect();
//! let out = ScanRequest::new(Add, problem)
//!     .proposal(Proposal::Mps)
//!     .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
//!     .tuple(SplkTuple::kepler_premises(0))
//!     .run(&input)
//!     .unwrap();
//! assert_eq!(out.data.len(), input.len());
//! ```
//!
//! `run` validates the request once, resolves its defaults — fault plan
//! included — into one crate-private launch, and dispatches on the
//! proposal alone: each proposal has one body, which runs the same code
//! with or without a fault plan. `tests/golden/request_equivalence.txt`
//! pins every route's data and schedule bits.
//!
//! A request runs one of the paper's proposals: Sp on one GPU, the others
//! over a `(W, V, Y, M)` selection. Leased GPU subsets, the serving
//! layer's launches, run through
//! [`scan_on_lease`](crate::lease::scan_on_lease) or, memoized, through
//! [`PlanCache::plan`](crate::cache::PlanCache::plan).

use gpu_sim::DeviceSpec;
use interconnect::{Fabric, FaultPlan};
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::exec::{Launch, PipelinePolicy};
use crate::params::{NodeConfig, ProblemParams, ScanKind};
use crate::report::{ScanOutput, TraceHandle};
use crate::{case1, mppc, mps, multinode, single};

/// Which of the paper's distribution proposals a [`ScanRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposal {
    /// Scan-SP: the single-GPU batch pipeline.
    Sp,
    /// Scan-MPS: every problem split across all `W` GPUs of one node.
    Mps,
    /// Scan-MP-PC: per-PCIe-network groups, prioritized communications.
    Mppc,
    /// Scan-MPS across `M` nodes with MPI collectives.
    MpsMultinode,
    /// Case 1: one problem subset per GPU, no communication.
    Case1,
}

/// How much observability a [`ScanRequest`] captures at run time.
///
/// Tracing never changes the schedule — it only decides whether the
/// scheduled execution graph is wrapped into a [`TraceHandle`] on the
/// output. [`ScanOutput::trace`] can still build a handle after the fact
/// for any run whose report kept its graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceOptions {
    capture: bool,
}

impl TraceOptions {
    /// No capture (the default): `ScanOutput::trace` stays lazily
    /// available but `ScanOutput.trace` is `None`.
    pub fn none() -> Self {
        TraceOptions { capture: false }
    }

    /// Capture the full execution trace: the output's `trace` field holds
    /// a ready [`TraceHandle`] for Chrome-trace export, utilization
    /// metrics and critical-path attribution.
    pub fn full() -> Self {
        TraceOptions { capture: true }
    }

    /// Whether any trace is captured.
    pub fn is_enabled(&self) -> bool {
        self.capture
    }
}

/// Builder for one batch-scan invocation — proposal, devices, semantics,
/// pipelining, fault plan and tracing in one place.
///
/// Only the operator and problem shape are mandatory. Defaults: proposal
/// [`Proposal::Sp`], device [`DeviceSpec::tesla_k80`], tuple
/// [`SplkTuple::kepler_premises`]\(0\), fabric
/// [`Fabric::tsubame_kfc`]\(M\), inclusive semantics, barrier-synchronous
/// pipelining, no faults, no tracing.
#[derive(Debug, Clone)]
pub struct ScanRequest<O> {
    op: O,
    problem: ProblemParams,
    proposal: Proposal,
    kind: ScanKind,
    tuple: Option<SplkTuple>,
    device: Option<DeviceSpec>,
    fabric: Option<Fabric>,
    cfg: Option<NodeConfig>,
    policy: Option<PipelinePolicy>,
    faults: Option<FaultPlan>,
    trace: TraceOptions,
}

impl<O: Copy> ScanRequest<O> {
    /// Start a request: scan `problem` with the binary operator `op`.
    pub fn new(op: O, problem: ProblemParams) -> Self {
        ScanRequest {
            op,
            problem,
            proposal: Proposal::Sp,
            kind: ScanKind::Inclusive,
            tuple: None,
            device: None,
            fabric: None,
            cfg: None,
            policy: None,
            faults: None,
            trace: TraceOptions::none(),
        }
    }

    /// Select the distribution proposal (default [`Proposal::Sp`]).
    pub fn proposal(mut self, proposal: Proposal) -> Self {
        self.proposal = proposal;
        self
    }

    /// Scan semantics (default inclusive).
    pub fn kind(mut self, kind: ScanKind) -> Self {
        self.kind = kind;
        self
    }

    /// Exclusive semantics — shorthand for `kind(ScanKind::Exclusive)`.
    pub fn exclusive(self) -> Self {
        self.kind(ScanKind::Exclusive)
    }

    /// The `(s, p, l, K)` tuning tuple (default
    /// [`SplkTuple::kepler_premises`]\(0\); derive one from the premises
    /// or the autotuner for other devices).
    pub fn tuple(mut self, tuple: SplkTuple) -> Self {
        self.tuple = Some(tuple);
        self
    }

    /// The simulated device every GPU models (default
    /// [`DeviceSpec::tesla_k80`]).
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }

    /// The interconnect fabric (default [`Fabric::tsubame_kfc`] sized to
    /// the node count; ignored by [`Proposal::Sp`], which always runs on a
    /// single-GPU topology).
    pub fn fabric(mut self, fabric: Fabric) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Device selection `(W, V, Y, M)` — required by every multi-GPU
    /// proposal, rejected by [`Proposal::Sp`].
    pub fn devices(mut self, cfg: NodeConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Pipelining policy — only [`Proposal::Mps`] and [`Proposal::Mppc`]
    /// accept one; other proposals reject an explicit policy rather than
    /// silently ignoring it.
    pub fn pipeline(mut self, policy: PipelinePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Run under a seeded fault plan (throttles, link faults, evictions).
    /// The proposal's body takes the plan as an input; the output's
    /// `faults` field records what was injected, and an empty plan
    /// reproduces the healthy schedule bit for bit.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Observability options (default [`TraceOptions::none`]).
    pub fn trace(mut self, options: TraceOptions) -> Self {
        self.trace = options;
        self
    }

    fn require_cfg(&self) -> ScanResult<NodeConfig> {
        self.cfg.ok_or_else(|| {
            ScanError::InvalidConfig(format!(
                "proposal {:?} needs a device selection: call .devices(NodeConfig::new(..))",
                self.proposal
            ))
        })
    }

    fn reject_policy(&self) -> ScanResult<()> {
        if self.policy.is_some() {
            return Err(ScanError::InvalidConfig(format!(
                "proposal {:?} does not take a pipeline policy; only Mps and Mppc pipeline \
                 their sub-batches",
                self.proposal
            )));
        }
        Ok(())
    }

    /// Every validation a request needs, run once before dispatch. Returns
    /// the node config for the proposals that need one (`None` for Sp).
    fn precheck(&self) -> ScanResult<Option<NodeConfig>> {
        match self.proposal {
            Proposal::Sp => {
                self.reject_policy()?;
                Ok(None)
            }
            Proposal::Mps | Proposal::Mppc => Ok(Some(self.require_cfg()?)),
            Proposal::MpsMultinode | Proposal::Case1 => {
                self.reject_policy()?;
                Ok(Some(self.require_cfg()?))
            }
        }
    }

    /// Execute the request over `input` (problem-major `[g][N]` layout).
    ///
    /// Invalid combinations (a policy for a proposal that cannot pipeline,
    /// a missing device selection, an eviction plan for multi-node) surface as
    /// [`ScanError::InvalidConfig`] instead of being silently ignored.
    pub fn run<T: Scannable>(&self, input: &[T]) -> ScanResult<ScanOutput<T>>
    where
        O: ScanOp<T>,
    {
        let cfg = self.precheck()?;
        let device = self.device.clone().unwrap_or_else(DeviceSpec::tesla_k80);
        let fabric = match cfg {
            None => single::single_gpu_fabric(),
            Some(c) => self.fabric.clone().unwrap_or_else(|| Fabric::tsubame_kfc(c.m())),
        };
        let launch = Launch {
            op: self.op,
            problem: self.problem,
            tuple: self.tuple.unwrap_or_else(|| SplkTuple::kepler_premises(0)),
            kind: self.kind,
            policy: self.policy.unwrap_or_default(),
            device: &device,
            fabric: &fabric,
            faults: self.faults.as_ref(),
        };
        let cfg = cfg.unwrap_or_else(NodeConfig::single_gpu);
        let mut out = match self.proposal {
            Proposal::Sp => single::scan_sp(&launch, input),
            Proposal::Mps => mps::scan_mps(&launch, cfg, input),
            Proposal::Mppc => mppc::scan_mppc(&launch, cfg, input),
            Proposal::MpsMultinode => multinode::scan_mps_multinode(&launch, cfg, input),
            Proposal::Case1 => case1::scan_case1(&launch, cfg, input),
        }?;
        if self.trace.is_enabled() {
            out.trace = out.report.graph.as_ref().map(TraceHandle::from_graph);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::Add;

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
    }

    #[test]
    fn defaults_are_sp_on_a_k80_with_kepler_premises() {
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let explicit = ScanRequest::new(Add, problem)
            .proposal(Proposal::Sp)
            .device(DeviceSpec::tesla_k80())
            .tuple(SplkTuple::kepler_premises(0))
            .run(&input)
            .unwrap();
        let req = ScanRequest::new(Add, problem).run(&input).unwrap();
        assert_eq!(req.data, explicit.data);
        assert_eq!(req.report.makespan.to_bits(), explicit.report.makespan.to_bits());
        assert_eq!(req.report.label, "Scan-SP");
        assert!(req.faults.is_none());
        assert!(req.trace.is_none());
    }

    #[test]
    fn trace_options_capture_a_handle() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let out = ScanRequest::new(Add, problem).trace(TraceOptions::full()).run(&input).unwrap();
        let handle = out.trace.expect("tracing was requested");
        assert_eq!(
            handle.critical_path().total_seconds().to_bits(),
            out.report.makespan.to_bits(),
            "critical-path attribution must reproduce the report's makespan"
        );
        assert!(handle.chrome_trace_json().contains("\"traceEvents\""));
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        // A pipeline policy on a proposal that cannot pipeline.
        let err = ScanRequest::new(Add, problem)
            .pipeline(PipelinePolicy::pipelined(2))
            .run(&input)
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
        // A multi-GPU proposal without a device selection.
        let err = ScanRequest::new(Add, problem).proposal(Proposal::Mps).run(&input).unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
        // Exclusive semantics under a fault plan run, and match the
        // reference.
        let out = ScanRequest::new(Add, problem)
            .exclusive()
            .faults(FaultPlan::new(1).throttle_gpu(0, 2.0))
            .run(&input)
            .unwrap();
        crate::verify::verify_batch_kind(Add, problem, &input, &out.data, ScanKind::Exclusive)
            .unwrap();
        // Multi-node takes exclusive semantics like every other proposal.
        let out = ScanRequest::new(Add, problem)
            .exclusive()
            .proposal(Proposal::MpsMultinode)
            .devices(NodeConfig::new(2, 2, 1, 2).unwrap())
            .run(&input)
            .unwrap();
        crate::verify::verify_batch_kind(Add, problem, &input, &out.data, ScanKind::Exclusive)
            .unwrap();
        // Case1 takes no fault plan.
        let err = ScanRequest::new(Add, problem)
            .proposal(Proposal::Case1)
            .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
            .faults(FaultPlan::new(1))
            .run(&input)
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
    }

    #[test]
    fn faulted_request_carries_the_fault_report() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let out = ScanRequest::new(Add, problem)
            .faults(FaultPlan::new(7).throttle_gpu(0, 2.0))
            .run(&input)
            .unwrap();
        let report = out.faults.expect("faulted runs record a report");
        assert!(!report.events.is_empty());
    }
}
