//! Deterministic fault injection for the execution-graph runtime.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a run —
//! degraded links, transient transfer failures, permanently lost links,
//! slow SMs and evicted devices — driven by a single `u64` seed so every
//! injected schedule is exactly reproducible. The link-level half of the
//! plan is consumed here by [`apply_link_faults`], which rewrites an
//! [`ExecGraph`] so that:
//!
//! * transfers over a **degraded** link are re-priced by the degradation
//!   factor (the bottleneck factor when several degraded links share the
//!   route);
//! * transfers over a **transient** link may fail and retry: each failed
//!   attempt appears as its own node on the schedule, occupying the same
//!   resources, followed by a latency-proportional exponential backoff,
//!   with the retry chained strictly after the failed attempt;
//! * transfers over a **lost** link exhaust the retry budget and surface
//!   [`FaultError::RetryBudgetExhausted`] naming the link and the attempt
//!   count.
//!
//! The GPU-level half (throttles, evictions) is interpreted by the layers
//! that own the devices: `gpu-sim` applies SM throttles and launch
//! rejection, and `scan-core` replans evicted work (see `docs/faults.md`).
//!
//! ## Determinism and monotonicity
//!
//! Every node draws from its **own** generator, seeded
//! `seed ^ splitmix(node index)`, so a node's random choices do not depend
//! on how many other nodes the plan touches. Within a node, the
//! `(fail, fraction)` pairs for all possible attempts are pre-drawn before
//! the failure probability is consulted; adding a fault to a plan can only
//! raise the combined failure probability, turning successes into failures
//! without re-rolling anything else. Together with degradation factors
//! ≥ 1, this makes the makespan of a barrier-shaped graph monotone
//! non-decreasing as faults are added — a property the test-suite checks.
//!
//! An **empty** plan reduces bit-identically to the input schedule:
//! [`apply_link_faults`] returns a clone of the graph untouched.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{EventKind, ExecGraph, NodeId, NodeMeta, Resource};

/// SplitMix64 finalizer: decorrelates per-node seeds derived from the
/// plan seed.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One uniform draw in `[0, 1)` with 24 bits of resolution.
fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u32..1 << 24) as f64 / (1u32 << 24) as f64
}

/// What is wrong with one link resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// The link delivers a fraction of its bandwidth: transfers over it
    /// take `factor` (≥ 1.0) times longer.
    Degrade {
        /// Slow-down multiplier applied to every transfer on the link.
        factor: f64,
    },
    /// Each transfer over the link fails independently with probability
    /// `fail_prob`, costing a partial transfer plus a backoff, then
    /// retries.
    Transient {
        /// Per-attempt failure probability in `[0, 1]`.
        fail_prob: f64,
    },
    /// The link is gone: every transfer over it fails until the retry
    /// budget is exhausted.
    Lost,
}

/// When a GPU is evicted, in sub-batch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuEviction {
    /// Flat index of the GPU that disappears.
    pub gpu: usize,
    /// First sub-batch during which the device is gone (clamped by the
    /// planner to the run's last sub-batch).
    pub at_sub_batch: usize,
}

/// A seeded, deterministic description of every fault injected into a run.
///
/// Built with the fluent methods and handed to `scan-core` through
/// `ScanRequest::faults` (or directly to [`apply_link_faults`] for
/// graph-level experiments). The same plan and seed always reproduce the same
/// schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    retry_budget: usize,
    backoff_factor: f64,
    link_faults: Vec<(Resource, LinkFault)>,
    throttles: Vec<(usize, f64)>,
    evictions: Vec<GpuEviction>,
}

impl FaultPlan {
    /// An empty plan with the given seed: nothing fails until faults are
    /// added. Default retry budget 3, backoff factor 0.5.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            retry_budget: 3,
            backoff_factor: 0.5,
            link_faults: Vec::new(),
            throttles: Vec::new(),
            evictions: Vec::new(),
        }
    }

    /// The canonical fault-free plan (seed 0, no faults).
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// Degrade `link` so transfers over it take `factor` (≥ 1.0) times
    /// longer.
    ///
    /// # Panics
    /// If `factor` is not finite or is below 1.0.
    pub fn degrade_link(mut self, link: Resource, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "degrade factor must be ≥ 1.0, got {factor}");
        self.link_faults.push((link, LinkFault::Degrade { factor }));
        self
    }

    /// Make each transfer over `link` fail with probability `fail_prob`.
    ///
    /// # Panics
    /// If `fail_prob` is not in `[0, 1]`.
    pub fn transient_link(mut self, link: Resource, fail_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail_prob),
            "failure probability must be in [0, 1], got {fail_prob}"
        );
        self.link_faults.push((link, LinkFault::Transient { fail_prob }));
        self
    }

    /// Remove `link` permanently: every transfer over it exhausts the
    /// retry budget and errors.
    pub fn lose_link(mut self, link: Resource) -> Self {
        self.link_faults.push((link, LinkFault::Lost));
        self
    }

    /// Throttle every SM of `gpu` by `factor` (≥ 1.0): its kernels take
    /// `factor` times longer.
    ///
    /// # Panics
    /// If `factor` is not finite or is below 1.0.
    pub fn throttle_gpu(mut self, gpu: usize, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "throttle factor must be ≥ 1.0, got {factor}");
        self.throttles.push((gpu, factor));
        self
    }

    /// Evict `gpu` at the start of sub-batch `at_sub_batch` (clamped to
    /// the run's last sub-batch), forcing the planner to redistribute its
    /// work over the survivors.
    pub fn evict_gpu(mut self, gpu: usize, at_sub_batch: usize) -> Self {
        self.evictions.push(GpuEviction { gpu, at_sub_batch });
        self
    }

    /// Allow `retries` retries after the first failed attempt of each
    /// transfer (default 3).
    pub fn with_retry_budget(mut self, retries: usize) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Scale the exponential backoff: the wait after failed attempt *i*
    /// (1-based) is `backoff_factor · duration · 2^(i−1)` (default 0.5).
    ///
    /// # Panics
    /// If `backoff_factor` is negative or non-finite.
    pub fn with_backoff_factor(mut self, backoff_factor: f64) -> Self {
        assert!(
            backoff_factor.is_finite() && backoff_factor >= 0.0,
            "backoff factor must be ≥ 0.0, got {backoff_factor}"
        );
        self.backoff_factor = backoff_factor;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Retries allowed after the first failed attempt.
    pub fn retry_budget(&self) -> usize {
        self.retry_budget
    }

    /// Backoff scale factor (see [`FaultPlan::with_backoff_factor`]).
    pub fn backoff_factor(&self) -> f64 {
        self.backoff_factor
    }

    /// The link faults, in insertion order.
    pub fn link_faults(&self) -> &[(Resource, LinkFault)] {
        &self.link_faults
    }

    /// The per-GPU SM throttles, in insertion order.
    pub fn throttles(&self) -> &[(usize, f64)] {
        &self.throttles
    }

    /// The combined throttle factor for `gpu` (product of matching
    /// entries; 1.0 when healthy).
    pub fn throttle_of(&self, gpu: usize) -> f64 {
        self.throttles.iter().filter(|(g, _)| *g == gpu).map(|(_, f)| f).product()
    }

    /// The scheduled evictions, in insertion order.
    pub fn evictions(&self) -> &[GpuEviction] {
        &self.evictions
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.throttles.is_empty() && self.evictions.is_empty()
    }
}

/// A fault-injection failure: the fault was severe enough that the run
/// could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A transfer failed on every allowed attempt.
    RetryBudgetExhausted {
        /// Label of the failing transfer node.
        label: String,
        /// The faulted link resource it could not cross.
        resource: Resource,
        /// Total attempts made (1 initial + the retry budget).
        attempts: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RetryBudgetExhausted { label, resource, attempts } => write!(
                f,
                "retry budget exhausted: transfer '{label}' over {resource:?} failed on all \
                 {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// One thing the fault-injection runtime did, recorded for reporting.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A degraded link re-priced at least one transfer.
    LinkDegraded {
        /// The degraded link.
        resource: Resource,
        /// Its slow-down factor.
        factor: f64,
    },
    /// A transfer failed and was retried to completion.
    TransferRetried {
        /// Label of the transfer.
        label: String,
        /// The transient link it kept failing on.
        resource: Resource,
        /// Total attempts including the final success.
        attempts: usize,
        /// Simulated seconds spent on failed attempts and backoff.
        wasted_seconds: f64,
    },
    /// A GPU ran with throttled SMs.
    GpuThrottled {
        /// Flat GPU index.
        gpu: usize,
        /// Slow-down factor applied to its kernels.
        factor: f64,
    },
    /// A GPU was evicted mid-run.
    GpuEvicted {
        /// Flat GPU index.
        gpu: usize,
        /// Sub-batch at which it disappeared.
        at_sub_batch: usize,
    },
    /// The planner rebuilt the distribution over the surviving GPUs and
    /// reran the affected sub-batch.
    Replanned {
        /// GPUs the work was originally distributed over.
        from_gpus: Vec<usize>,
        /// Surviving GPUs the work was redistributed over.
        to_gpus: Vec<usize>,
        /// The sub-batch that was rerun.
        sub_batch: usize,
    },
}

/// Everything the fault-injection runtime injected, retried and replanned
/// during one run.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Seed of the plan that produced this report.
    pub seed: u64,
    /// Events in the order they were recorded.
    pub events: Vec<FaultEvent>,
}

impl FaultReport {
    /// An empty report for a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultReport { seed: plan.seed(), events: Vec::new() }
    }

    /// Record an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Number of transfers that needed at least one retry.
    pub fn retried_transfers(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, FaultEvent::TransferRetried { .. })).count()
    }

    /// Number of replanning events (sub-batches rerun on survivors).
    pub fn replans(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, FaultEvent::Replanned { .. })).count()
    }

    /// Whether any GPU was evicted.
    pub fn any_eviction(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::GpuEvicted { .. }))
    }
}

/// Whether a link fault on `resource` applies to `node`-shaped work: only
/// communication (transfers, collectives) crosses links.
fn node_matches(kind: EventKind, resources: &[Resource], faulted: Resource) -> bool {
    matches!(kind, EventKind::Transfer | EventKind::Collective) && resources.contains(&faulted)
}

/// Rewrite `graph` under the link-level faults of `plan`, recording what
/// happened in `report`.
///
/// Nodes whose resources cross a faulted link are re-priced (degradation)
/// and may grow a retry chain (transient failures): each failed attempt is
/// a node of the same phase, kind and resources whose duration is the
/// failed fraction of the transfer plus an exponential backoff, and the
/// next attempt depends on it. Dependencies of downstream nodes are
/// remapped to the final, successful attempt. Nodes untouched by the plan
/// are copied verbatim — an empty plan returns a bit-identical clone.
///
/// # Errors
/// [`FaultError::RetryBudgetExhausted`] if some transfer fails on the
/// initial attempt and every allowed retry (always the case for
/// [`LinkFault::Lost`] links).
pub fn apply_link_faults(
    graph: &ExecGraph,
    plan: &FaultPlan,
    report: &mut FaultReport,
) -> Result<ExecGraph, FaultError> {
    if plan.link_faults().is_empty() {
        return Ok(graph.clone());
    }

    // Report each degraded link that prices at least one node exactly once.
    let mut degrade_reported = vec![false; plan.link_faults().len()];

    let mut out = ExecGraph::new();
    for label in graph.phase_labels() {
        out.phase(label.clone());
    }
    // Old node id -> id of its final (successful) attempt in `out`.
    let mut remap: Vec<NodeId> = Vec::with_capacity(graph.nodes().len());

    for (index, node) in graph.nodes().iter().enumerate() {
        let deps: Vec<NodeId> = node.deps.iter().map(|d| remap[d.index()]).collect();

        // Bottleneck degradation factor and combined failure probability
        // over every matching fault on the node's route.
        let mut degrade = 1.0f64;
        let mut pass = 1.0f64; // probability every matching transient link holds
        let mut worst_link: Option<Resource> = None;
        for (fi, (res, fault)) in plan.link_faults().iter().enumerate() {
            if !node_matches(node.kind, &node.resources, *res) {
                continue;
            }
            match fault {
                LinkFault::Degrade { factor } => {
                    if *factor > degrade {
                        degrade = *factor;
                    }
                    if !degrade_reported[fi] {
                        degrade_reported[fi] = true;
                        report.push(FaultEvent::LinkDegraded { resource: *res, factor: *factor });
                    }
                }
                LinkFault::Transient { fail_prob } => {
                    pass *= 1.0 - fail_prob;
                    worst_link = Some(*res);
                }
                LinkFault::Lost => {
                    pass = 0.0;
                    worst_link = Some(*res);
                }
            }
        }
        let fail_prob = 1.0 - pass;
        let seconds = node.seconds * degrade;

        if fail_prob <= 0.0 {
            let id = out.add_with_meta(
                node.phase,
                &node.label,
                node.kind,
                seconds,
                &deps,
                &node.resources,
                node.meta,
            );
            remap.push(id);
            continue;
        }

        // Pre-draw (fail, fraction) for every possible attempt before
        // consulting the probability: adding faults elsewhere in the plan
        // cannot re-roll this node, and raising `fail_prob` only turns
        // successes into failures (monotone makespan).
        let attempts_allowed = plan.retry_budget() + 1;
        let mut rng = StdRng::seed_from_u64(plan.seed() ^ splitmix(index as u64));
        let draws: Vec<(f64, f64)> =
            (0..attempts_allowed).map(|_| (unit(&mut rng), unit(&mut rng))).collect();

        let link = worst_link.expect("fail_prob > 0 implies a matching transient/lost link");
        let mut prev_attempt = deps;
        let mut wasted = 0.0f64;
        let mut succeeded = None;
        for (i, &(fail_draw, frac_draw)) in draws.iter().enumerate() {
            // Every attempt — failed or successful — carries the original
            // node's metadata plus its 1-based attempt index, so the trace
            // exporter can render the retry chain as distinct slices.
            let attempt_meta = NodeMeta { attempt: Some(i + 1), ..node.meta };
            if fail_draw >= fail_prob {
                let id = out.add_with_meta(
                    node.phase,
                    &node.label,
                    node.kind,
                    seconds,
                    &prev_attempt,
                    &node.resources,
                    attempt_meta,
                );
                succeeded = Some(id);
                if i > 0 {
                    report.push(FaultEvent::TransferRetried {
                        label: node.label.clone(),
                        resource: link,
                        attempts: i + 1,
                        wasted_seconds: wasted,
                    });
                }
                break;
            }
            // Failed attempt i (0-based): the transfer runs for a random
            // fraction of its duration, then waits out an exponential
            // backoff proportional to the (degraded) transfer latency.
            let backoff = plan.backoff_factor() * seconds * (1u64 << i) as f64;
            let cost = frac_draw * seconds + backoff;
            wasted += cost;
            let id = out.add_with_meta(
                node.phase,
                format!("{} [attempt {} failed]", node.label, i + 1),
                node.kind,
                cost,
                &prev_attempt,
                &node.resources,
                attempt_meta,
            );
            prev_attempt = vec![id];
        }
        match succeeded {
            Some(id) => remap.push(id),
            None => {
                return Err(FaultError::RetryBudgetExhausted {
                    label: node.label.clone(),
                    resource: link,
                    attempts: attempts_allowed,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecGraph;

    const T: EventKind = EventKind::Transfer;
    const K: EventKind = EventKind::Kernel;

    fn link() -> Resource {
        Resource::PcieNetwork { node: 0, network: 0 }
    }

    /// stage1 kernel -> transfer over the link -> stage3 kernel.
    fn comm_graph() -> ExecGraph {
        let mut g = ExecGraph::new();
        let p1 = g.phase("stage1");
        let pc = g.phase("comm");
        let p3 = g.phase("stage3");
        let k = g.add(p1, "k", K, 1.0, &[], &[Resource::Stream { gpu: 0, stream: 0 }]);
        let c = g.add(pc, "copy", T, 0.5, &[k], &[link()]);
        g.add(p3, "k3", K, 1.0, &[c], &[Resource::Stream { gpu: 0, stream: 0 }]);
        g
    }

    #[test]
    fn empty_plan_is_bit_identical() {
        let g = comm_graph();
        let plan = FaultPlan::none();
        let mut report = FaultReport::new(&plan);
        let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
        assert_eq!(faulted.makespan().to_bits(), g.makespan().to_bits());
        assert_eq!(faulted.nodes().len(), g.nodes().len());
        assert!(report.events.is_empty());
    }

    #[test]
    fn degrade_reprices_only_matching_transfers() {
        let g = comm_graph();
        let plan = FaultPlan::new(1).degrade_link(link(), 4.0);
        let mut report = FaultReport::new(&plan);
        let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
        assert_eq!(faulted.nodes().len(), 3, "no retries from a pure degradation");
        assert_eq!(faulted.nodes()[0].seconds, 1.0, "kernels untouched");
        assert_eq!(faulted.nodes()[1].seconds, 2.0, "transfer 4x slower");
        assert_eq!(faulted.makespan(), g.makespan() + 1.5);
        assert_eq!(report.events, vec![FaultEvent::LinkDegraded { resource: link(), factor: 4.0 }]);
    }

    #[test]
    fn lost_link_exhausts_budget_with_named_link() {
        let g = comm_graph();
        let plan = FaultPlan::new(2).lose_link(link()).with_retry_budget(2);
        let mut report = FaultReport::new(&plan);
        let err = apply_link_faults(&g, &plan, &mut report).unwrap_err();
        assert_eq!(
            err,
            FaultError::RetryBudgetExhausted {
                label: "copy".into(),
                resource: link(),
                attempts: 3,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("copy") && msg.contains("3 attempts"), "got: {msg}");
    }

    #[test]
    fn certain_failure_that_recovers_builds_a_retry_chain() {
        // fail_prob 1.0 fails every draw; budget 3 -> error. With a
        // generous budget and prob just under 1 we can still observe a
        // chain deterministically by picking a seed that fails first.
        let g = comm_graph();
        let mut seed = 0;
        // Find a seed whose first draw fails at p=0.9 (common).
        loop {
            let plan = FaultPlan::new(seed).transient_link(link(), 0.9).with_retry_budget(16);
            let mut report = FaultReport::new(&plan);
            let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
            if faulted.nodes().len() > 3 {
                assert_eq!(report.retried_transfers(), 1);
                let retried = report
                    .events
                    .iter()
                    .find_map(|e| match e {
                        FaultEvent::TransferRetried { attempts, wasted_seconds, .. } => {
                            Some((*attempts, *wasted_seconds))
                        }
                        _ => None,
                    })
                    .unwrap();
                assert_eq!(faulted.nodes().len(), 3 + retried.0 - 1);
                assert!(retried.1 > 0.0, "failed attempts cost time");
                assert!(faulted.makespan() > g.makespan(), "retries stretch the schedule");
                // The retry chain serialises: each attempt depends on the
                // previous one.
                let s = faulted.schedule();
                for n in 2..faulted.nodes().len() - 1 {
                    assert!(s.start[n] >= s.finish[n - 1] - 1e-15);
                }
                break;
            }
            seed += 1;
            assert!(seed < 100, "no failing seed found at p=0.9?");
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let g = comm_graph();
        let run = || {
            let plan = FaultPlan::new(7)
                .transient_link(link(), 0.7)
                .degrade_link(link(), 2.0)
                .with_retry_budget(20);
            let mut report = FaultReport::new(&plan);
            let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
            (faulted.makespan().to_bits(), faulted.nodes().len(), report.events.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn throttle_of_multiplies_and_defaults_to_one() {
        let plan = FaultPlan::new(0).throttle_gpu(2, 2.0).throttle_gpu(2, 3.0).throttle_gpu(5, 7.0);
        assert_eq!(plan.throttle_of(2), 6.0);
        assert_eq!(plan.throttle_of(5), 7.0);
        assert_eq!(plan.throttle_of(0), 1.0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
