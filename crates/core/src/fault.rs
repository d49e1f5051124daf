//! Fault injection: how a run degrades under a seeded
//! [`interconnect::FaultPlan`].
//!
//! A [`crate::ScanRequest`] given a plan through
//! [`crate::ScanRequest::faults`] runs its proposal's one body with the
//! plan as an input:
//!
//! * **SM throttles** slow the affected GPU's kernels (applied by the
//!   `gpu-sim` layer, so the throttled durations flow into the execution
//!   graph automatically);
//! * **link faults** (degradation, transient failures with retry/backoff,
//!   permanent loss) re-price the finished graph's transfers through
//!   [`interconnect::apply_link_faults`];
//! * **device evictions** trigger **degraded-mode replanning**
//!   ([`abort_and_replan`]): the doomed sub-batch is aborted (the victim's
//!   launch fails with `DeviceLost`, survivors' Stage-1 work is wasted),
//!   the planner re-derives the Eq. 2/3 portions over the surviving GPUs,
//!   and the sub-batch is rerun under `recovery:`-prefixed phases so the
//!   extra work appears as its own rows in the Fig. 14-style breakdown.
//!   Later sub-batches stay on the survivors — the device is gone for good.
//!
//! Faults change *timing and scheduling only, never data*: every faulted
//! run's output is bit-identical to the fault-free scan (the differential
//! harness in `tests/fault_differential.rs` asserts this across a matrix of
//! seeds, plans and proposals), and an empty plan reproduces the healthy
//! schedule bit for bit. A [`interconnect::FaultReport`] records what was
//! injected, what retried and what was replanned.

use gpu_sim::SimError;
use interconnect::{EventKind, ExecGraph, FaultEvent, NodeId, Resource};
use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::Launch;
use crate::multi_gpu::stage1_phase;
use crate::params::ProblemParams;
use crate::plan::ExecutionPlan;

/// Largest power of two ≤ `n` (0 maps to 0). Shared with the lease
/// planner, whose partial-lease rule is the same largest-feasible-subset
/// rule the replanner applies to eviction survivors.
pub(crate) fn largest_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Abort sub-batch `b` of a group pipeline because `victims` are evicted at
/// it, and replan it over the survivors.
///
/// The sub-batch starts on the full `active` distribution. The victims'
/// Stage-1 launches fail with `DeviceLost`; the survivors finish their
/// chunk reductions, but those results cover the wrong portions now and
/// are thrown away — their time still lands on the schedule as wasted
/// `recovery:aborted-stage1` work after `barrier_deps`. The Eq. 2/3
/// portions are then re-derived over the largest power-of-two subset of
/// the survivors. Returns that subset, which the sub-batch reruns on, and
/// the nodes the rerun waits for. Evicting the group's last GPU is a
/// planning error, not a panic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn abort_and_replan<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    graph: &mut ExecGraph,
    events: &mut Vec<FaultEvent>,
    active: &[usize],
    victims: &[usize],
    b: usize,
    stream: usize,
    sub_problem: ProblemParams,
    sub_input: &[T],
    barrier_deps: Vec<NodeId>,
) -> ScanResult<(Vec<usize>, Vec<NodeId>)> {
    for &gpu in victims {
        events.push(FaultEvent::GpuEvicted { gpu, at_sub_batch: b });
    }
    let plan = ExecutionPlan::new(sub_problem, launch.tuple, active.len())?;
    let mut workers = launch.workers(&plan, active)?;
    for w in &mut workers {
        if victims.contains(&w.global_id) {
            w.gpu.evict();
        }
    }
    let results = stage1_phase(&mut workers, &plan, launch.op, sub_input);
    let p = graph.phase("recovery:aborted-stage1");
    let mut abort_nodes: Vec<NodeId> = Vec::new();
    for (w, res) in workers.iter().zip(results) {
        match res {
            Ok((secs, _)) => abort_nodes.push(graph.add(
                p,
                "recovery:aborted-stage1",
                EventKind::Kernel,
                secs,
                &barrier_deps,
                &[Resource::Stream { gpu: w.global_id, stream }],
            )),
            Err(SimError::DeviceLost { .. }) if victims.contains(&w.global_id) => {}
            Err(e) => return Err(e.into()),
        }
    }

    let survivors: Vec<usize> = active.iter().copied().filter(|g| !victims.contains(g)).collect();
    if survivors.is_empty() {
        return Err(ScanError::InvalidConfig(format!(
            "cannot replan sub-batch {b}: evicting GPU(s) {victims:?} removes the last GPU \
             of the group, leaving no survivors to redistribute the portions over"
        )));
    }
    let survivors = survivors[..largest_pow2(survivors.len())].to_vec();
    events.push(FaultEvent::Replanned {
        from_gpus: active.to_vec(),
        to_gpus: survivors.clone(),
        sub_batch: b,
    });
    let rerun_deps = if abort_nodes.is_empty() { barrier_deps } else { abort_nodes };
    Ok((survivors, rerun_deps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NodeConfig;
    use crate::{PipelinePolicy, Proposal, ScanRequest};
    use interconnect::FaultPlan;
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 69069 + 5) % 199) as i32 - 99).collect()
    }

    /// `proposal` of `Add` over `cfg` with the request defaults (K80,
    /// Kepler premises, TSUBAME-KFC fabric).
    fn request(proposal: Proposal, cfg: NodeConfig, problem: ProblemParams) -> ScanRequest<Add> {
        ScanRequest::new(Add, problem).proposal(proposal).devices(cfg)
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn largest_pow2_truncation() {
        assert_eq!(largest_pow2(0), 0);
        assert_eq!(largest_pow2(1), 1);
        assert_eq!(largest_pow2(3), 2);
        assert_eq!(largest_pow2(4), 4);
        assert_eq!(largest_pow2(7), 4);
    }

    #[test]
    fn empty_plan_matches_healthy_run_bit_for_bit() {
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let w8 = NodeConfig::new(8, 4, 2, 1).unwrap();
        let cases = [
            ScanRequest::new(Add, problem),
            request(Proposal::Mps, NodeConfig::new(2, 2, 1, 1).unwrap(), problem),
            request(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), problem),
            request(Proposal::Mppc, w8, problem).pipeline(PipelinePolicy::pipelined(2)),
            request(Proposal::MpsMultinode, NodeConfig::new(2, 2, 1, 2).unwrap(), problem),
        ];
        for req in cases {
            let healthy = req.run(&input).unwrap();
            let faulted = req.faults(FaultPlan::none()).run(&input).unwrap();
            let label = &healthy.report.label;
            assert_eq!(faulted.data, healthy.data, "{label}");
            assert_eq!(
                faulted.report.makespan.to_bits(),
                healthy.report.makespan.to_bits(),
                "{label}: an empty plan must reduce to the healthy schedule exactly"
            );
            assert_eq!(faulted.report.label, format!("{label} [faulted]"));
            assert!(healthy.faults.is_none(), "{label}");
            assert!(faulted.faults.expect("faulted runs carry a report").events.is_empty());
        }
    }

    #[test]
    fn throttle_slows_schedule_but_not_data() {
        let problem = ProblemParams::new(13, 2);
        let input = pseudo(problem.total_elems());
        let mps = request(Proposal::Mps, NodeConfig::new(2, 2, 1, 1).unwrap(), problem);
        let healthy = mps.run(&input).unwrap();
        let faulted = mps.faults(FaultPlan::new(3).throttle_gpu(1, 4.0)).run(&input).unwrap();
        assert_eq!(faulted.data, healthy.data, "throttling is timing-only");
        assert!(
            faulted.report.makespan > healthy.report.makespan,
            "a throttled GPU must stretch the makespan ({} vs {})",
            faulted.report.makespan,
            healthy.report.makespan
        );
        assert_eq!(
            faulted.faults.expect("faulted runs carry a report").events,
            vec![FaultEvent::GpuThrottled { gpu: 1, factor: 4.0 }]
        );
    }

    #[test]
    fn eviction_replans_and_reports_recovery() {
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let faulted = request(Proposal::Mps, NodeConfig::new(4, 4, 1, 1).unwrap(), problem)
            .pipeline(PipelinePolicy::batched_barrier(4))
            .faults(FaultPlan::new(11).evict_gpu(2, 1))
            .run(&input)
            .unwrap();
        verify_batch(&faulted.data, &input, problem);
        let fault_report = faulted.faults.as_ref().expect("faulted runs carry a report");
        assert!(fault_report.any_eviction());
        assert_eq!(fault_report.replans(), 1);
        // Survivors {0, 1, 3} truncate to a power-of-two pair.
        let replanned = fault_report
            .events
            .iter()
            .find_map(|e| match e {
                FaultEvent::Replanned { from_gpus, to_gpus, sub_batch } => {
                    Some((from_gpus.clone(), to_gpus.clone(), *sub_batch))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(replanned, (vec![0, 1, 2, 3], vec![0, 1], 1));
        let breakdown =
            crate::breakdown::Breakdown::from_graph(faulted.report.graph.as_ref().unwrap());
        assert!(
            breakdown.seconds_with_prefix("recovery") > 0.0,
            "replanning must be visible as a recovery phase"
        );
    }

    #[test]
    fn evicting_the_only_gpu_errors_cleanly() {
        let problem = ProblemParams::new(13, 0);
        let input = pseudo(problem.total_elems());
        let err = ScanRequest::new(Add, problem)
            .faults(FaultPlan::new(0).evict_gpu(0, 0))
            .run(&input)
            .unwrap_err();
        match err {
            ScanError::InvalidConfig(msg) => assert!(msg.contains("last GPU"), "got: {msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn mppc_eviction_only_replans_the_losing_group() {
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        // GPU 4 is in the second network's group.
        let faulted = request(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), problem)
            .faults(FaultPlan::new(5).evict_gpu(4, 0))
            .run(&input)
            .unwrap();
        verify_batch(&faulted.data, &input, problem);
        let fault_report = faulted.faults.as_ref().expect("faulted runs carry a report");
        assert_eq!(fault_report.replans(), 1);
        let to = fault_report
            .events
            .iter()
            .find_map(|e| match e {
                FaultEvent::Replanned { to_gpus, .. } => Some(to_gpus.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(to, vec![5], "only network 1's group replans, onto its survivor");
    }

    #[test]
    fn multinode_rejects_evictions_but_takes_link_faults() {
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(problem.total_elems());
        let multinode =
            request(Proposal::MpsMultinode, NodeConfig::new(2, 2, 1, 2).unwrap(), problem);
        let err = multinode.clone().faults(FaultPlan::new(0).evict_gpu(0, 0)).run(&input);
        assert!(matches!(err, Err(ScanError::InvalidConfig(_))));

        let healthy = multinode.clone().run(&input).unwrap();
        let degraded = multinode
            .faults(FaultPlan::new(9).degrade_link(Resource::ib(0, 1), 8.0))
            .run(&input)
            .unwrap();
        assert_eq!(degraded.data, healthy.data);
        assert!(
            degraded.report.makespan > healthy.report.makespan,
            "a degraded InfiniBand link must stretch the MPI collectives"
        );
    }
}
