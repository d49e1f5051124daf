//! Fault-injected scan runs with degraded-mode replanning.
//!
//! A [`crate::ScanRequest`] given a plan through
//! [`crate::ScanRequest::faults`] runs its proposal's fault-injected twin —
//! Sp, Mps, Mppc and MpsMultinode each have one — under that seeded
//! [`FaultPlan`]:
//!
//! * **SM throttles** slow the affected GPU's kernels (applied by the
//!   `gpu-sim` layer, so the throttled durations flow into the execution
//!   graph automatically);
//! * **link faults** (degradation, transient failures with retry/backoff,
//!   permanent loss) re-price the finished graph's transfers through
//!   [`interconnect::apply_link_faults`];
//! * **device evictions** trigger **degraded-mode replanning**: the doomed
//!   sub-batch is aborted (the victim's launch fails with `DeviceLost`,
//!   survivors' Stage-1 work is wasted), the planner re-derives the Eq. 2/3
//!   portions over the surviving GPUs, and the sub-batch is rerun under
//!   `recovery:`-prefixed phases so the extra work appears as its own rows
//!   in the Fig. 14-style breakdown. Later sub-batches stay on the
//!   survivors — the device is gone for good.
//!
//! Faults change *timing and scheduling only, never data*: every faulted
//! run's output is bit-identical to the fault-free scan (the differential
//! harness in `tests/fault_differential.rs` asserts this across a matrix of
//! seeds, plans and proposals). A [`FaultReport`] records what was
//! injected, what retried and what was replanned.

use gpu_sim::{EventKind, SimError};
use interconnect::{
    apply_link_faults, ExecGraph, FaultEvent, FaultPlan, FaultReport, NodeId, Resource,
};
use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::{append_sub_batch, effective_batches, Launch, PipelineRun};
use crate::multi_gpu::{build_workers, parallel_phase_results};
use crate::multinode::build_multinode_graph;
use crate::params::{NodeConfig, ProblemParams};
use crate::plan::ExecutionPlan;
use crate::report::{RunReport, ScanOutput};
use crate::stage1::run_stage1;

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

/// Record one `GpuThrottled` event per plan entry that names a GPU this
/// run actually uses.
fn record_throttles(plan: &FaultPlan, gpu_ids: &[usize], report: &mut FaultReport) {
    for &(gpu, factor) in plan.throttles() {
        if gpu_ids.contains(&gpu) {
            report.push(FaultEvent::GpuThrottled { gpu, factor });
        }
    }
}

/// Apply the plan's link faults to the finished graph and package the
/// run's outputs.
fn finish<T>(
    label: String,
    elements: usize,
    data: Vec<T>,
    graph: ExecGraph,
    plan: &FaultPlan,
    mut faults: FaultReport,
) -> ScanResult<ScanOutput<T>> {
    let graph = apply_link_faults(&graph, plan, &mut faults)?;
    let run = PipelineRun::from_graph(graph);
    Ok(ScanOutput {
        data,
        report: RunReport::from_run(label, elements, run),
        faults: Some(faults),
        trace: None,
    })
}

/// Run one GPU group's pipeline under the fault plan, appending into a
/// shared graph (groups of an MP-PC run call this once each and overlap on
/// their disjoint streams).
///
/// Handles evictions: at the first sub-batch at or past an eviction's
/// `at_sub_batch` (clamped to the last sub-batch) the doomed attempt is
/// aborted, the distribution is replanned over the largest power-of-two
/// subset of the survivors, and the sub-batch reruns under `recovery:`
/// phases. Evicting the group's last GPU is a planning error, not a panic.
#[allow(clippy::too_many_arguments)]
fn faulted_group_pipeline<T: Scannable, O: ScanOp<T>>(
    graph: &mut ExecGraph,
    launch: &Launch<'_, O>,
    gpu_ids: &[usize],
    problem: ProblemParams,
    input: &[T],
    fault_plan: &FaultPlan,
    report: &mut FaultReport,
    out: &mut [T],
) -> ScanResult<()> {
    let Launch { op, tuple, kind, policy, device, fabric, .. } = *launch;
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }
    let batches = effective_batches(policy.batches, problem.batch());
    let sub_batch = problem.batch() / batches;
    let sub_problem = ProblemParams::new(problem.n(), sub_batch.trailing_zeros());
    let n = problem.problem_size();

    let mut active: Vec<usize> = gpu_ids.to_vec();
    let mut prev_phase: Vec<NodeId> = Vec::new();

    for b in 0..batches {
        let lo = b * sub_batch * n;
        let hi = lo + sub_batch * n;
        let barrier_deps = if policy.overlap { Vec::new() } else { prev_phase.clone() };

        // Evictions scheduled for this sub-batch, restricted to GPUs this
        // group still runs on (an eviction past the end of the batch fires
        // at the last sub-batch rather than silently never).
        let victims: Vec<usize> = fault_plan
            .evictions()
            .iter()
            .filter(|e| e.at_sub_batch.min(batches - 1) == b && active.contains(&e.gpu))
            .map(|e| e.gpu)
            .collect();

        if victims.is_empty() {
            prev_phase = append_sub_batch(
                graph,
                op,
                tuple,
                device,
                fabric,
                &active,
                0,
                sub_problem,
                &input[lo..hi],
                kind,
                &barrier_deps,
                "",
                Some(fault_plan),
                &mut out[lo..hi],
            )?;
            continue;
        }
        for &gpu in &victims {
            report.push(FaultEvent::GpuEvicted { gpu, at_sub_batch: b });
        }

        // --- Abort: the sub-batch starts on the full distribution. The
        // victims' Stage-1 launches fail with DeviceLost; the survivors
        // finish their chunk reductions, but those results cover the wrong
        // portions now and are thrown away — their time still lands on the
        // schedule as wasted `recovery:` work.
        let plan = ExecutionPlan::new(sub_problem, tuple, active.len())?;
        let mut workers = build_workers(device, &plan, &active, &input[lo..hi])?;
        for w in &mut workers {
            let factor = fault_plan.throttle_of(w.global_id);
            if factor > 1.0 {
                w.gpu.set_sm_throttle(factor);
            }
            if victims.contains(&w.global_id) {
                w.gpu.evict();
            }
        }
        let results = parallel_phase_results(&mut workers, |w| {
            run_stage1(&mut w.gpu, &plan, op, &w.input, &mut w.aux)
        });
        let p = graph.phase("recovery:aborted-stage1");
        let mut abort_nodes: Vec<NodeId> = Vec::new();
        for (w, res) in workers.iter().zip(results) {
            match res {
                Ok(secs) => abort_nodes.push(graph.add(
                    p,
                    "recovery:aborted-stage1",
                    EventKind::Kernel,
                    secs,
                    &barrier_deps,
                    &[Resource::Stream { gpu: w.global_id, stream: 0 }],
                )),
                Err(SimError::DeviceLost { .. }) if victims.contains(&w.global_id) => {}
                Err(e) => return Err(e.into()),
            }
        }

        // --- Replan: re-derive the Eq. 2/3 portions over the largest
        // power-of-two subset of the survivors and rerun the sub-batch.
        let survivors: Vec<usize> =
            active.iter().copied().filter(|g| !victims.contains(g)).collect();
        if survivors.is_empty() {
            return Err(ScanError::InvalidConfig(format!(
                "cannot replan sub-batch {b}: evicting GPU(s) {victims:?} removes the last GPU \
                 of the group, leaving no survivors to redistribute the portions over"
            )));
        }
        let survivors = survivors[..largest_pow2(survivors.len())].to_vec();
        report.push(FaultEvent::Replanned {
            from_gpus: active.clone(),
            to_gpus: survivors.clone(),
            sub_batch: b,
        });
        let recovery_deps = if abort_nodes.is_empty() { barrier_deps } else { abort_nodes };
        prev_phase = append_sub_batch(
            graph,
            op,
            tuple,
            device,
            fabric,
            &survivors,
            0,
            sub_problem,
            &input[lo..hi],
            kind,
            &recovery_deps,
            "recovery:",
            Some(fault_plan),
            &mut out[lo..hi],
        )?;
        active = survivors;
    }
    Ok(())
}

/// Fault-injected Scan-SP: the single-GPU batch pipeline under a
/// [`FaultPlan`].
///
/// A single GPU has no links, so only SM throttles apply — and evicting
/// GPU 0 is always "evicting the last GPU", surfaced as
/// [`ScanError::InvalidConfig`].
pub(crate) fn scan_sp_faulted<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    input: &[T],
    fault_plan: &FaultPlan,
) -> ScanResult<ScanOutput<T>> {
    let problem = launch.problem;
    let mut faults = FaultReport::new(fault_plan);
    record_throttles(fault_plan, &[0], &mut faults);
    let mut data = vec![T::default(); problem.total_elems()];
    let mut graph = ExecGraph::new();
    faulted_group_pipeline(
        &mut graph,
        launch,
        &[0],
        problem,
        input,
        fault_plan,
        &mut faults,
        &mut data,
    )?;
    finish("Scan-SP [faulted]".into(), problem.total_elems(), data, graph, fault_plan, faults)
}

/// Fault-injected Scan-MPS (single node) with degraded-mode replanning.
///
/// The launch's policy controls the sub-batch split exactly as in the
/// healthy proposal; an eviction aborts the sub-batch it lands on and
/// replans the remaining work over the survivors.
pub(crate) fn scan_mps_faulted<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
    fault_plan: &FaultPlan,
) -> ScanResult<ScanOutput<T>> {
    if cfg.m() != 1 {
        return Err(ScanError::InvalidConfig(
            "faulted Mps is the single-node proposal; use Proposal::MpsMultinode for M > 1".into(),
        ));
    }
    let (topology, problem) = (launch.fabric.topology(), launch.problem);
    cfg.validate_against(topology)?;
    let gpu_ids = cfg.selected_gpus(topology);
    let mut faults = FaultReport::new(fault_plan);
    record_throttles(fault_plan, &gpu_ids, &mut faults);
    let mut data = vec![T::default(); problem.total_elems()];
    let mut graph = ExecGraph::new();
    faulted_group_pipeline(
        &mut graph,
        launch,
        &gpu_ids,
        problem,
        input,
        fault_plan,
        &mut faults,
        &mut data,
    )?;
    finish(
        format!("Scan-MPS W={} V={} Y={} [faulted]", cfg.w(), cfg.v(), cfg.y()),
        problem.total_elems(),
        data,
        graph,
        fault_plan,
        faults,
    )
}

/// Fault-injected Scan-MP-PC: each network group runs under the plan, and
/// an eviction replans only the group that lost the device.
///
/// Unlike the healthy proposal, the group subgraphs are appended
/// sequentially into one shared graph instead of being merged by phase
/// index — a replanned group grows extra `recovery:` phases that
/// index-matching could not align. Groups still share no stream or link,
/// so the schedule overlaps them fully either way.
pub(crate) fn scan_mppc_faulted<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
    fault_plan: &FaultPlan,
) -> ScanResult<ScanOutput<T>> {
    let (topology, problem) = (launch.fabric.topology(), launch.problem);
    cfg.validate_against(topology)?;
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }
    let groups_available = cfg.m() * cfg.y();
    let groups = groups_available.min(problem.batch());
    let problems_per_group = problem.batch() / groups;
    let group_problem = ProblemParams::new(problem.n(), problems_per_group.trailing_zeros());
    let n = problem.problem_size();

    let mut faults = FaultReport::new(fault_plan);
    record_throttles(fault_plan, &cfg.selected_gpus(topology), &mut faults);
    let mut data = vec![T::default(); problem.total_elems()];
    let mut graph = ExecGraph::new();
    for (group, out_chunk) in data.chunks_mut(problems_per_group * n).enumerate() {
        let node = group / cfg.y();
        let network = group % cfg.y();
        let gpu_ids: Vec<usize> =
            (0..cfg.v()).map(|slot| topology.gpu_at(node, network, slot)).collect();
        let start = group * problems_per_group * n;
        faulted_group_pipeline(
            &mut graph,
            launch,
            &gpu_ids,
            group_problem,
            &input[start..start + problems_per_group * n],
            fault_plan,
            &mut faults,
            out_chunk,
        )?;
    }

    let plural = if groups == 1 { "group" } else { "groups" };
    finish(
        format!(
            "Scan-MP-PC W={} V={} Y={} M={} ({groups} {plural}) [faulted]",
            cfg.w(),
            cfg.v(),
            cfg.y(),
            cfg.m()
        ),
        problem.total_elems(),
        data,
        graph,
        fault_plan,
        faults,
    )
}

/// Fault-injected multi-node Scan-MPS: SM throttles and link faults
/// (including InfiniBand degradation and loss) apply; device evictions are
/// rejected — there is no replanning protocol across MPI ranks, so an
/// eviction plan is an invalid configuration rather than a panic.
pub(crate) fn scan_mps_multinode_faulted<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
    fault_plan: &FaultPlan,
) -> ScanResult<ScanOutput<T>> {
    if !fault_plan.evictions().is_empty() {
        return Err(ScanError::InvalidConfig(
            "device eviction is not supported for the multi-node proposal: MPI ranks cannot \
             replan a lost peer's portion; restrict the fault plan to link faults and throttles"
                .into(),
        ));
    }
    let mut faults = FaultReport::new(fault_plan);
    record_throttles(fault_plan, &cfg.selected_gpus(launch.fabric.topology()), &mut faults);
    let (data, graph) = build_multinode_graph(launch, cfg, input, Some(fault_plan))?;
    finish(
        format!("Scan-MPS multi-node M={} W={} [faulted]", cfg.m(), cfg.w()),
        launch.problem.total_elems(),
        data,
        graph,
        fault_plan,
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelinePolicy, Proposal, ScanRequest};
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
    fn empty_plan_matches_healthy_mps_bit_for_bit() {
        let problem = ProblemParams::new(13, 2);
        let input = pseudo(problem.total_elems());
        let mps = request(Proposal::Mps, NodeConfig::new(2, 2, 1, 1).unwrap(), problem);
        let healthy = mps.run(&input).unwrap();
        let faulted = mps.faults(FaultPlan::none()).run(&input).unwrap();
        assert_eq!(faulted.data, healthy.data);
        assert_eq!(
            faulted.report.makespan.to_bits(),
            healthy.report.makespan.to_bits(),
            "an empty plan must reduce to the healthy schedule exactly"
        );
        assert!(faulted.faults.expect("faulted runs carry a report").events.is_empty());
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
