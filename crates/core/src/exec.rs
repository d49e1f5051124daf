//! The stream/event execution runtime: pipelines as graph builders.
//!
//! Every proposal's run is assembled as an [`ExecGraph`] — kernels on
//! per-GPU streams, aux-array exchanges on the links they occupy, MPI
//! collectives and barriers — and the reported makespan is the graph's
//! critical path. A [`PipelinePolicy`] decides how the batch is issued:
//!
//! * **barrier-synchronous** (the default, and the paper's published
//!   model): every phase waits for the previous phase everywhere, which
//!   reduces the schedule to exactly the phase-sum of the old
//!   [`Timeline`] model — bit-for-bit;
//! * **pipelined** ([`PipelinePolicy::pipelined`]): the batch is split
//!   into sub-batches whose only ordering comes from data dependencies
//!   and hardware resources, so the aux exchange of one sub-batch may
//!   overlap Stage-1 compute of the next. This is a capability *beyond*
//!   the paper's model and is off by default (see DESIGN.md §2).

use gpu_sim::{host, DeviceSpec, SimResult};
use interconnect::{
    apply_link_faults, EventKind, ExecGraph, Fabric, FaultEvent, FaultPlan, FaultReport, NodeId,
    NodeMeta, Resource, Timeline,
};
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::fault::abort_and_replan;
use crate::multi_gpu::{
    assemble_into, build_workers, gather_aux, parallel_phase, scatter_offsets, Worker,
};
use crate::params::{ProblemParams, ScanKind};
use crate::plan::ExecutionPlan;
use crate::report::{RunReport, ScanOutput};
use crate::stage1::run_stage1;
use crate::stage2::run_stage2;
use crate::stage3::run_stage3_kind;

/// How a pipeline run issues its batch onto the execution graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinePolicy {
    /// Number of sub-batches the problem batch is split into (clamped to
    /// the largest power of two not exceeding the batch). `1` reproduces
    /// the paper's single-pass pipeline.
    pub batches: usize,
    /// With `false`, consecutive phase instances are barrier-synchronised
    /// (each waits for every node of the previous instance). With `true`,
    /// sub-batches are ordered only by data dependencies and resource
    /// occupancy, letting communication overlap the next sub-batch's
    /// compute.
    pub overlap: bool,
}

impl Default for PipelinePolicy {
    fn default() -> Self {
        PipelinePolicy { batches: 1, overlap: false }
    }
}

impl PipelinePolicy {
    /// Split into `batches` sub-batches with overlap enabled.
    pub fn pipelined(batches: usize) -> Self {
        PipelinePolicy { batches, overlap: true }
    }

    /// Split into `batches` sub-batches but keep full phase barriers — the
    /// apples-to-apples baseline for [`PipelinePolicy::pipelined`] (same
    /// node set, same launches, only the dependency structure differs).
    pub fn batched_barrier(batches: usize) -> Self {
        PipelinePolicy { batches, overlap: false }
    }
}

/// Result of running a pipeline through the graph runtime.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The execution graph that was built.
    pub graph: ExecGraph,
    /// Phase-synchronous view of the graph (per phase instance, the
    /// maximum of its nodes' durations).
    pub timeline: Timeline,
    /// Critical-path makespan from the scheduler. Equals
    /// `timeline.total()` bit-for-bit when the graph is
    /// barrier-synchronous.
    pub makespan: f64,
}

impl PipelineRun {
    /// Schedule `graph` and package the derived views.
    pub fn from_graph(graph: ExecGraph) -> Self {
        let timeline = graph.timeline();
        let makespan = graph.schedule().makespan;
        PipelineRun { graph, timeline, makespan }
    }
}

/// A validated [`crate::ScanRequest`] with its defaults resolved: the one
/// argument every proposal body takes. Sp runs on a single-GPU fabric;
/// every other proposal on the request's fabric. `faults` is the request's
/// fault plan: each body runs the same code with or without one.
pub(crate) struct Launch<'a, O> {
    pub(crate) op: O,
    pub(crate) problem: ProblemParams,
    pub(crate) tuple: SplkTuple,
    pub(crate) kind: ScanKind,
    pub(crate) policy: PipelinePolicy,
    pub(crate) device: &'a DeviceSpec,
    pub(crate) fabric: &'a Fabric,
    pub(crate) faults: Option<&'a FaultPlan>,
}

impl<O> Launch<'_, O> {
    /// [`build_workers`] over `gpu_ids`, with the fault plan's SM throttles
    /// applied (the `gpu-sim` layer then stretches every kernel they run,
    /// so the throttled durations flow into the execution graph).
    pub(crate) fn workers<T: Scannable>(
        &self,
        plan: &ExecutionPlan,
        gpu_ids: &[usize],
        input: &[T],
    ) -> ScanResult<Vec<Worker<T>>> {
        let mut workers = build_workers(self.device, plan, gpu_ids, input)?;
        if let Some(faults) = self.faults {
            for w in &mut workers {
                let factor = faults.throttle_of(w.global_id);
                if factor > 1.0 {
                    w.gpu.set_sm_throttle(factor);
                }
            }
        }
        Ok(workers)
    }

    /// The three-stage pipeline over one GPU group sharing every problem:
    /// Stage 1 in parallel, auxiliary gather to the group root, Stage 2 on
    /// the root ("executing this second kernel on a single GPU has better
    /// performance than splitting it", §4.1), offsets scatter, Stage 3 in
    /// parallel. Writes the scanned batch into `out` (which must hold
    /// `problem.total_elems()` elements) and returns the unscheduled graph
    /// with the fault events the group recorded.
    ///
    /// Each sub-batch contributes five phase instances —
    /// `stage1:chunk-reduce`, `comm:gather-aux`, `stage2:intermediate-scan`,
    /// `comm:scatter-offsets`, `stage3:scan-add` — with kernels on stream
    /// `stream` of each GPU and the exchanges on the links they traverse.
    /// Proposals use stream 0; the serving layer passes each lease's
    /// private stream id (see `gpu_sim::StreamNamespace`) so concurrent
    /// requests sharing a GPU stay distinguishable in the fleet schedule.
    ///
    /// At the first sub-batch at or past a planned eviction (clamped to the
    /// last sub-batch) the group aborts and replans onto its survivors
    /// ([`abort_and_replan`]), which every later sub-batch keeps.
    pub(crate) fn group_pipeline<T: Scannable>(
        &self,
        gpu_ids: &[usize],
        stream: usize,
        problem: ProblemParams,
        input: &[T],
        out: &mut [T],
    ) -> ScanResult<(ExecGraph, Vec<FaultEvent>)>
    where
        O: ScanOp<T>,
    {
        check_input(problem, input)?;
        let batches = effective_batches(self.policy.batches, problem.batch());
        let sub_batch = problem.batch() / batches;
        let sub_problem = ProblemParams::new(problem.n(), sub_batch.trailing_zeros());
        let n = problem.problem_size();
        let evictions = self.faults.map_or(&[][..], FaultPlan::evictions);

        let mut graph = ExecGraph::new();
        let mut events = Vec::new();
        let mut active = gpu_ids.to_vec();
        // In barrier mode, every node of a phase instance depends on all nodes
        // of the previous instance (within and across sub-batches); in overlap
        // mode only the structural deps below remain.
        let mut prev_phase: Vec<NodeId> = Vec::new();
        for b in 0..batches {
            let (lo, hi) = (b * sub_batch * n, (b + 1) * sub_batch * n);
            let mut deps = if self.policy.overlap { Vec::new() } else { prev_phase };
            let victims: Vec<usize> = evictions
                .iter()
                .filter(|e| e.at_sub_batch.min(batches - 1) == b && active.contains(&e.gpu))
                .map(|e| e.gpu)
                .collect();
            let prefix = if victims.is_empty() {
                ""
            } else {
                (active, deps) = abort_and_replan(
                    self,
                    &mut graph,
                    &mut events,
                    &active,
                    &victims,
                    b,
                    stream,
                    sub_problem,
                    &input[lo..hi],
                    deps,
                )?;
                "recovery:"
            };
            prev_phase = self.append_sub_batch(
                &mut graph,
                &active,
                stream,
                sub_problem,
                &input[lo..hi],
                &deps,
                prefix,
                &mut out[lo..hi],
            )?;
        }
        Ok((graph, events))
    }

    /// Run independent GPU groups — each takes an equal, contiguous share
    /// of the batch through [`Launch::group_pipeline`], with no
    /// communication between groups — under one host fan
    /// ([`gpu_sim::host::fan_out`]), so each group's GPUs and blocks run
    /// serially inside it.
    /// Returns the scanned batch, the combined graph and the groups' fault
    /// events in group order.
    ///
    /// A healthy run merges the group subgraphs by phase index (their phase
    /// sequences are identical). Under a fault plan they are appended
    /// instead: a replanned group grows extra `recovery:` phases that
    /// index-matching could not align. Groups share no stream or link, so
    /// the schedule overlaps them fully either way.
    pub(crate) fn run_groups<T: Scannable>(
        &self,
        groups: &[Vec<usize>],
        input: &[T],
    ) -> ScanResult<(Vec<T>, ExecGraph, Vec<FaultEvent>)>
    where
        O: ScanOp<T>,
    {
        let problem = self.problem;
        check_input(problem, input)?;
        let per_group = problem.batch() / groups.len();
        let sub_problem = ProblemParams::new(problem.n(), per_group.trailing_zeros());
        let share = per_group * problem.problem_size();
        let mut data = vec![T::default(); problem.total_elems()];
        let parts = host::fan_out(
            groups.iter().zip(input.chunks(share).zip(data.chunks_mut(share))),
            |(gpus, (group_input, out))| {
                self.group_pipeline(gpus, 0, sub_problem, group_input, out)
            },
        );
        let mut graph = ExecGraph::new();
        let mut events = Vec::new();
        for part in parts {
            let (group_graph, group_events) = part?;
            if self.faults.is_some() {
                graph.append(group_graph);
            } else {
                graph.merge(group_graph);
            }
            events.extend(group_events);
        }
        Ok((data, graph, events))
    }

    /// Package a proposal's run on `gpus`. Under a fault plan, the
    /// [`FaultReport`] records the plan's throttles on `gpus`, then the
    /// run's own `events`, then whatever the plan's link faults do to the
    /// finished graph (see [`apply_link_faults`]), and the label gains
    /// ` [faulted]`.
    pub(crate) fn finish<T>(
        &self,
        label: impl Into<String>,
        gpus: &[usize],
        data: Vec<T>,
        graph: ExecGraph,
        events: Vec<FaultEvent>,
    ) -> ScanResult<ScanOutput<T>> {
        let mut label = label.into();
        let (graph, faults) = match self.faults {
            None => (graph, None),
            Some(plan) => {
                let mut report = FaultReport::new(plan);
                for &(gpu, factor) in plan.throttles() {
                    if gpus.contains(&gpu) {
                        report.push(FaultEvent::GpuThrottled { gpu, factor });
                    }
                }
                report.events.extend(events);
                label.push_str(" [faulted]");
                (apply_link_faults(&graph, plan, &mut report)?, Some(report))
            }
        };
        let run = PipelineRun::from_graph(graph);
        Ok(ScanOutput {
            data,
            report: RunReport::from_run(label, self.problem.total_elems(), run),
            faults,
            trace: None,
        })
    }

    /// Append one sub-batch's five phase instances to `graph` and write its
    /// scanned data into `out`, returning the Stage-3 node ids (the
    /// sub-batch's exit frontier, which barrier-mode callers feed into the
    /// next sub-batch's dependencies).
    ///
    /// `phase_prefix` is prepended to every phase and node label — the
    /// replanner reruns an aborted sub-batch under a `"recovery:"` prefix so
    /// the extra work shows up as its own rows in the Fig. 14-style
    /// breakdown.
    #[allow(clippy::too_many_arguments)]
    fn append_sub_batch<T: Scannable>(
        &self,
        graph: &mut ExecGraph,
        gpu_ids: &[usize],
        stream: usize,
        sub_problem: ProblemParams,
        sub_input: &[T],
        barrier_deps: &[NodeId],
        phase_prefix: &str,
        out: &mut [T],
    ) -> ScanResult<Vec<NodeId>>
    where
        O: ScanOp<T>,
    {
        let Launch { op, tuple, kind, fabric, .. } = *self;
        let plan = ExecutionPlan::new(sub_problem, tuple, gpu_ids.len())?;
        let mut workers = self.workers(&plan, gpu_ids, sub_input)?;
        let stream = |w: &Worker<T>| Resource::Stream { gpu: w.global_id, stream };
        let links = collective_links(fabric, &workers);
        let label = |name: &str| format!("{phase_prefix}{name}");

        // Stage 1: chunk reductions, one kernel per GPU stream. The only
        // cross-batch ordering in overlap mode is each stream's in-order
        // execution. Each kernel node carries the counters its GPU charged
        // during the phase, for the trace exporter's achieved-bandwidth args.
        let t1 = parallel_phase(&mut workers, |w| {
            run_stage1(&mut w.gpu, &plan, op, &w.input, &mut w.aux)
        })
        .into_iter()
        .collect::<SimResult<Vec<_>>>()?;
        let p = graph.phase(label("stage1:chunk-reduce"));
        let s1: Vec<NodeId> = workers
            .iter()
            .zip(&t1)
            .map(|(w, &(secs, counters))| {
                graph.add_with_meta(
                    p,
                    label("stage1:chunk-reduce"),
                    EventKind::Kernel,
                    secs,
                    barrier_deps,
                    &[stream(w)],
                    NodeMeta::kernel(counters),
                )
            })
            .collect();

        // Aux gather: needs every GPU's chunk reductions; occupies the
        // union of links to the root. Both exchanges are also charged to
        // the root's clock: the Stage-2 and the root's Stage-3 seconds are
        // differences of that clock, `(c + s) - c` rounds by where `c`
        // stands, and so dropping these charges moves the pinned schedules.
        let mut root_aux = workers[0].gpu.alloc::<T>(plan.aux_global_len())?;
        let gather = gather_aux(fabric, &workers, &mut root_aux, &plan);
        workers[0].gpu.charge(gather.seconds);
        let p = graph.phase(label("comm:gather-aux"));
        let g_id = graph.add_with_meta(
            p,
            label("comm:gather-aux"),
            EventKind::Transfer,
            gather.seconds,
            &s1,
            &links,
            NodeMeta::transfer(gather.bytes as u64),
        );

        // Stage 2 on the group root's stream.
        let before = workers[0].gpu.elapsed();
        let s2_stats = run_stage2(&mut workers[0].gpu, &plan, op, &mut root_aux)?;
        let p = graph.phase(label("stage2:intermediate-scan"));
        let s2 = graph.add_with_meta(
            p,
            label("stage2:intermediate-scan"),
            EventKind::Kernel,
            workers[0].gpu.elapsed() - before,
            &[g_id],
            &[stream(&workers[0])],
            NodeMeta::kernel(s2_stats.counters),
        );

        // Offsets scatter, back over the same links.
        let scatter = scatter_offsets(fabric, &mut workers, &root_aux, &plan);
        workers[0].gpu.charge(scatter.seconds); // see the gather's charge
        let p = graph.phase(label("comm:scatter-offsets"));
        let sc = graph.add_with_meta(
            p,
            label("comm:scatter-offsets"),
            EventKind::Transfer,
            scatter.seconds,
            &[s2],
            &links,
            NodeMeta::transfer(scatter.bytes as u64),
        );

        // Stage 3: scan + add offsets, one kernel per GPU stream.
        let t3 = parallel_phase(&mut workers, |w| {
            run_stage3_kind(&mut w.gpu, &plan, op, &w.input, &w.offsets, &mut w.output, kind)
        })
        .into_iter()
        .collect::<SimResult<Vec<_>>>()?;
        let p = graph.phase(label("stage3:scan-add"));
        let s3: Vec<NodeId> = workers
            .iter()
            .zip(&t3)
            .map(|(w, &(secs, counters))| {
                graph.add_with_meta(
                    p,
                    label("stage3:scan-add"),
                    EventKind::Kernel,
                    secs,
                    &[sc],
                    &[stream(w)],
                    NodeMeta::kernel(counters),
                )
            })
            .collect();

        assemble_into(&plan, &workers, out);
        Ok(s3)
    }
}

/// Reject an input that does not hold the problem's `G·N` elements.
fn check_input<T>(problem: ProblemParams, input: &[T]) -> ScanResult<()> {
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }
    Ok(())
}

/// Largest power of two ≤ `requested`, clamped to `[1, batch]` (`batch` is
/// itself a power of two, so the result always divides it).
pub(crate) fn effective_batches(requested: usize, batch: usize) -> usize {
    let b = requested.clamp(1, batch);
    let mut p = 1;
    while p * 2 <= b {
        p *= 2;
    }
    p
}

/// The link resources the aux-array exchange occupies: the union of the
/// routes between the group root and every worker.
pub(crate) fn collective_links<T: Scannable>(
    fabric: &Fabric,
    workers: &[Worker<T>],
) -> Vec<Resource> {
    let root = workers[0].global_id;
    let mut links = Vec::new();
    for w in workers {
        for r in fabric.links_between(root, w.global_id) {
            if !links.contains(&r) {
                links.push(r);
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 22695477 + 1) % 139) as i32 - 69).collect()
    }

    /// Run the healthy group pipeline of `Add` over GPUs 0 and 1 of a
    /// one-node TSUBAME-KFC fabric (K80, Kepler premises).
    fn two_gpu_group(
        problem: ProblemParams,
        input: &[i32],
        policy: PipelinePolicy,
        out: &mut [i32],
    ) -> ExecGraph {
        let (device, fabric) = (DeviceSpec::tesla_k80(), Fabric::tsubame_kfc(1));
        let launch = Launch {
            op: Add,
            problem,
            tuple: SplkTuple::kepler_premises(0),
            kind: ScanKind::Inclusive,
            policy,
            device: &device,
            fabric: &fabric,
            faults: None,
        };
        launch.group_pipeline(&[0, 1], 0, problem, input, out).unwrap().0
    }

    #[test]
    fn effective_batches_is_a_dividing_power_of_two() {
        assert_eq!(effective_batches(1, 8), 1);
        assert_eq!(effective_batches(3, 8), 2);
        assert_eq!(effective_batches(4, 8), 4);
        assert_eq!(effective_batches(100, 8), 8);
        assert_eq!(effective_batches(0, 8), 1);
        assert_eq!(effective_batches(4, 1), 1);
    }

    #[test]
    fn pipelined_run_scans_correctly() {
        // Functional correctness is policy-independent: 8 problems in 4
        // sub-batches must scan exactly like one pass.
        let problem = ProblemParams::new(12, 3);
        let input = pseudo(problem.total_elems());
        let mut out = vec![0i32; problem.total_elems()];
        let graph = two_gpu_group(problem, &input, PipelinePolicy::pipelined(4), &mut out);
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
        // 4 sub-batches x 5 phase instances.
        assert_eq!(graph.phase_labels().len(), 20);
        // Overlap must not lose time: the schedule is at most the
        // barrier-synchronous sum, and the phase view preserves it.
        let run = PipelineRun::from_graph(graph);
        assert!(run.makespan <= run.timeline.total());
        assert!(run.makespan > 0.0);
    }

    #[test]
    fn overlap_beats_batched_barrier() {
        let problem = ProblemParams::new(12, 3);
        let input = pseudo(problem.total_elems());
        let run_with = |policy: PipelinePolicy| {
            let mut out = vec![0i32; problem.total_elems()];
            PipelineRun::from_graph(two_gpu_group(problem, &input, policy, &mut out)).makespan
        };
        let barrier = run_with(PipelinePolicy::batched_barrier(4));
        let overlapped = run_with(PipelinePolicy::pipelined(4));
        assert!(
            overlapped < barrier,
            "pipelining must hide communication ({overlapped} vs {barrier})"
        );
    }
}
