//! Multi-node Scan-MPS: problem scattering across nodes with MPI (§4.1).
//!
//! All `M · W` GPUs collaborate on every problem. "One GPU in the system
//! acts as a master process (GPU 0) … After synchronizing all MPI
//! processes, the first stage is executed … these values are collected from
//! all GPUs by the master process with an MPI_Gather instruction. The
//! master process computes the second stage in its memory and returns the
//! resulting values … through an MPI_Scatter instruction. Finally, each GPU
//! executes the third stage."
//!
//! CUDA-aware MPI routes same-network ranks over P2P automatically, which
//! the [`interconnect::MpiComm`] cost model honours.

use gpu_sim::SimResult;
use interconnect::{EventKind, ExecGraph, MpiComm, NodeId, NodeMeta, Resource};
use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::{collective_links, Launch};
use crate::multi_gpu::{
    assemble_output, gather_aux_functional, parallel_phase, scatter_offsets_functional, Worker,
};
use crate::params::NodeConfig;
use crate::plan::ExecutionPlan;
use crate::report::ScanOutput;
use crate::stage1::run_stage1;
use crate::stage2::run_stage2;
use crate::stage3::run_stage3;

/// Batch inclusive scan with Multi-GPU Problem Scattering across `M` nodes.
///
/// Requires `cfg.m() > 1`; a single node runs [`crate::Proposal::Mps`].
/// Of a fault plan, SM throttles and link faults (including InfiniBand
/// degradation and loss) apply; device evictions are rejected — there is
/// no replanning protocol across MPI ranks, so an eviction plan is an
/// invalid configuration rather than a panic.
pub(crate) fn scan_mps_multinode<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    let Launch { op, problem, tuple, fabric, faults, .. } = *launch;
    if faults.is_some_and(|plan| !plan.evictions().is_empty()) {
        return Err(ScanError::InvalidConfig(
            "device eviction is not supported for the multi-node proposal: MPI ranks cannot \
             replan a lost peer's portion; restrict the fault plan to link faults and throttles"
                .into(),
        ));
    }
    if cfg.m() < 2 {
        return Err(ScanError::InvalidConfig(
            "MpsMultinode needs M ≥ 2; use Proposal::Mps on a single node".into(),
        ));
    }
    cfg.validate_against(fabric.topology())?;
    let gpu_ids = cfg.selected_gpus(fabric.topology());
    let comm = MpiComm::new(gpu_ids.clone(), gpu_ids[0]);

    let plan = ExecutionPlan::new(problem, tuple, gpu_ids.len())?;
    let mut workers = launch.workers(&plan, &gpu_ids, input)?;
    let mut graph = ExecGraph::new();
    let elem_bytes = std::mem::size_of::<T>();
    let stream = |w: &Worker<T>| Resource::Stream { gpu: w.global_id, stream: 0 };
    let links = collective_links(fabric, &workers);

    // "After synchronizing all MPI processes, the first stage is executed."
    let barrier = comm.barrier(fabric);
    let p = graph.phase("MPI_Barrier");
    let b0 = graph.add(p, "MPI_Barrier", EventKind::Collective, barrier.seconds, &[], &[]);

    let t1 =
        parallel_phase(&mut workers, |w| run_stage1(&mut w.gpu, &plan, op, &w.input, &mut w.aux))
            .into_iter()
            .collect::<SimResult<Vec<_>>>()?;
    let p = graph.phase("stage1:chunk-reduce");
    let s1: Vec<NodeId> = workers
        .iter()
        .zip(&t1)
        .map(|(w, &(secs, counters))| {
            graph.add_with_meta(
                p,
                "stage1:chunk-reduce",
                EventKind::Kernel,
                secs,
                &[b0],
                &[stream(w)],
                NodeMeta::kernel(counters),
            )
        })
        .collect();

    // MPI_Gather: every rank's local aux (G · Bx¹ elements) to the master.
    let mut root_aux = workers[0].gpu.alloc::<T>(plan.aux_global_len())?;
    gather_aux_functional(&workers, &mut root_aux, &plan);
    let gather = comm.gather(fabric, plan.aux_local_len() * elem_bytes);
    // Charged to the master's clock like the intra-node exchanges: the
    // Stage-2 and the master's Stage-3 seconds are differences of that
    // clock, and a difference rounds by where the clock stands.
    workers[0].gpu.charge(gather.seconds);
    let p = graph.phase("MPI_Gather");
    let g_id = graph.add_with_meta(
        p,
        "MPI_Gather",
        EventKind::Collective,
        gather.seconds,
        &s1,
        &links,
        NodeMeta::transfer(gather.bytes as u64),
    );

    let before = workers[0].gpu.elapsed();
    let s2_stats = run_stage2(&mut workers[0].gpu, &plan, op, &mut root_aux)?;
    let p = graph.phase("stage2:intermediate-scan");
    let s2 = graph.add_with_meta(
        p,
        "stage2:intermediate-scan",
        EventKind::Kernel,
        workers[0].gpu.elapsed() - before,
        &[g_id],
        &[stream(&workers[0])],
        NodeMeta::kernel(s2_stats.counters),
    );

    // MPI_Scatter: each rank's slice of the scanned offsets back.
    scatter_offsets_functional(&mut workers, &root_aux, &plan);
    let scatter = comm.scatter(fabric, plan.aux_local_len() * elem_bytes);
    workers[0].gpu.charge(scatter.seconds);
    let p = graph.phase("MPI_Scatter");
    let sc = graph.add_with_meta(
        p,
        "MPI_Scatter",
        EventKind::Collective,
        scatter.seconds,
        &[s2],
        &links,
        NodeMeta::transfer(scatter.bytes as u64),
    );

    let t3 = parallel_phase(&mut workers, |w| {
        run_stage3(&mut w.gpu, &plan, op, &w.input, &w.offsets, &mut w.output)
    })
    .into_iter()
    .collect::<SimResult<Vec<_>>>()?;
    let p = graph.phase("stage3:scan-add");
    let s3: Vec<NodeId> = workers
        .iter()
        .zip(&t3)
        .map(|(w, &(secs, counters))| {
            graph.add_with_meta(
                p,
                "stage3:scan-add",
                EventKind::Kernel,
                secs,
                &[sc],
                &[stream(w)],
                NodeMeta::kernel(counters),
            )
        })
        .collect();

    // Final synchronisation before the result is collected from the GPUs.
    let barrier = comm.barrier(fabric);
    let p = graph.phase("MPI_Barrier");
    graph.add(p, "MPI_Barrier", EventKind::Collective, barrier.seconds, &s3, &[]);

    let label = format!("Scan-MPS multi-node M={} W={}", cfg.m(), cfg.w());
    launch.finish(label, &gpu_ids, assemble_output(&plan, &workers), graph, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProblemParams, Proposal, ScanRequest};
    use interconnect::Fabric;
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 48271 + 3) % 163) as i32 - 81).collect()
    }

    /// Multi-node Scan-MPS of `Add` over `cfg` on a `nodes`-node
    /// TSUBAME-KFC fabric, with the request defaults otherwise.
    fn multinode(
        nodes: usize,
        cfg: NodeConfig,
        problem: ProblemParams,
        input: &[i32],
    ) -> ScanResult<ScanOutput<i32>> {
        ScanRequest::new(Add, problem)
            .proposal(Proposal::MpsMultinode)
            .devices(cfg)
            .fabric(Fabric::tsubame_kfc(nodes))
            .run(input)
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn m2_w4_scans_correctly() {
        // The paper's best multi-node combination: M=2, W=4.
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let out = multinode(2, NodeConfig::new(4, 4, 1, 2).unwrap(), problem, &input).unwrap();
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("M=2"));
    }

    #[test]
    fn mpi_phases_appear_in_the_timeline() {
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(problem.total_elems());
        let out = multinode(2, NodeConfig::new(2, 2, 1, 2).unwrap(), problem, &input).unwrap();
        let tl = &out.report.timeline;
        assert!(tl.seconds_with_prefix("MPI_Gather") > 0.0);
        assert!(tl.seconds_with_prefix("MPI_Scatter") > 0.0);
        assert!(tl.seconds_with_prefix("MPI_Barrier") > 0.0);
        // Seven phases: 2 barriers, gather, scatter, 3 stages.
        assert_eq!(tl.phases().len(), 7);
    }

    #[test]
    fn m8_w1_pays_more_mpi_than_m2_w4() {
        // §5.2: "the best performance is achieved with M=2, W=4 … whereas
        // M=8, W=1 obtains the worst results" because MPI traffic replaces
        // intra-node P2P.
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let m2w4 = multinode(8, NodeConfig::new(4, 4, 1, 2).unwrap(), problem, &input).unwrap();
        let m8w1 = multinode(8, NodeConfig::new(1, 1, 1, 8).unwrap(), problem, &input).unwrap();
        verify_batch(&m8w1.data, &input, problem);
        let mpi_24 = m2w4.report.timeline.seconds_with_prefix("MPI_Gather")
            + m2w4.report.timeline.seconds_with_prefix("MPI_Scatter");
        let mpi_81 = m8w1.report.timeline.seconds_with_prefix("MPI_Gather")
            + m8w1.report.timeline.seconds_with_prefix("MPI_Scatter");
        assert!(mpi_81 > mpi_24, "more remote ranks, more MPI wire time");
        assert!(m2w4.report.seconds() <= m8w1.report.seconds());
    }

    #[test]
    fn single_node_config_is_rejected() {
        let problem = ProblemParams::new(13, 0);
        let input = pseudo(problem.total_elems());
        assert!(matches!(
            multinode(1, NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input),
            Err(ScanError::InvalidConfig(_))
        ));
    }
}
