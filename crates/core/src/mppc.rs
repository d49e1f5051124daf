//! Scan-MP-PC: Multi-GPU Problem with Prioritized Communications
//! (§4.1.1, Fig. 8).
//!
//! A sub-case of Scan-MPS that never leaves a PCIe network: the `Y`
//! networks of each node (across `M` nodes) each take `G / (M · Y)`
//! problems and solve them with their `V` GPUs, so every aux exchange is
//! P2P. "Communication is only performed among the V GPUs of the same
//! PCI-e network, whereas other PCI-e GPUs work on their problems."
//!
//! The multi-node variant "runs the same code … being executed through
//! several computing nodes. There is no MPI communication in this
//! proposal."
//!
//! When the batch has fewer problems than there are network groups, "the
//! number of PCI-e \[networks\] being used has to be reduced".

use interconnect::ExecGraph;
use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::{Launch, PipelineRun};
use crate::params::{NodeConfig, ProblemParams};
use crate::report::{RunReport, ScanOutput};

/// Batch scan with the Prioritized Communications approach.
///
/// Uses `M · Y` independent network groups of `V` GPUs each; groups run
/// concurrently with no inter-group communication, each applying the
/// launch's [`crate::PipelinePolicy`]. Each group builds its own execution
/// subgraph on a scoped host thread; the subgraphs are merged into one
/// graph whose schedule gives the run's makespan (groups never share a
/// stream or link, so they overlap fully).
pub(crate) fn scan_mppc<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    let (fabric, problem) = (launch.fabric, launch.problem);
    cfg.validate_against(fabric.topology())?;
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }

    // One group per used PCIe network, across all nodes; reduce the group
    // count when the batch is smaller (all quantities are powers of two).
    let groups_available = cfg.m() * cfg.y();
    let groups = groups_available.min(problem.batch());
    let problems_per_group = problem.batch() / groups;
    let sub_problem = ProblemParams::new(problem.n(), problems_per_group.trailing_zeros());
    let n = problem.problem_size();

    let mut data = vec![T::default(); problem.total_elems()];

    // Groups are independent — run each builder on its own scoped host
    // thread, writing directly into its disjoint slice of the output.
    let group_graphs: Vec<ScanResult<ExecGraph>> = std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks_mut(problems_per_group * n)
            .enumerate()
            .map(|(group, out_chunk)| {
                // Groups are assigned round-robin over (node, network).
                let node = group / cfg.y();
                let network = group % cfg.y();
                let gpu_ids: Vec<usize> = (0..cfg.v())
                    .map(|slot| fabric.topology().gpu_at(node, network, slot))
                    .collect();
                let start = group * problems_per_group * n;
                let group_input = &input[start..start + problems_per_group * n];
                scope.spawn(move || {
                    launch.build_graph(&gpu_ids, sub_problem, group_input, out_chunk)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("group thread panicked")).collect()
    });

    let mut merged: Option<ExecGraph> = None;
    for graph in group_graphs {
        let graph = graph?;
        match merged.as_mut() {
            None => merged = Some(graph),
            Some(g) => {
                g.merge(graph);
            }
        }
    }
    let graph = merged.expect("at least one group");

    let plural = if groups == 1 { "group" } else { "groups" };
    Ok(ScanOutput::new(
        data,
        RunReport::from_run(
            format!(
                "Scan-MP-PC W={} V={} Y={} M={} ({groups} {plural})",
                cfg.w(),
                cfg.v(),
                cfg.y(),
                cfg.m()
            ),
            problem.total_elems(),
            PipelineRun::from_graph(graph),
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Proposal, ScanRequest};
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 65497 + 7) % 173) as i32 - 86).collect()
    }

    /// `proposal` over `cfg` with the request defaults (K80, Kepler
    /// premises, TSUBAME-KFC fabric).
    fn run(
        proposal: Proposal,
        cfg: NodeConfig,
        problem: ProblemParams,
        input: &[i32],
    ) -> ScanOutput<i32> {
        ScanRequest::new(Add, problem).proposal(proposal).devices(cfg).run(input).unwrap()
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn w4_v2_two_groups() {
        // The paper's first MP-PC test: W=4, V=2 (two networks of two).
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let out = run(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("2 groups"));
    }

    #[test]
    fn w8_v4_two_groups() {
        // The paper's second MP-PC test: W=8, V=4.
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let out = run(Proposal::Mppc, NodeConfig::new(8, 4, 2, 1).unwrap(), problem, &input);
        verify_batch(&out.data, &input, problem);
    }

    #[test]
    fn mppc_avoids_host_staging_entirely() {
        // For the same W=8, MP-PC's comm must be far cheaper than MPS's,
        // because no transfer leaves a PCIe network (the Fig. 10 vs Fig. 9
        // story).
        let problem = ProblemParams::new(13, 5);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
        let mppc = run(Proposal::Mppc, cfg, problem, &input);
        let mps = run(Proposal::Mps, cfg, problem, &input);
        let comm_mppc = mppc.report.timeline.seconds_with_prefix("comm:");
        let comm_mps = mps.report.timeline.seconds_with_prefix("comm:");
        assert!(
            comm_mps > 5.0 * comm_mppc,
            "MP-PC must avoid the host-staged exchange ({comm_mps} vs {comm_mppc})"
        );
        assert!(mppc.report.seconds() < mps.report.seconds());
    }

    #[test]
    fn group_count_reduced_when_batch_is_small() {
        // G = 1 problem with 2 networks available: only one group runs
        // ("the Scan-MP-PC proposal is executed on a V=1 PCI-e network",
        // i.e. it degenerates to MPS on one network).
        let problem = ProblemParams::new(14, 0);
        let input = pseudo(problem.total_elems());
        let out = run(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("(1 group)"), "label: {}", out.report.label);
        assert!(!out.report.label.contains("(1 groups)"), "label: {}", out.report.label);
    }

    #[test]
    fn multinode_mppc_runs_without_mpi() {
        // M = 2: four groups across two nodes, still no MPI phases.
        let problem = ProblemParams::new(13, 4);
        let input = pseudo(problem.total_elems());
        let out = run(Proposal::Mppc, NodeConfig::new(4, 2, 2, 2).unwrap(), problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("4 groups"));
        assert_eq!(
            out.report.timeline.seconds_with_prefix("MPI"),
            0.0,
            "there is no MPI communication in this proposal (§4.1.1)"
        );
    }
}
