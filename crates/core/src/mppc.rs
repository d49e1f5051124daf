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

use skeletons::{ScanOp, Scannable};

use crate::error::ScanResult;
use crate::exec::Launch;
use crate::params::NodeConfig;
use crate::report::ScanOutput;

/// Batch scan with the Prioritized Communications approach.
///
/// Uses `M · Y` independent network groups of `V` GPUs each; groups run
/// concurrently with no inter-group communication, each applying the
/// launch's [`crate::PipelinePolicy`] (see [`Launch::run_groups`]). Under a
/// fault plan, an eviction replans only the group that lost the device.
pub(crate) fn scan_mppc<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    let topology = launch.fabric.topology();
    cfg.validate_against(topology)?;
    // One group per used PCIe network, assigned round-robin over
    // (node, network); reduce the group count when the batch is smaller
    // (all quantities are powers of two).
    let groups: Vec<Vec<usize>> = (0..(cfg.m() * cfg.y()).min(launch.problem.batch()))
        .map(|group| {
            let (node, network) = (group / cfg.y(), group % cfg.y());
            (0..cfg.v()).map(|slot| topology.gpu_at(node, network, slot)).collect()
        })
        .collect();
    let (data, graph, events) = launch.run_groups(&groups, input)?;
    let plural = if groups.len() == 1 { "group" } else { "groups" };
    let label = format!(
        "Scan-MP-PC W={} V={} Y={} M={} ({} {plural})",
        cfg.w(),
        cfg.v(),
        cfg.y(),
        cfg.m(),
        groups.len()
    );
    launch.finish(label, &cfg.selected_gpus(topology), data, graph, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProblemParams, Proposal, ScanRequest};
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
