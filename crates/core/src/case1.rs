//! Case 1: independent problems per GPU (§4).
//!
//! "Each problem can be perfectly stored in a single GPU memory but using
//! each GPU to compute independently several problems may improve
//! performance. … Solving the Case 1 is trivial, simply executing the
//! strategy analyzed in Section 3 through several GPUs, since there is no
//! communication among GPUs."
//!
//! The batch is split across all `M · W` selected GPUs; each runs the
//! full single-GPU pipeline on its share, with no communication at all.

use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::Launch;
use crate::params::NodeConfig;
use crate::report::ScanOutput;

/// Batch scan with one-problem-set-per-GPU distribution: every GPU is its
/// own group in [`Launch::run_groups`].
///
/// Requires `G ≥ total GPUs` (each GPU gets at least one whole problem).
pub(crate) fn scan_case1<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    if launch.faults.is_some() {
        return Err(ScanError::InvalidConfig(
            "Case1 takes no fault plan: its GPUs share no link to fault and no peers to replan \
             onto"
                .into(),
        ));
    }
    let topology = launch.fabric.topology();
    cfg.validate_against(topology)?;
    let gpus = cfg.selected_gpus(topology);
    if launch.problem.batch() < gpus.len() {
        return Err(ScanError::InvalidConfig(format!(
            "Case 1 needs at least one problem per GPU: G = {} < {} GPUs",
            launch.problem.batch(),
            gpus.len()
        )));
    }
    let groups: Vec<Vec<usize>> = gpus.iter().map(|&gpu| vec![gpu]).collect();
    let (data, graph, events) = launch.run_groups(&groups, input)?;
    launch.finish(format!("Scan-Case1 {} GPUs", gpus.len()), &gpus, data, graph, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_batch;
    use crate::{ProblemParams, Proposal, ScanRequest};
    use skeletons::{Add, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 131 + 17) % 191) as i32 - 95).collect()
    }

    /// Case 1 of `Add` over `cfg` with the request defaults at tuple `k`.
    fn case1(
        k: u32,
        cfg: NodeConfig,
        problem: ProblemParams,
        input: &[i32],
    ) -> ScanResult<ScanOutput<i32>> {
        ScanRequest::new(Add, problem)
            .proposal(Proposal::Case1)
            .devices(cfg)
            .tuple(SplkTuple::kepler_premises(k))
            .run(input)
    }

    #[test]
    fn independent_problems_scan_correctly() {
        let problem = ProblemParams::new(12, 3); // 8 problems over 4 GPUs
        let input = pseudo(problem.total_elems());
        let out = case1(0, NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input).unwrap();
        verify_batch(Add, problem, &input, &out.data).unwrap();
        assert!(out.report.label.contains("4 GPUs"));
    }

    #[test]
    fn no_communication_phases() {
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let out = case1(0, NodeConfig::new(2, 2, 1, 1).unwrap(), problem, &input).unwrap();
        assert_eq!(out.report.timeline.seconds_with_prefix("comm:"), 0.0);
        assert_eq!(out.report.timeline.seconds_with_prefix("MPI"), 0.0);
    }

    #[test]
    fn too_few_problems_rejected() {
        let problem = ProblemParams::new(12, 1); // 2 problems, 4 GPUs
        let input = pseudo(problem.total_elems());
        assert!(matches!(
            case1(0, NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input),
            Err(ScanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn scales_throughput_with_gpus() {
        // Large enough that memory time, not launch overhead, dominates.
        let problem = ProblemParams::new(16, 6);
        let input = pseudo(problem.total_elems());
        let one = case1(1, NodeConfig::single_gpu(), problem, &input).unwrap();
        let four = case1(1, NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input).unwrap();
        assert!(
            four.report.seconds() < one.report.seconds() / 2.0,
            "4 independent GPUs must be much faster ({} vs {})",
            four.report.seconds(),
            one.report.seconds()
        );
    }
}
