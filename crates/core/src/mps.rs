//! Scan-MPS: Multi-GPU Problem Scattering (§4.1, Fig. 6/7).
//!
//! Every problem is split across all `W` participating GPUs of one node;
//! each GPU computes Stage 1 on its `N/W`-element portions, the chunk
//! reductions are gathered on GPU 0, which runs Stage 2 for all problems,
//! and the scanned offsets are scattered back for Stage 3.
//!
//! This proposal handles Case 2 — problems too large for one GPU's memory —
//! and "is bounded by GPU-communication bandwidth in most cases". The
//! choice of `W` vs. `Y` decides whether the aux exchange rides P2P or host
//! staging, which is the entire story of Fig. 9.

use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::Launch;
use crate::params::NodeConfig;
use crate::report::ScanOutput;

/// Batch scan with the Multi-GPU Problem Scattering approach on a single
/// node: `cfg` selects the GPUs (`W = Y · V` on node 0; `M` must be 1 —
/// [`crate::Proposal::MpsMultinode`] covers several nodes), and all `W`
/// GPUs collaborate on every problem.
///
/// A pipelined policy splits the batch into sub-batches and lets the
/// auxiliary-array exchange of one sub-batch overlap Stage-1 compute of the
/// next; the default barrier-synchronous policy reproduces the paper's
/// model exactly. Under a fault plan, an eviction aborts the sub-batch it
/// lands on and replans the remaining work over the survivors.
pub(crate) fn scan_mps<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    cfg: NodeConfig,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    if cfg.m() != 1 {
        return Err(ScanError::InvalidConfig(
            "Mps is the single-node proposal; use Proposal::MpsMultinode for M > 1".into(),
        ));
    }
    let topology = launch.fabric.topology();
    cfg.validate_against(topology)?;
    let gpus = cfg.selected_gpus(topology);
    let mut data = vec![T::default(); launch.problem.total_elems()];
    let (graph, events) = launch.group_pipeline(&gpus, 0, launch.problem, input, &mut data)?;
    let label = format!("Scan-MPS W={} V={} Y={}", cfg.w(), cfg.v(), cfg.y());
    launch.finish(label, &gpus, data, graph, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProblemParams, Proposal, ScanRequest};
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 37 + 11) % 251) as i32 - 125).collect()
    }

    /// Scan-MPS of `Add` with the request defaults (K80, Kepler premises).
    fn mps(cfg: NodeConfig, problem: ProblemParams, input: &[i32]) -> ScanResult<ScanOutput<i32>> {
        ScanRequest::new(Add, problem).proposal(Proposal::Mps).devices(cfg).run(input)
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn w2_same_network() {
        let problem = ProblemParams::new(13, 2);
        let input = pseudo(problem.total_elems());
        let out = mps(NodeConfig::new(2, 2, 1, 1).unwrap(), problem, &input).unwrap();
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("W=2"));
    }

    #[test]
    fn w8_crosses_networks_and_still_scans_correctly() {
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(problem.total_elems());
        let out = mps(NodeConfig::new(8, 4, 2, 1).unwrap(), problem, &input).unwrap();
        verify_batch(&out.data, &input, problem);
    }

    #[test]
    fn w8_pays_host_staging_w4_does_not() {
        // The Fig. 9 mechanism: at the same problem shape, W=8 (two PCIe
        // networks) must spend far more on the aux exchange than W=4.
        let problem = ProblemParams::new(13, 5); // many problems -> many segments
        let input = pseudo(problem.total_elems());
        let w4 = mps(NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input).unwrap();
        let w8 = mps(NodeConfig::new(8, 4, 2, 1).unwrap(), problem, &input).unwrap();
        verify_batch(&w8.data, &input, problem);
        let comm4 = w4.report.timeline.seconds_with_prefix("comm:");
        let comm8 = w8.report.timeline.seconds_with_prefix("comm:");
        assert!(comm8 > 3.0 * comm4, "W=8 host staging must dominate ({comm8} vs {comm4})");
    }

    #[test]
    fn multinode_config_is_rejected() {
        let problem = ProblemParams::new(13, 0);
        let input = pseudo(problem.total_elems());
        let err = mps(NodeConfig::new(4, 4, 1, 2).unwrap(), problem, &input).unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
    }

    #[test]
    fn oversized_w_for_problem_is_rejected() {
        // N = 2^12 over 8 GPUs: portions of 512 < one iteration.
        let problem = ProblemParams::new(12, 0);
        let input = pseudo(problem.total_elems());
        assert!(mps(NodeConfig::new(8, 4, 2, 1).unwrap(), problem, &input).is_err());
    }
}
