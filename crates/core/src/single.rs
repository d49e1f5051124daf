//! Scan-SP: the single-GPU batch scan proposal.
//!
//! One GPU runs the whole three-kernel pipeline over the entire batch in a
//! single library invocation — the configuration the paper compares against
//! the competing libraries in Fig. 11/12 as *Scan Single-GPU Problem*.

use interconnect::{Fabric, Topology};
use skeletons::{ScanOp, Scannable};

use crate::error::ScanResult;
use crate::exec::Launch;
use crate::params::ScanKind;
use crate::report::ScanOutput;

/// The lone-GPU fabric Scan-SP runs on, whatever fabric a request names.
pub(crate) fn single_gpu_fabric() -> Fabric {
    Fabric::new(Topology::single_gpu(), Default::default())
}

/// Batch scan on a single GPU: `input` holds the batch problem-major
/// (`[g][N]`) and the output preserves the layout. The tuple's `K` should
/// come from the premises ([`crate::premises::default_k`]) or the
/// autotuner. A single GPU has no links, so of a fault plan only SM
/// throttles apply — and evicting GPU 0 evicts the last GPU, a
/// [`crate::ScanError::InvalidConfig`].
pub(crate) fn scan_sp<T: Scannable, O: ScanOp<T>>(
    launch: &Launch<'_, O>,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    let mut data = vec![T::default(); launch.problem.total_elems()];
    let (graph, events) = launch.group_pipeline(&[0], 0, launch.problem, input, &mut data)?;
    let label = match launch.kind {
        ScanKind::Inclusive => "Scan-SP",
        ScanKind::Exclusive => "Scan-SP (exclusive)",
    };
    launch.finish(label, &[0], data, graph, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProblemParams, ScanRequest};
    use skeletons::{reference_inclusive, Add, Max, Min, Mul, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 1103515245 + 12345) % 211) as i32 - 105).collect()
    }

    /// Scan-SP on the default K80 with the Kepler premise tuple at `k`.
    fn sp<T: Scannable, O: ScanOp<T>>(
        op: O,
        k: u32,
        problem: ProblemParams,
        input: &[T],
    ) -> ScanResult<ScanOutput<T>> {
        ScanRequest::new(op, problem).tuple(SplkTuple::kepler_premises(k)).run(input)
    }

    #[test]
    fn batch_scan_matches_reference() {
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let out = sp(Add, 1, problem, &input).unwrap();
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out.data[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
        assert_eq!(out.report.label, "Scan-SP");
        assert_eq!(out.report.elements, problem.total_elems());
        assert!(out.report.seconds() > 0.0);
        assert!(out.report.throughput() > 0.0);
    }

    #[test]
    fn single_problem_large_n() {
        let problem = ProblemParams::single(16);
        let input = pseudo(1 << 16);
        let out = sp(Add, 2, problem, &input).unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn all_operators_work_end_to_end() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let n = problem.problem_size();

        let out = sp(Max, 0, problem, &input).unwrap();
        for g in 0..2 {
            assert_eq!(
                &out.data[g * n..(g + 1) * n],
                &reference_inclusive(Max, &input[g * n..(g + 1) * n])[..]
            );
        }
        let out = sp(Min, 0, problem, &input).unwrap();
        for g in 0..2 {
            assert_eq!(
                &out.data[g * n..(g + 1) * n],
                &reference_inclusive(Min, &input[g * n..(g + 1) * n])[..]
            );
        }
        let ones = vec![1i32; problem.total_elems()];
        let out = sp(Mul, 0, problem, &ones).unwrap();
        assert!(out.data.iter().all(|&v| v == 1));
    }

    #[test]
    fn works_with_i64_elements() {
        let problem = ProblemParams::new(12, 1);
        let input: Vec<i64> = pseudo(problem.total_elems()).iter().map(|&v| v as i64).collect();
        let out = sp(Add, 0, problem, &input).unwrap();
        let n = problem.problem_size();
        for g in 0..2 {
            assert_eq!(
                &out.data[g * n..(g + 1) * n],
                &reference_inclusive(Add, &input[g * n..(g + 1) * n])[..]
            );
        }
    }

    #[test]
    fn deep_cascade_and_shallow_cascade_agree() {
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(problem.total_elems());
        let shallow = sp(Add, 0, problem, &input).unwrap();
        let deep = sp(Add, 3, problem, &input).unwrap();
        assert_eq!(shallow.data, deep.data, "K must not change results");
    }

    #[test]
    fn larger_k_reduces_aux_traffic() {
        // Premise 3's trade-off is visible in the phase times: larger K,
        // fewer chunks, cheaper stage 2.
        let problem = ProblemParams::new(18, 0);
        let input = pseudo(problem.total_elems());
        let t_small = sp(Add, 0, problem, &input).unwrap();
        let t_large = sp(Add, 4, problem, &input).unwrap();
        let s2_small = t_small.report.timeline.seconds_with_prefix("stage2");
        let s2_large = t_large.report.timeline.seconds_with_prefix("stage2");
        assert!(s2_large < s2_small, "K=16 must shrink stage 2 vs K=1 ({s2_large} vs {s2_small})");
    }

    #[test]
    fn problem_smaller_than_iteration_is_rejected() {
        let problem = ProblemParams::new(9, 0); // 512 < 1024
        let input = pseudo(512);
        assert!(sp(Add, 0, problem, &input).is_err());
    }
}
