//! Batch reduction — the premises applied to a second primitive.
//!
//! §3.2 closes with "these premises are focused on this operation, but they
//! can be easily extended to other algorithms". This module demonstrates
//! it: a batched reduction built from the same substrate — Stage 1's
//! chunk-reduce kernel and a Stage-2-style combine of the auxiliary array —
//! sharing the `(s, p, l, K)` tuple, the plan arithmetic and the premises.
//!
//! The pipeline is two kernels instead of three (no Stage 3: a reduction
//! has no per-element output), so its traffic is ~N reads plus negligible
//! auxiliary movement.

use gpu_sim::{DeviceSpec, Gpu, KernelStats};
use interconnect::{EventKind, NodeMeta};
use skeletons::{lf, ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::params::ProblemParams;
use crate::plan::ExecutionPlan;
use crate::report::RunReport;
use crate::stage1::run_stage1;

/// Result of a batch reduction: one combined value per problem.
#[derive(Debug, Clone)]
pub struct ReduceOutput<T> {
    /// Per-problem totals, `G` entries.
    pub totals: Vec<T>,
    /// Timing report.
    pub report: RunReport,
}

/// Batch reduction on a single GPU: `G` problems of `N` elements each,
/// reduced to `G` totals in one invocation.
pub fn reduce_sp<T: Scannable, O: ScanOp<T>>(
    op: O,
    tuple: SplkTuple,
    device: &DeviceSpec,
    problem: ProblemParams,
    input: &[T],
) -> ScanResult<ReduceOutput<T>> {
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }
    let plan = ExecutionPlan::new(problem, tuple, 1)?;
    let mut gpu = Gpu::new(0, device.clone());
    let dinput = gpu.alloc_from(input)?;
    let mut aux = gpu.alloc::<T>(plan.aux_local_len())?;

    // Kernel 1: the scan pipeline's Stage 1, unchanged.
    let s1 = run_stage1(&mut gpu, &plan, op, &dinput, &mut aux)?;

    // Kernel 2: combine each problem's chunk reductions. Reuses the
    // Stage 2 grid shape but folds instead of scanning.
    let (mut cfg, ly2) = plan.stage2_cfg();
    cfg.label = "stage2:final-reduce".into();
    let rows = plan.chunks_per_problem();
    let g_total = problem.batch();
    let mut totals = vec![op.identity(); g_total];
    let s2 = gpu.launch::<T, _>(&cfg, |ctx| {
        let (_, by) = ctx.block_idx;
        for ly in 0..ly2 {
            let g = by * ly2 + ly;
            if g >= g_total {
                break;
            }
            let mut row = vec![T::default(); rows];
            ctx.read_global(aux.host_view(), g * rows, &mut row);
            totals[g] = row.iter().fold(op.identity(), |acc, &x| op.combine(acc, x));
            // Tree-reduce cost at warp granularity.
            ctx.alu(lf::depth(rows) as u64 * (rows.div_ceil(32).max(1)) as u64);
        }
    })?;

    let kernel = |name, stats: KernelStats| {
        (name, EventKind::Kernel, stats.seconds(), NodeMeta::kernel(stats.counters))
    };
    let phases = [kernel("stage1:chunk-reduce", s1), kernel("stage2:final-reduce", s2)];
    Ok(ReduceOutput {
        totals,
        report: RunReport::from_chain("Reduce-SP", problem.total_elems(), phases),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{reference_reduce, Add, Max, Min};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 31 + 7) % 211) as i32 - 105).collect()
    }

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    #[test]
    fn totals_match_reference() {
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let out = reduce_sp(Add, SplkTuple::kepler_premises(1), &k80(), problem, &input).unwrap();
        assert_eq!(out.totals.len(), 8);
        let n = problem.problem_size();
        for g in 0..8 {
            assert_eq!(out.totals[g], reference_reduce(Add, &input[g * n..(g + 1) * n]));
        }
    }

    #[test]
    fn max_and_min_reductions() {
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let n = problem.problem_size();
        let t = SplkTuple::kepler_premises(0);
        let max = reduce_sp(Max, t, &k80(), problem, &input).unwrap();
        let min = reduce_sp(Min, t, &k80(), problem, &input).unwrap();
        for g in 0..4 {
            let slice = &input[g * n..(g + 1) * n];
            assert_eq!(max.totals[g], *slice.iter().max().unwrap());
            assert_eq!(min.totals[g], *slice.iter().min().unwrap());
        }
    }

    #[test]
    fn reduction_is_cheaper_than_scan() {
        // No Stage 3 and no output writes: roughly a third of the scan's
        // traffic.
        let problem = ProblemParams::new(18, 1);
        let input = pseudo(problem.total_elems());
        let t = SplkTuple::kepler_premises(2);
        let reduce = reduce_sp(Add, t, &k80(), problem, &input).unwrap();
        let scan = crate::ScanRequest::new(Add, problem).tuple(t).run(&input).unwrap();
        assert!(
            reduce.report.seconds() < scan.report.seconds() / 2.0,
            "reduce {} vs scan {}",
            reduce.report.seconds(),
            scan.report.seconds()
        );
    }

    #[test]
    fn wrong_input_length_rejected() {
        let problem = ProblemParams::new(12, 0);
        let err =
            reduce_sp(Add, SplkTuple::kepler_premises(0), &k80(), problem, &[0i32; 7]).unwrap_err();
        assert!(matches!(err, ScanError::InvalidInput(_)));
    }

    #[test]
    fn single_problem_single_chunk() {
        let problem = ProblemParams::new(10, 0);
        let input = pseudo(1 << 10);
        let out = reduce_sp(Add, SplkTuple::kepler_premises(0), &k80(), problem, &input).unwrap();
        assert_eq!(out.totals, vec![reference_reduce(Add, &input)]);
    }
}
