//! Stage 2 — Intermediate Scan (Figure 3, middle).
//!
//! Scans each problem's row of chunk reductions, converting it in place
//! into *exclusive* prefixes: Stage 3 then combines `aux[g][c]` — the total
//! of chunks `0..c` — into every element of chunk `c`.
//!
//! The kernel follows the paper's Stage-2 shape: `Bx² = 1`, `Ly² > 1`
//! ("the same block must process elements from different problems,
//! otherwise warp occupancy would be much too low"), `K² = 1` in the sense
//! that the grid is as wide as the batch allows. Row lengths are arbitrary
//! powers of two (possibly longer than one block iteration), so a block
//! walks its row in tiles, carrying the prefix — functionally the LF
//! network of [`skeletons::lf`], with shuffle/ALU costs charged at the same
//! rate as the Stage 1/3 machinery.

use gpu_sim::{BlockCtx, DeviceBuffer, Gpu, KernelStats, SimResult};
use skeletons::{lf, ScanOp, Scannable};

use crate::plan::ExecutionPlan;

/// Run Stage 2 on the GPU holding the gathered auxiliary array.
///
/// `aux` is laid out `[g][rows]` with `rows = parts · Bx¹` chunk reductions
/// per problem; on return each row holds its exclusive scan.
pub fn run_stage2<T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    aux: &mut DeviceBuffer<T>,
) -> SimResult<KernelStats> {
    debug_assert_eq!(aux.len(), plan.aux_global_len(), "aux buffer mis-sized");
    let (cfg, ly2) = plan.stage2_cfg();
    let rows = plan.chunks_per_problem();
    let g_total = plan.problem.batch();

    gpu.launch::<T, _>(&cfg, |ctx| {
        let (_, by) = ctx.block_idx;
        for ly in 0..ly2 {
            let g = by * ly2 + ly;
            if g >= g_total {
                break;
            }
            scan_row_exclusive(ctx, op, aux.host_view_mut(), g * rows, rows);
        }
    })
}

/// Exclusive scan of `data[start .. start + len]` in place, inside a
/// kernel. Charges a coalesced read and write of the row plus the LF
/// network's per-step warp work.
pub(crate) fn scan_row_exclusive<T: Scannable, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    data: &mut [T],
    start: usize,
    len: usize,
) {
    if len == 0 {
        return;
    }
    let row = &mut data[start..start + len];
    ctx.charge_global_read(len);

    lf::scan_inplace(op, row);
    // LF cost at warp granularity: every step touches the row once.
    let warps_touched = len.div_ceil(32).max(1) as u64;
    let steps = lf::depth(len) as u64;
    ctx.alu(steps * warps_touched);
    // Intra-warp exchanges ride shuffles; inter-warp ones are counted as
    // shared traffic at one op per warp per step.
    ctx.charge_shuffles(steps.min(5) * warps_touched);

    // Shift the inclusive row right by one, seeding with the identity.
    row.copy_within(..len - 1, 1);
    row[0] = op.identity();
    ctx.charge_global_write(len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProblemParams;
    use gpu_sim::DeviceSpec;
    use skeletons::{reference_exclusive, Add, Max, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 16807) % 97) as i32 - 48).collect()
    }

    fn run_inplace(problem: ProblemParams, k: u32, parts: usize, aux_in: &[i32]) -> Vec<i32> {
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(k), parts).unwrap();
        assert_eq!(aux_in.len(), plan.aux_global_len());
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let mut aux = gpu.alloc_from(aux_in).unwrap();
        run_stage2(&mut gpu, &plan, Add, &mut aux).unwrap();
        aux.copy_to_host()
    }

    #[test]
    fn rows_become_exclusive_scans() {
        // G = 8 problems, 16 chunks each.
        let problem = ProblemParams::new(14, 3); // 16384/1024 = 16 chunks at K=0
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 1).unwrap();
        assert_eq!(plan.chunks_per_problem(), 16);
        let aux_in = pseudo(8 * 16);
        let aux = run_inplace(problem, 0, 1, &aux_in);
        for g in 0..8 {
            let row = &aux_in[g * 16..(g + 1) * 16];
            assert_eq!(&aux[g * 16..(g + 1) * 16], &reference_exclusive(Add, row)[..], "row {g}");
        }
    }

    #[test]
    fn long_rows_are_scanned_correctly() {
        // One problem with 2048 chunks: the row is longer than a block tile.
        let problem = ProblemParams::new(21, 0);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 1).unwrap();
        assert_eq!(plan.chunks_per_problem(), 2048);
        let aux_in = pseudo(2048);
        let aux = run_inplace(problem, 0, 1, &aux_in);
        assert_eq!(aux, reference_exclusive(Add, &aux_in));
    }

    #[test]
    fn multi_gpu_rows_span_all_parts() {
        // parts = 4 widens each row to parts * bx1.
        let problem = ProblemParams::new(14, 1);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 4).unwrap();
        assert_eq!(plan.chunks_per_problem(), 16);
        let aux_in = pseudo(plan.aux_global_len());
        let aux = run_inplace(problem, 0, 4, &aux_in);
        for g in 0..2 {
            let row = &aux_in[g * 16..(g + 1) * 16];
            assert_eq!(&aux[g * 16..(g + 1) * 16], &reference_exclusive(Add, row)[..]);
        }
    }

    #[test]
    fn first_entry_of_each_row_is_identity() {
        let problem = ProblemParams::new(13, 4);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(1), 1).unwrap();
        let rows = plan.chunks_per_problem();
        let aux_in = pseudo(plan.aux_global_len());
        let aux = run_inplace(problem, 1, 1, &aux_in);
        for g in 0..16 {
            assert_eq!(aux[g * rows], 0, "exclusive scan starts at the identity");
        }
    }

    #[test]
    fn max_operator_rows() {
        let problem = ProblemParams::new(13, 2);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 2).unwrap();
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let aux_in = pseudo(plan.aux_global_len());
        let mut aux = gpu.alloc_from(&aux_in).unwrap();
        run_stage2(&mut gpu, &plan, Max, &mut aux).unwrap();
        let rows = plan.chunks_per_problem();
        let aux = aux.copy_to_host();
        for g in 0..4 {
            let row = &aux_in[g * rows..(g + 1) * rows];
            assert_eq!(&aux[g * rows..(g + 1) * rows], &reference_exclusive(Max, row)[..]);
        }
    }

    #[test]
    fn stage2_reads_and_writes_each_row_once() {
        let problem = ProblemParams::new(16, 2);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 1).unwrap();
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let aux_in = pseudo(plan.aux_global_len());
        let mut aux = gpu.alloc_from(&aux_in).unwrap();
        let stats = run_stage2(&mut gpu, &plan, Add, &mut aux).unwrap();
        let bytes = (plan.aux_global_len() * 4) as u64;
        assert_eq!(stats.counters.gld_transactions, bytes.div_ceil(128).max(1));
        assert_eq!(stats.counters.gst_transactions, bytes.div_ceil(128).max(1));
    }
}
