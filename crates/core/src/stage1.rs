//! Stage 1 — Chunk Reduce (Figure 3, left).
//!
//! Each block owns one chunk of `K¹ · Lx¹ · P¹` elements of one problem and
//! computes the chunk's *reduction* ("writing the cumulative sum for all
//! elements into the last element" — here straight into the auxiliary
//! array). Storing one element per chunk instead of scanned data is the
//! paper's key memory saving: "storing one element per chunk and computing
//! the scan later again is preferable to writing all elements in global
//! memory twice" (§3.1).
//!
//! Grid `(Bx¹, G)`: `bx` is the chunk index inside the problem's per-GPU
//! portion, `by` the problem index. The cascade (Figure 5) runs the `K`
//! iterations with a carried partial sum.

use gpu_sim::{DeviceBuffer, Gpu, KernelStats, SimResult};
use skeletons::{block_reduce, Cascade, ScanOp, Scannable};

use crate::multi_gpu::Portions;
use crate::plan::ExecutionPlan;

/// Run Stage 1 on one GPU over a device buffer of its portions — the
/// copying route's entry point (perfbench's replica); the program reads
/// its portions in place through the same kernel.
///
/// * `input` — the GPU's portions, laid out `[g][portion]` (problem-major).
/// * `aux` — the GPU-local auxiliary array, laid out `[g][Bx¹]`; entry
///   `(g, c)` receives the reduction of chunk `c` of problem `g`.
pub fn run_stage1<T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    input: &DeviceBuffer<T>,
    aux: &mut DeviceBuffer<T>,
) -> SimResult<KernelStats> {
    debug_assert_eq!(input.len(), plan.elems_per_gpu(), "input buffer mis-sized");
    chunk_reduce(gpu, plan, op, Portions::contiguous(plan, input.host_view()), aux)
}

/// The Stage 1 kernel: reduce every chunk of the GPU's portions, read
/// through `input`, into `aux` (`[g][Bx¹]`).
pub(crate) fn chunk_reduce<T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    input: Portions<'_, T>,
    aux: &mut DeviceBuffer<T>,
) -> SimResult<KernelStats> {
    debug_assert_eq!(aux.len(), plan.aux_local_len(), "aux buffer mis-sized");

    let cfg = plan.stage1_problem_cfg();
    let batch = plan.problem.batch();
    let chunk = plan.chunk;
    let per_iter = plan.tuple.elems_per_iteration();
    let p = plan.tuple.elems_per_thread();

    // Blocks are independent (each owns one chunk and writes one aux
    // entry), so they run on the batched block engine — one simulator pass
    // over the batch's `G` problems' concatenated blocks, with each
    // problem's grid `(Bx¹, 1)` stacked along the y-dimension. Block
    // `(c, g)` is flat block `g·Bx¹ + c`, whose one-element window is
    // exactly aux slot `g·Bx¹ + c` — addressed block-locally as `out[0]`.
    debug_assert_eq!(aux.len(), cfg.grid.0 * cfg.grid.1 * batch);
    gpu.launch_blocks_batch::<T, _>(&cfg, batch, aux.host_view_mut(), |ctx, out| {
        let (c, g) = ctx.block_idx;
        let block_input = &input.get(g)[c * chunk..(c + 1) * chunk];
        let mut cascade = Cascade::new(op);
        // Each iteration reduces its warps' runs where they lie.
        for iteration in block_input.chunks_exact(per_iter) {
            cascade.absorb(block_reduce(ctx, op, p, iteration));
        }
        ctx.write_global_one(out, 0, cascade.finish());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProblemParams;
    use gpu_sim::DeviceSpec;
    use skeletons::{reference_reduce, Add, Max, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 48271) % 401) as i32 - 200).collect()
    }

    fn run(
        problem: ProblemParams,
        k: u32,
        parts: usize,
        input: &[i32],
    ) -> (Vec<i32>, ExecutionPlan, KernelStats) {
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(k), parts).unwrap();
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let dinput = gpu.alloc_from(input).unwrap();
        let mut aux = gpu.alloc::<i32>(plan.aux_local_len()).unwrap();
        let stats = run_stage1(&mut gpu, &plan, Add, &dinput, &mut aux).unwrap();
        (aux.copy_to_host(), plan, stats)
    }

    #[test]
    fn chunk_reductions_match_reference() {
        let problem = ProblemParams::new(14, 2); // 4 problems of 16384
        let input = pseudo(4 << 14);
        let (aux, plan, _) = run(problem, 1, 1, &input);
        assert_eq!(plan.chunk, 2048);
        assert_eq!(plan.bx1, 8);
        for g in 0..4 {
            for c in 0..plan.bx1 {
                let s = g * plan.portion + c * plan.chunk;
                let expected = reference_reduce(Add, &input[s..s + plan.chunk]);
                assert_eq!(aux[g * plan.bx1 + c], expected, "problem {g} chunk {c}");
            }
        }
    }

    #[test]
    fn single_chunk_per_problem() {
        // Portion == chunk: bx1 = 1, the aux holds per-problem totals.
        let problem = ProblemParams::new(10, 3);
        let input = pseudo(8 << 10);
        let (aux, plan, _) = run(problem, 0, 1, &input);
        assert_eq!(plan.bx1, 1);
        for g in 0..8 {
            let s = g << 10;
            assert_eq!(aux[g], reference_reduce(Add, &input[s..s + 1024]));
        }
    }

    #[test]
    fn multi_gpu_portion_layout() {
        // parts = 4: this GPU sees portions of N/4; reductions are over the
        // portion-local chunks.
        let problem = ProblemParams::new(14, 1);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 4).unwrap();
        let input = pseudo(plan.elems_per_gpu());
        let mut gpu = Gpu::new(2, DeviceSpec::tesla_k80());
        let dinput = gpu.alloc_from(&input).unwrap();
        let mut aux = gpu.alloc::<i32>(plan.aux_local_len()).unwrap();
        run_stage1(&mut gpu, &plan, Add, &dinput, &mut aux).unwrap();
        assert_eq!(plan.portion, 4096);
        assert_eq!(plan.bx1, 4);
        let aux = aux.copy_to_host();
        for g in 0..2 {
            for c in 0..4 {
                let s = g * 4096 + c * 1024;
                assert_eq!(aux[g * 4 + c], reference_reduce(Add, &input[s..s + 1024]));
            }
        }
    }

    #[test]
    fn stage1_writes_only_one_element_per_chunk() {
        // The paper's memory-traffic claim: stores = one aux write per
        // chunk, not the whole data set.
        let problem = ProblemParams::new(16, 0);
        let input = pseudo(1 << 16);
        let (_, plan, stats) = run(problem, 2, 1, &input);
        let chunks = plan.bx1;
        assert_eq!(stats.counters.gst_instructions, chunks as u64);
        // Reads cover the whole input once.
        let input_bytes = (1u64 << 16) * 4;
        assert_eq!(stats.counters.gld_transactions, input_bytes / 128);
    }

    #[test]
    fn works_with_max_operator() {
        let problem = ProblemParams::new(12, 1);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(1), 1).unwrap();
        let input = pseudo(2 << 12);
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let dinput = gpu.alloc_from(&input).unwrap();
        let mut aux = gpu.alloc::<i32>(plan.aux_local_len()).unwrap();
        run_stage1(&mut gpu, &plan, Max, &dinput, &mut aux).unwrap();
        let aux = aux.copy_to_host();
        for g in 0..2 {
            for c in 0..plan.bx1 {
                let s = g * plan.portion + c * plan.chunk;
                let expected = *input[s..s + plan.chunk].iter().max().unwrap();
                assert_eq!(aux[g * plan.bx1 + c], expected);
            }
        }
    }
}
