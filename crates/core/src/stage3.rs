//! Stage 3 — Scan + Addition (Figure 3, right).
//!
//! Same grid as Stage 1 (`Bx¹ = Bx³`, "both stages use the same amount of
//! SM resources", §3.1). Each block seeds its cascade with the chunk's
//! exclusive offset from the auxiliary array, then scans its chunk with the
//! full Figure 4 pipeline, writing the final values to the output.

use gpu_sim::{DeviceBuffer, Gpu, KernelStats, SimResult};
use skeletons::{block_scan_exclusive, block_scan_inclusive, Cascade, ScanOp, Scannable};

use crate::multi_gpu::Portions;
use crate::params::ScanKind;
use crate::plan::ExecutionPlan;

/// Run Stage 3 on one GPU over device buffers — the copying route's entry
/// point (perfbench's replica); the program scans its portions in place
/// through the same kernel.
///
/// * `input` — the GPU's portions, `[g][portion]`.
/// * `offsets` — GPU-local exclusive chunk offsets, `[g][Bx¹]` (the slice
///   of the scanned auxiliary array belonging to this GPU's chunks).
/// * `output` — receives the scanned portions, same layout as `input`.
pub fn run_stage3<T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    input: &DeviceBuffer<T>,
    offsets: &DeviceBuffer<T>,
    output: &mut DeviceBuffer<T>,
) -> SimResult<KernelStats> {
    run_stage3_kind(gpu, plan, op, input, offsets, output, ScanKind::Inclusive)
}

/// [`run_stage3`] with explicit scan semantics; the exclusive form shifts
/// each chunk's output right by one under the cascade carry. The
/// buffers' portions are their rows.
pub fn run_stage3_kind<T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    input: &DeviceBuffer<T>,
    offsets: &DeviceBuffer<T>,
    output: &mut DeviceBuffer<T>,
    kind: ScanKind,
) -> SimResult<KernelStats> {
    debug_assert_eq!(input.len(), plan.elems_per_gpu(), "input buffer mis-sized");
    debug_assert_eq!(output.len(), plan.elems_per_gpu(), "output buffer mis-sized");
    let input = Portions::contiguous(plan, input.host_view());
    let rows = output.host_view_mut().chunks_mut(plan.portion);
    scan_add(gpu, plan, op, input, offsets, rows, kind)
}

/// The Stage 3 kernel: scan every chunk of the GPU's portions, read
/// through `input` and seeded by its offset, into `rows` — one output row
/// per portion, in problem order, wherever the rows lie.
pub(crate) fn scan_add<'o, T: Scannable, O: ScanOp<T>>(
    gpu: &mut Gpu,
    plan: &ExecutionPlan,
    op: O,
    input: Portions<'_, T>,
    offsets: &DeviceBuffer<T>,
    rows: impl IntoIterator<Item = &'o mut [T]>,
    kind: ScanKind,
) -> SimResult<KernelStats> {
    debug_assert_eq!(offsets.len(), plan.aux_local_len(), "offsets buffer mis-sized");

    let cfg = plan.stage3_problem_cfg();
    let batch = plan.problem.batch();
    let chunk = plan.chunk;
    let bx1 = plan.bx1;
    let per_iter = plan.tuple.elems_per_iteration();
    let p = plan.tuple.elems_per_thread();

    // Blocks are independent (each scans its own chunk seeded by a
    // precomputed offset), so they run on the batched block engine — one
    // simulator pass over the `G` problems' concatenated `(Bx¹, 1)` grids,
    // as in Stage 1. Grid row `g` is portion `g`'s output row, split into
    // `Bx¹` chunk windows, so block `(c, g)` writes chunk `c` of it. Each
    // cascade iteration loads its input into its slice of that window and
    // scans it there.
    debug_assert_eq!(plan.portion, bx1 * chunk);
    let offsets_view = offsets.host_view();
    gpu.launch_rows::<T, _>(&cfg, batch, rows, |ctx, out| {
        let (c, g) = ctx.block_idx;
        let block_input = &input.get(g)[c * chunk..(c + 1) * chunk];
        let prefix = ctx.read_global_one(offsets_view, g * bx1 + c);
        let mut cascade = Cascade::with_prefix(op, prefix);
        let iterations = block_input.chunks_exact(per_iter).zip(out.chunks_exact_mut(per_iter));
        for (src, window) in iterations {
            let carry = cascade.carry();
            let total = match kind {
                ScanKind::Inclusive => block_scan_inclusive(ctx, op, p, src, window, Some(carry)),
                ScanKind::Exclusive => block_scan_exclusive(ctx, op, p, src, window, carry),
            };
            cascade.absorb(total);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProblemParams;
    use gpu_sim::DeviceSpec;
    use skeletons::{reference_exclusive, reference_inclusive, reference_reduce, Add, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 69621) % 301) as i32 - 150).collect()
    }

    /// Compute the per-chunk exclusive offsets on the CPU (what stages 1+2
    /// would produce) and feed them to Stage 3.
    fn offsets_for(input: &[i32], plan: &ExecutionPlan) -> Vec<i32> {
        let g_total = plan.problem.batch();
        let mut offs = Vec::with_capacity(plan.aux_local_len());
        for g in 0..g_total {
            let base = g * plan.portion;
            let reductions: Vec<i32> = (0..plan.bx1)
                .map(|c| {
                    let s = base + c * plan.chunk;
                    reference_reduce(Add, &input[s..s + plan.chunk])
                })
                .collect();
            offs.extend(reference_exclusive(Add, &reductions));
        }
        offs
    }

    fn run(problem: ProblemParams, k: u32) -> (Vec<i32>, Vec<i32>, ExecutionPlan, KernelStats) {
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(k), 1).unwrap();
        let input = pseudo(plan.elems_per_gpu());
        let offs = offsets_for(&input, &plan);
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let dinput = gpu.alloc_from(&input).unwrap();
        let doffs = gpu.alloc_from(&offs).unwrap();
        let mut output = gpu.alloc::<i32>(input.len()).unwrap();
        let stats = run_stage3(&mut gpu, &plan, Add, &dinput, &doffs, &mut output).unwrap();
        (input, output.copy_to_host(), plan, stats)
    }

    #[test]
    fn stage3_completes_the_batch_scan() {
        let (input, output, plan, _) = run(ProblemParams::new(14, 2), 1);
        for g in 0..plan.problem.batch() {
            let s = g * plan.portion;
            let expected = reference_inclusive(Add, &input[s..s + plan.portion]);
            assert_eq!(&output[s..s + plan.portion], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn single_chunk_problems() {
        let (input, output, plan, _) = run(ProblemParams::new(10, 3), 0);
        assert_eq!(plan.bx1, 1);
        for g in 0..8 {
            let s = g << 10;
            let expected = reference_inclusive(Add, &input[s..s + 1024]);
            assert_eq!(&output[s..s + 1024], &expected[..]);
        }
    }

    #[test]
    fn deep_cascade() {
        // K = 8: each block iterates 8 times over its chunk.
        let (input, output, plan, _) = run(ProblemParams::new(16, 0), 3);
        assert_eq!(plan.tuple.iterations(), 8);
        assert_eq!(plan.bx1, 8);
        let expected = reference_inclusive(Add, &input);
        assert_eq!(output, expected);
    }

    #[test]
    fn stage3_moves_the_full_dataset_twice() {
        // Reads the input once, writes the output once — plus the one
        // offset read per chunk.
        let (_, _, plan, stats) = run(ProblemParams::new(16, 1), 2);
        let data_bytes = (plan.elems_per_gpu() * 4) as u64;
        assert_eq!(
            stats.counters.gld_transactions,
            data_bytes / 128 + plan.aux_local_len() as u64,
            "input reads + one transaction per offset read"
        );
        assert_eq!(stats.counters.gst_transactions, data_bytes / 128);
    }

    #[test]
    fn offsets_shift_whole_chunks() {
        // With all-zero offsets each chunk scans independently.
        let problem = ProblemParams::new(13, 0);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 1).unwrap();
        let input = pseudo(plan.elems_per_gpu());
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let dinput = gpu.alloc_from(&input).unwrap();
        let zero_offs = gpu.alloc::<i32>(plan.aux_local_len()).unwrap();
        let mut output = gpu.alloc::<i32>(input.len()).unwrap();
        run_stage3(&mut gpu, &plan, Add, &dinput, &zero_offs, &mut output).unwrap();
        let output = output.copy_to_host();
        for c in 0..plan.bx1 {
            let s = c * plan.chunk;
            let expected = reference_inclusive(Add, &input[s..s + plan.chunk]);
            assert_eq!(&output[s..s + plan.chunk], &expected[..], "chunk {c} scans locally");
        }
    }
}
