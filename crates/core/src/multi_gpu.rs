//! Shared multi-GPU plumbing: per-GPU workers, parallel phase execution,
//! and the auxiliary-array exchange.
//!
//! A [`Worker`] owns one simulated GPU and its buffers (input portions,
//! output, local auxiliary array, received offsets). A phase runs its GPUs
//! under one host fan ([`gpu_sim::host`]), and the phase's simulated
//! duration is the maximum of the per-GPU times, matching the paper's
//! phase-synchronous execution.

use gpu_sim::{host, CostCounters, DeviceSpec, Gpu, KernelStats, SimResult};
use interconnect::{strided_exchange_cost, CollectiveCost, Fabric, StridedPart};
use skeletons::Scannable;

use crate::error::{ScanError, ScanResult};
use crate::plan::ExecutionPlan;

/// One participating GPU and its buffers.
#[derive(Debug)]
pub struct Worker<T: Scannable> {
    /// The simulated GPU.
    pub gpu: Gpu,
    /// Index within the problem-sharing group (`0 .. parts`).
    pub part: usize,
    /// Flat topology id of the GPU.
    pub global_id: usize,
    /// Input portions, `[g][portion]`.
    pub input: gpu_sim::DeviceBuffer<T>,
    /// Output portions, same layout.
    pub output: gpu_sim::DeviceBuffer<T>,
    /// Local auxiliary array, `[g][Bx¹]`.
    pub aux: gpu_sim::DeviceBuffer<T>,
    /// Exclusive chunk offsets received from Stage 2, `[g][Bx¹]`.
    pub offsets: gpu_sim::DeviceBuffer<T>,
}

/// Create one worker per GPU id, distributing each problem's elements
/// round-robin by portion: worker `w` receives elements
/// `[w · portion, (w+1) · portion)` of every problem (Fig. 6).
pub fn build_workers<T: Scannable>(
    device: &DeviceSpec,
    plan: &ExecutionPlan,
    gpu_ids: &[usize],
    input: &[T],
) -> ScanResult<Vec<Worker<T>>> {
    assert_eq!(gpu_ids.len(), plan.parts, "one GPU per part");
    if input.len() != plan.problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            plan.problem.total_elems()
        )));
    }
    let n = plan.problem.problem_size();
    let g_total = plan.problem.batch();
    // Workers share no state (each builds its own Gpu and gathers its own
    // portions), so they are built under one fan and come back in
    // `gpu_ids` order. The gathered portions become the device input as
    // they are: the host-to-device copy is simulated, not made.
    host::fan_out(gpu_ids.iter().enumerate(), |(w, &gid)| {
        let gpu = Gpu::new(gid, device.clone());
        let mut local = Vec::with_capacity(plan.elems_per_gpu());
        for g in 0..g_total {
            let s = g * n + w * plan.portion;
            local.extend_from_slice(&input[s..s + plan.portion]);
        }
        let len = local.len();
        let input = gpu.adopt(local)?;
        let output = gpu.alloc(len)?;
        let aux = gpu.alloc(plan.aux_local_len())?;
        let offsets = gpu.alloc(plan.aux_local_len())?;
        Ok(Worker { gpu, part: w, global_id: gid, input, output, aux, offsets })
    })
    .into_iter()
    .collect()
}

/// Run `f` on every worker under one fan ([`gpu_sim::host::fan_out`])
/// and return, in worker order, each GPU's simulated time spent in the
/// phase with the hardware counters it accumulated there (the difference
/// of its event-log totals around `f`) — or the error its launch raised.
/// Callers that need every GPU to succeed collect the results; the fault
/// replanner tells an evicted device's expected `DeviceLost` from a real
/// failure on a survivor.
pub fn parallel_phase<T, F>(workers: &mut [Worker<T>], f: F) -> Vec<SimResult<(f64, CostCounters)>>
where
    T: Scannable,
    F: Fn(&mut Worker<T>) -> SimResult<KernelStats> + Sync,
{
    host::fan_out(workers.iter_mut(), |w| {
        let before = w.gpu.elapsed();
        let counters_before = w.gpu.log().total_counters();
        f(w)?;
        let counters = w.gpu.log().total_counters().since(&counters_before);
        Ok((w.gpu.elapsed() - before, counters))
    })
}

/// Gather every worker's local auxiliary array into the root's global one
/// (`root_aux[g][w · Bx¹ + c] = worker_w.aux[g][c]`), returning the
/// strided-exchange cost. The root is `workers[0]`.
pub fn gather_aux<T: Scannable>(
    fabric: &Fabric,
    workers: &[Worker<T>],
    root_aux: &mut gpu_sim::DeviceBuffer<T>,
    plan: &ExecutionPlan,
) -> CollectiveCost {
    gather_aux_functional(workers, root_aux, plan);
    strided_exchange_cost(fabric, workers[0].global_id, &strided_parts(workers, plan))
}

/// The functional half of the aux gather, without cost accounting — the
/// multi-node path charges an `MPI_Gather` instead, whose per-rank blocks
/// land in the same problem-interleaved layout Stage 2 reads.
pub(crate) fn gather_aux_functional<T: Scannable>(
    workers: &[Worker<T>],
    root_aux: &mut gpu_sim::DeviceBuffer<T>,
    plan: &ExecutionPlan,
) {
    let rows = plan.chunks_per_problem();
    let bx1 = plan.bx1;
    let g_total = plan.problem.batch();
    let dst = root_aux.host_view_mut();
    for w in workers {
        let src = w.aux.host_view();
        for g in 0..g_total {
            dst[g * rows + w.part * bx1..g * rows + (w.part + 1) * bx1]
                .copy_from_slice(&src[g * bx1..(g + 1) * bx1]);
        }
    }
}

/// Scatter each worker's slice of the scanned auxiliary array back
/// (`worker_w.offsets[g][c] = root_aux[g][w · Bx¹ + c]`), returning the
/// strided-exchange cost.
pub fn scatter_offsets<T: Scannable>(
    fabric: &Fabric,
    workers: &mut [Worker<T>],
    root_aux: &gpu_sim::DeviceBuffer<T>,
    plan: &ExecutionPlan,
) -> CollectiveCost {
    let root_id = workers[0].global_id;
    let parts = strided_parts(workers, plan);
    scatter_offsets_functional(workers, root_aux, plan);
    strided_exchange_cost(fabric, root_id, &parts)
}

/// The functional half of the offsets scatter, without cost accounting —
/// the multi-node path charges MPI costs instead.
pub fn scatter_offsets_functional<T: Scannable>(
    workers: &mut [Worker<T>],
    root_aux: &gpu_sim::DeviceBuffer<T>,
    plan: &ExecutionPlan,
) {
    let rows = plan.chunks_per_problem();
    let bx1 = plan.bx1;
    let g_total = plan.problem.batch();
    for w in workers.iter_mut() {
        let src = root_aux.host_view();
        let dst = w.offsets.host_view_mut();
        for g in 0..g_total {
            dst[g * bx1..(g + 1) * bx1]
                .copy_from_slice(&src[g * rows + w.part * bx1..g * rows + (w.part + 1) * bx1]);
        }
    }
}

fn strided_parts<T: Scannable>(workers: &[Worker<T>], plan: &ExecutionPlan) -> Vec<StridedPart> {
    workers
        .iter()
        .map(|w| StridedPart {
            gpu: w.global_id,
            segments: plan.problem.batch(),
            bytes_per_segment: plan.bx1 * std::mem::size_of::<T>(),
        })
        .collect()
}

/// Interleave the workers' output portions back into batch layout in a
/// fresh vector. See [`assemble_into`].
pub fn assemble_output<T: Scannable>(plan: &ExecutionPlan, workers: &[Worker<T>]) -> Vec<T> {
    let mut out = vec![T::default(); plan.problem.total_elems()];
    assemble_into(plan, workers, &mut out);
    out
}

/// Interleave the workers' output portions into `out`, in batch layout
/// (`out[g · N + w · portion + i] = worker_w.output[g · portion + i]`).
///
/// # Panics
/// Panics if `out` does not hold the plan's `G·N` elements.
pub fn assemble_into<T: Scannable>(plan: &ExecutionPlan, workers: &[Worker<T>], out: &mut [T]) {
    assert_eq!(out.len(), plan.problem.total_elems(), "assembled batch size mismatch");
    let n = plan.problem.problem_size();
    for w in workers {
        let src = w.output.host_view();
        for g in 0..plan.problem.batch() {
            out[g * n + w.part * plan.portion..g * n + (w.part + 1) * plan.portion]
                .copy_from_slice(&src[g * plan.portion..(g + 1) * plan.portion]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan_on_lease, GpuLease, LeaseRun, PipelinePolicy, ProblemParams, ScanKind};
    use skeletons::{reference_inclusive, Add, SplkTuple};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 22695477 + 1) % 139) as i32 - 69).collect()
    }

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    /// The pipeline over exactly `gpu_ids` (one problem-sharing group),
    /// with the Kepler premise tuple at `k`.
    fn on_group(gpu_ids: &[usize], k: u32, problem: ProblemParams, input: &[i32]) -> LeaseRun<i32> {
        scan_on_lease(
            Add,
            SplkTuple::kepler_premises(k),
            &k80(),
            &Fabric::tsubame_kfc(1),
            &GpuLease::new(gpu_ids.to_vec(), 0).unwrap(),
            problem,
            input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn build_workers_distributes_portions() {
        let problem = ProblemParams::new(12, 1); // 2 problems of 4096
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 2).unwrap();
        let input = pseudo(2 << 12);
        let workers = build_workers(&k80(), &plan, &[0, 1], &input).unwrap();
        assert_eq!(workers.len(), 2);
        // Worker 1's first portion is the second half of problem 0.
        assert_eq!(
            workers[1].input.host_view()[..plan.portion],
            input[plan.portion..2 * plan.portion]
        );
        // Worker 1's second portion is the second half of problem 1.
        assert_eq!(
            workers[1].input.host_view()[plan.portion..],
            input[4096 + plan.portion..4096 + 2 * plan.portion]
        );
    }

    #[test]
    fn assemble_into_fills_the_batch_like_assemble_output() {
        let problem = ProblemParams::new(12, 2); // 4 problems, W = 4: portions of 1024
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 4).unwrap();
        let input = pseudo(problem.total_elems());
        let mut workers = build_workers(&k80(), &plan, &[0, 1, 2, 3], &input).unwrap();
        for w in &mut workers {
            let vals: Vec<i32> =
                (0..plan.elems_per_gpu()).map(|i| (w.part * 100_000 + i) as i32).collect();
            w.output.copy_from_host(&vals);
        }
        let fresh = assemble_output(&plan, &workers);
        let mut out = vec![-1; problem.total_elems()];
        assemble_into(&plan, &workers, &mut out);
        assert_eq!(out, fresh);
        // Problem 3's third quarter is worker 2's fourth portion.
        let (n, p) = (problem.problem_size(), plan.portion);
        assert_eq!(out[3 * n + 2 * p..3 * n + 3 * p], workers[2].output.host_view()[3 * p..]);
    }

    #[test]
    fn build_workers_rejects_wrong_input_length() {
        let problem = ProblemParams::new(12, 1);
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 2).unwrap();
        let err = build_workers::<i32>(&k80(), &plan, &[0, 1], &[0; 17]).unwrap_err();
        assert!(matches!(err, ScanError::InvalidInput(_)));
    }

    #[test]
    fn gather_and_scatter_round_trip_layouts() {
        let problem = ProblemParams::new(12, 2); // 4 problems, portions of 2048
        let plan = ExecutionPlan::new(problem, SplkTuple::kepler_premises(0), 2).unwrap();
        let input = pseudo(4 << 12);
        let fabric = Fabric::tsubame_kfc(1);
        let mut workers = build_workers(&k80(), &plan, &[0, 1], &input).unwrap();
        // Fill each worker's aux with identifiable values.
        for w in 0..2 {
            let vals: Vec<i32> = (0..plan.aux_local_len()).map(|i| (w * 1000 + i) as i32).collect();
            workers[w].aux.copy_from_host(&vals);
        }
        let mut root_aux = workers[0].gpu.alloc::<i32>(plan.aux_global_len()).unwrap();
        gather_aux(&fabric, &workers, &mut root_aux, &plan);
        let rows = plan.chunks_per_problem();
        // Problem 1's row: worker 0's chunks then worker 1's chunks.
        let row: Vec<i32> = root_aux.host_view()[rows..2 * rows].to_vec();
        assert_eq!(&row[..plan.bx1], &workers[0].aux.host_view()[plan.bx1..2 * plan.bx1]);
        assert_eq!(&row[plan.bx1..], &workers[1].aux.host_view()[plan.bx1..2 * plan.bx1]);

        scatter_offsets(&fabric, &mut workers, &root_aux, &plan);
        // Scatter hands each worker exactly its slice back.
        assert_eq!(workers[0].offsets.host_view(), workers[0].aux.host_view());
        assert_eq!(workers[1].offsets.host_view(), workers[1].aux.host_view());
    }

    #[test]
    fn pipeline_group_scans_correctly_two_gpus() {
        let problem = ProblemParams::new(13, 2);
        let input = pseudo(4 << 13);
        let run = on_group(&[0, 1], 0, problem, &input);
        for g in 0..4 {
            let s = g << 13;
            let expected = reference_inclusive(Add, &input[s..s + (1 << 13)]);
            assert_eq!(&run.data[s..s + (1 << 13)], &expected[..], "problem {g}");
        }
        let report = &run.run;
        assert_eq!(report.timeline.phases().len(), 5, "three stages and two comm phases");
        assert!(report.makespan > 0.0);
        assert_eq!(
            report.makespan.to_bits(),
            report.timeline.total().to_bits(),
            "barrier-synchronous schedule must equal the phase sum exactly"
        );
    }

    #[test]
    fn pipeline_group_single_gpu_matches_reference() {
        let problem = ProblemParams::new(12, 3);
        let input = pseudo(8 << 12);
        let run = on_group(&[0], 1, problem, &input);
        for g in 0..8 {
            let s = g << 12;
            let expected = reference_inclusive(Add, &input[s..s + (1 << 12)]);
            assert_eq!(&run.data[s..s + (1 << 12)], &expected[..]);
        }
        // Single-GPU comm phases are free.
        assert_eq!(run.run.timeline.seconds_with_prefix("comm:"), 0.0);
    }

    #[test]
    fn four_gpu_pipeline() {
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(2 << 14);
        let run = on_group(&[0, 1, 2, 3], 0, problem, &input);
        for g in 0..2 {
            let s = g << 14;
            let expected = reference_inclusive(Add, &input[s..s + (1 << 14)]);
            assert_eq!(&run.data[s..s + (1 << 14)], &expected[..]);
        }
    }

    #[test]
    fn cross_network_group_pays_host_staging() {
        let problem = ProblemParams::new(14, 4);
        let input = pseudo(16 << 14);
        // Same-network four GPUs vs four GPUs split across two networks.
        let run_p2p = on_group(&[0, 1, 2, 3], 0, problem, &input);
        let run_host = on_group(&[0, 1, 4, 5], 0, problem, &input);
        let comm_p2p = run_p2p.run.timeline.seconds_with_prefix("comm:");
        let comm_host = run_host.run.timeline.seconds_with_prefix("comm:");
        assert!(
            comm_host > 2.0 * comm_p2p,
            "cross-network aux exchange must be much slower ({comm_host} vs {comm_p2p})"
        );
    }
}
