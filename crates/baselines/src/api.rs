//! The common interface of the competing scan libraries.
//!
//! §5 of the paper compares against CUDPP, Thrust, ModernGPU, CUB and
//! LightScan, all "executing in a single GPU, since none of them provides a
//! Multi-GPU support". Batch workloads are handled by "invoking the
//! non-segmented function G times" — except CUDPP, whose `multiScan`
//! processes the whole batch in one invocation and overrides
//! [`ScanLibrary::batch_scan`].
//!
//! Every library implementation here *functionally executes* its published
//! algorithm on the simulator; the per-library constants (invocation
//! overhead, bandwidth derate, chain latency) are calibrated to the
//! relative performance reported in the paper's Figures 11–13 and are
//! documented on each type.

use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu};
use interconnect::{EventKind, NodeMeta};
use scan_core::{ProblemParams, RunReport, ScanError, ScanOutput, ScanResult};
use skeletons::Scannable;

/// A single-GPU scan implementation with per-invocation host overhead.
pub trait ScanLibrary<T: Scannable> {
    /// The library's name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Host-side software cost of one library invocation, in seconds
    /// (temporary allocation, plan lookup, tuning-parameter selection).
    fn invocation_overhead(&self) -> f64;

    /// Scan `input[base .. base+len]` into `output[base ..]` on `gpu`.
    ///
    /// The buffers hold the whole batch; one invocation addresses one
    /// problem, exactly like calling the real library G times on
    /// sub-ranges.
    fn scan_once(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<T>,
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
    ) -> ScanResult<()>;

    /// Scan a batch of `G` problems. The default performs `G` separate
    /// invocations, each paying [`ScanLibrary::invocation_overhead`] — the
    /// paper's methodology for every library except CUDPP.
    fn batch_scan(
        &self,
        device: &DeviceSpec,
        problem: ProblemParams,
        input: &[T],
    ) -> ScanResult<ScanOutput<T>> {
        if input.len() != problem.total_elems() {
            return Err(ScanError::InvalidInput(format!(
                "input holds {} elements but G·N = {}",
                input.len(),
                problem.total_elems()
            )));
        }
        let mut gpu = Gpu::new(0, device.clone());
        let dinput = gpu.alloc_from(input)?;
        let mut output = gpu.alloc::<T>(input.len())?;
        let n = problem.problem_size();
        let mut setup = 0.0;
        for g in 0..problem.batch() {
            setup += self.invocation_overhead();
            self.scan_once(&mut gpu, &dinput, &mut output, g * n, n)?;
        }
        Ok(ScanOutput::new(output.into_host(), library_report(self.name(), problem, setup, &gpu)))
    }
}

/// A library run's report: the chain of its summed per-invocation
/// `setup` overhead, then the kernels `gpu` ran (its clock, which only
/// kernels advance, and their counters).
pub(crate) fn library_report(
    name: &str,
    problem: ProblemParams,
    setup: f64,
    gpu: &Gpu,
) -> RunReport {
    RunReport::from_chain(
        name,
        problem.total_elems(),
        [
            ("host:setup", EventKind::Host, setup, NodeMeta::default()),
            ("kernels", EventKind::Kernel, gpu.elapsed(), NodeMeta::kernel(gpu.counters())),
        ],
    )
}

/// Charge the in-kernel compute costs of scanning a `len`-element tile the
/// way a register/shuffle kernel would: serial per-lane work plus a
/// log-depth combine tree per warp.
pub(crate) fn charge_tile_scan<T: Scannable>(
    ctx: &mut gpu_sim::BlockCtx<'_, T>,
    len: usize,
    shuffle_based: bool,
) {
    let warps = len.div_ceil(32).max(1) as u64;
    ctx.alu(2 * warps);
    if shuffle_based {
        ctx.charge_shuffles(5 * warps.div_ceil(4).max(1));
    } else {
        // Pre-shuffle shared-memory exchange: a store+load pair per step.
        ctx.charge_shared(5 * warps, 5 * warps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{Add, ScanOp};

    /// A toy library that scans sequentially in one "kernel", to exercise
    /// the default batch path.
    struct Toy;

    impl ScanLibrary<i32> for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }
        fn invocation_overhead(&self) -> f64 {
            1.0e-6
        }
        fn scan_once(
            &self,
            gpu: &mut Gpu,
            input: &DeviceBuffer<i32>,
            output: &mut DeviceBuffer<i32>,
            base: usize,
            len: usize,
        ) -> ScanResult<()> {
            let cfg = gpu_sim::LaunchConfig::new("toy", (1, 1), (32, 1)).regs(16);
            gpu.launch::<i32, _>(&cfg, |ctx| {
                let mut tile = vec![0i32; len];
                ctx.read_global(input.host_view(), base, &mut tile);
                let mut acc = Add.identity();
                for v in &mut tile {
                    acc = Add.combine(acc, *v);
                    *v = acc;
                }
                charge_tile_scan(ctx, len, true);
                ctx.write_global(output.host_view_mut(), base, &tile);
            })?;
            Ok(())
        }
    }

    #[test]
    fn default_batch_invokes_g_times() {
        let problem = ProblemParams::new(6, 3); // 8 problems of 64
        let input: Vec<i32> = (0..problem.total_elems()).map(|i| (i % 5) as i32).collect();
        let out = Toy.batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
        // Host setup: 8 invocations x 1 µs.
        let host = out.report.timeline.seconds_with_prefix("host:setup");
        assert!((host - 8.0e-6).abs() < 1e-12);
        assert_eq!(out.report.label, "Toy");
    }

    #[test]
    fn batch_rejects_wrong_length() {
        let problem = ProblemParams::new(6, 0);
        let err = Toy.batch_scan(&DeviceSpec::tesla_k80(), problem, &[0i32; 3]).unwrap_err();
        assert!(matches!(err, ScanError::InvalidInput(_)));
    }

    #[test]
    fn more_problems_cost_more_overhead() {
        let device = DeviceSpec::tesla_k80();
        let input: Vec<i32> = vec![1; 1 << 10];
        let few = Toy.batch_scan(&device, ProblemParams::new(9, 1), &input).unwrap();
        let many = Toy.batch_scan(&device, ProblemParams::new(6, 4), &input).unwrap();
        assert!(
            many.report.seconds() > few.report.seconds(),
            "same data split into more invocations must be slower"
        );
    }
}
