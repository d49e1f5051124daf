//! Thrust's `inclusive_scan` (v1.8.1, the version the paper evaluates).
//!
//! Structurally a reduce-then-scan like ModernGPU, but the 2015-era Thrust
//! allocated temporary storage through `cudaMalloc` on every call and used
//! a generic, unvectorised kernel pipeline — the paper measures it 7.8×
//! slower than the proposal even at G = 1 (Fig. 11), by far the weakest
//! single-invocation baseline.
//!
//! Calibration: scalar access width, `bw_derate = 0.12` (generic iterators,
//! no `int4` vectorisation, conservative tuning for the Kepler target) and
//! 12 µs of per-invocation host overhead (temporary allocation + dispatch).
//!
//! Also provides [`Thrust::segmented_scan`] — scan-by-key with a flags
//! array, which "forces to carry an additional flag array, reducing
//! performance" (§5.1); the paper found G separate invocations faster for
//! n < 21 and uses whichever wins, as does the bench harness.

use gpu_sim::{AccessWidth, DeviceBuffer, DeviceSpec, Gpu, LaunchConfig};
use scan_core::{ProblemParams, ScanError, ScanOutput, ScanResult};
use skeletons::{ScanOp, Scannable};

use crate::api::{charge_tile_scan, library_report, scan_spine, scan_tile, ScanLibrary};

/// Elements per tile.
const TILE: usize = 1024;

/// The Thrust baseline.
#[derive(Debug, Clone, Copy)]
pub struct Thrust<O> {
    /// The scan operator.
    pub op: O,
}

impl<O> Thrust<O> {
    /// Thrust with the given operator.
    pub fn new(op: O) -> Self {
        Thrust { op }
    }
}

impl<O: Copy + Send + Sync + 'static> Thrust<O> {
    fn kernels<T: Scannable>(
        &self,
        gpu: &mut Gpu,
        input: &[T],
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
        extra_flag_traffic: bool,
    ) -> ScanResult<()>
    where
        O: ScanOp<T>,
    {
        let op = self.op;
        let tiles = len.div_ceil(TILE).max(1);
        let mut partials = gpu.alloc::<T>(tiles)?;

        // Pass 1: per-tile reduction (scalar loads, generic iterators).
        let cfg = LaunchConfig::new("thrust:reduce", (tiles, 1), (128, 1))
            .shared_elems(128)
            .regs(48)
            .width(AccessWidth::Scalar)
            .bw_derate(0.12);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let tile = &input[tile_base..tile_base + t];
            ctx.charge_global_read(t);
            if extra_flag_traffic {
                // scan-by-key also streams the flags array.
                ctx.charge_global_read(t);
            }
            let total = tile.iter().fold(op.identity(), |acc, &x| op.combine(acc, x));
            ctx.alu(t.div_ceil(32) as u64);
            ctx.write_global_one(partials.host_view_mut(), bx, total);
        })?;

        // Pass 2: spine scan.
        let cfg = LaunchConfig::new("thrust:spine", (1, 1), (128, 1))
            .shared_elems(128)
            .regs(48)
            .width(AccessWidth::Scalar)
            .bw_derate(0.12);
        gpu.launch::<T, _>(&cfg, |ctx| scan_spine(ctx, op, partials.host_view_mut(), false))?;

        // Pass 3: downsweep.
        let cfg = LaunchConfig::new("thrust:downsweep", (tiles, 1), (128, 1))
            .shared_elems(128)
            .regs(48)
            .width(AccessWidth::Scalar)
            .bw_derate(0.12);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let offset = ctx.read_global_one(partials.host_view(), bx);
            let tile = &mut output.host_view_mut()[tile_base..tile_base + t];
            ctx.read_global(input, tile_base, tile);
            if extra_flag_traffic {
                ctx.charge_global_read(t);
            }
            scan_tile(op, offset, tile);
            charge_tile_scan(ctx, t, false);
            ctx.charge_global_write(t);
        })?;
        Ok(())
    }

    /// `thrust::inclusive_scan_by_key` over the whole batch: one invocation
    /// carrying an extra flags array (one key per element) that marks
    /// problem boundaries.
    pub fn segmented_scan<T: Scannable>(
        &self,
        device: &DeviceSpec,
        problem: ProblemParams,
        input: &[T],
    ) -> ScanResult<ScanOutput<T>>
    where
        O: ScanOp<T>,
    {
        if input.len() != problem.total_elems() {
            return Err(ScanError::InvalidInput(format!(
                "input holds {} elements but G·N = {}",
                input.len(),
                problem.total_elems()
            )));
        }
        let mut gpu = Gpu::new(0, device.clone());
        let _input = gpu.reserve::<T>(input.len())?;
        let mut output = gpu.alloc::<T>(input.len())?;
        // Functionally: per-problem scans (the flags reset the running
        // value at each boundary); cost-wise: one pass over G·N with flag
        // traffic.
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            self.kernels(&mut gpu, input, &mut output, g * n, n, true)?;
        }
        let setup = <Self as ScanLibrary<T>>::invocation_overhead(self);
        Ok(ScanOutput::new(
            output.into_host(),
            library_report("Thrust (segmented)", problem, setup, &gpu),
        ))
    }
}

impl<T: Scannable, O: ScanOp<T>> ScanLibrary<T> for Thrust<O> {
    fn name(&self) -> &'static str {
        "Thrust"
    }

    fn invocation_overhead(&self) -> f64 {
        // Temporary storage cudaMalloc/cudaFree per call.
        12.0e-6
    }

    fn scan_once(
        &self,
        gpu: &mut Gpu,
        input: &[T],
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
    ) -> ScanResult<()> {
        self.kernels(gpu, input, output, base, len, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 53 + 29) % 241) as i32 - 120).collect()
    }

    #[test]
    fn single_problem_matches_reference() {
        let input = pseudo(1 << 13);
        let out = Thrust::new(Add)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(13), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn batch_matches_reference() {
        let problem = ProblemParams::new(10, 3);
        let input = pseudo(problem.total_elems());
        let out = Thrust::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn segmented_scan_matches_reference_and_carries_flag_traffic() {
        let problem = ProblemParams::new(10, 3);
        let input = pseudo(problem.total_elems());
        let lib = Thrust::new(Add);
        let seg = lib.segmented_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &seg.data).unwrap();
        // One host setup only.
        let host = seg.report.timeline.seconds_with_prefix("host:setup");
        assert!((host - 12.0e-6).abs() < 1e-12);
    }

    #[test]
    fn thrust_is_slower_than_a_tuned_library_at_equal_traffic() {
        // The derate + scalar loads must show up in simulated time.
        let device = DeviceSpec::tesla_k80();
        let input = pseudo(1 << 16);
        let problem = ProblemParams::single(16);
        let thrust = Thrust::new(Add).batch_scan(&device, problem, &input).unwrap();
        let cub = crate::cub::Cub::new(Add).batch_scan(&device, problem, &input).unwrap();
        let ratio = thrust.report.seconds() / cub.report.seconds();
        assert!(
            ratio > 3.0,
            "Thrust must be several times slower than CUB at G=1 (got {ratio:.2}x)"
        );
    }
}
