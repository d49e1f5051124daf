//! ModernGPU's `scan`: two-pass reduce-then-scan with raking CTAs
//! (Sean Baxter's mgpu 2.0).
//!
//! 1. **reduce** — one raking pass produces one partial per tile (read N,
//!    write N/TILE);
//! 2. **spine** — a single CTA scans the partials;
//! 3. **downsweep** — re-read the data, scan each tile seeded with its
//!    offset, write the result (read N, write N).
//!
//! Traffic ~3N. ModernGPU is a source-code library tuned for
//! composability, not peak streaming: `bw_derate = 0.7` and a hefty
//! per-invocation host cost (context creation, launch-box selection,
//! kernel specialisation) calibrated against Fig. 12's G-invocations
//! penalty — the paper measures it *slower than Thrust* for large G
//! (245× vs 71× at n = 13) despite beating it at G = 1.

use gpu_sim::{DeviceBuffer, Gpu, LaunchConfig};
use scan_core::ScanResult;
use skeletons::{ScanOp, Scannable};

use crate::api::{charge_tile_scan, scan_spine, scan_tile, ScanLibrary};

/// Elements per tile (128 threads × 8 values, mgpu's launch box default).
const TILE: usize = 1024;

/// The ModernGPU baseline.
#[derive(Debug, Clone, Copy)]
pub struct ModernGpu<O> {
    /// The scan operator.
    pub op: O,
}

impl<O> ModernGpu<O> {
    /// ModernGPU with the given operator.
    pub fn new(op: O) -> Self {
        ModernGpu { op }
    }
}

impl<T: Scannable, O: ScanOp<T>> ScanLibrary<T> for ModernGpu<O> {
    fn name(&self) -> &'static str {
        "ModernGPU"
    }

    fn invocation_overhead(&self) -> f64 {
        // Context + launch-box machinery per call.
        70.0e-6
    }

    fn scan_once(
        &self,
        gpu: &mut Gpu,
        input: &[T],
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
    ) -> ScanResult<()> {
        let op = self.op;
        let tiles = len.div_ceil(TILE).max(1);
        let mut partials = gpu.alloc::<T>(tiles)?;

        // Pass 1: raking reduction per tile.
        let cfg = LaunchConfig::new("mgpu:reduce", (tiles, 1), (128, 1))
            .shared_elems(32)
            .regs(40)
            .bw_derate(0.7);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let tile = &input[tile_base..tile_base + t];
            ctx.charge_global_read(t);
            let total = tile.iter().fold(op.identity(), |acc, &x| op.combine(acc, x));
            ctx.alu(t.div_ceil(32) as u64);
            ctx.charge_shuffles(5);
            ctx.write_global_one(partials.host_view_mut(), bx, total);
        })?;

        // Pass 2: spine scan of the partials in one CTA.
        let cfg = LaunchConfig::new("mgpu:spine", (1, 1), (128, 1))
            .shared_elems(32)
            .regs(40)
            .bw_derate(0.7);
        gpu.launch::<T, _>(&cfg, |ctx| scan_spine(ctx, op, partials.host_view_mut(), true))?;

        // Pass 3: downsweep scan seeded with the tile offsets.
        let cfg = LaunchConfig::new("mgpu:downsweep", (tiles, 1), (128, 1))
            .shared_elems(32)
            .regs(40)
            .bw_derate(0.7);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let offset = ctx.read_global_one(partials.host_view(), bx);
            let tile = &mut output.host_view_mut()[tile_base..tile_base + t];
            ctx.read_global(input, tile_base, tile);
            scan_tile(op, offset, tile);
            charge_tile_scan(ctx, t, true);
            ctx.charge_global_write(t);
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use scan_core::ProblemParams;
    use skeletons::{reference_inclusive, Add, Min};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 211 + 5) % 389) as i32 - 194).collect()
    }

    #[test]
    fn single_problem_matches_reference() {
        let input = pseudo(1 << 14);
        let out = ModernGpu::new(Add)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(14), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn batch_matches_reference() {
        let problem = ProblemParams::new(10, 4);
        let input = pseudo(problem.total_elems());
        let out =
            ModernGpu::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn min_operator() {
        let input = pseudo(1 << 12);
        let out = ModernGpu::new(Min)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(12), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Min, &input));
    }

    #[test]
    fn traffic_is_roughly_3n() {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let n = 1 << 16;
        let data = pseudo(n);
        let mut output = gpu.alloc::<i32>(n).unwrap();
        ModernGpu::new(Add).scan_once(&mut gpu, &data, &mut output, 0, n).unwrap();
        let c = gpu.counters();
        let n_transactions = (n * 4 / 128) as u64;
        assert!(c.gld_transactions >= 2 * n_transactions, "two full reads");
        assert!(c.gld_transactions < 2 * n_transactions + 200);
        assert!(c.gst_transactions >= n_transactions, "one full write");
        assert!(c.gst_transactions < n_transactions + 200);
    }

    #[test]
    fn per_invocation_overhead_dominates_small_batches() {
        // The Fig. 12 effect: many tiny invocations are overhead-bound.
        let device = DeviceSpec::tesla_k80();
        let input = pseudo(1 << 14);
        let one =
            ModernGpu::new(Add).batch_scan(&device, ProblemParams::single(14), &input).unwrap();
        let many =
            ModernGpu::new(Add).batch_scan(&device, ProblemParams::new(10, 4), &input).unwrap();
        assert!(many.report.seconds() > 2.0 * one.report.seconds());
    }
}
