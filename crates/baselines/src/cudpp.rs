//! CUDPP's scan: the classic scan-scan-add decomposition
//! (Sengupta, Harris, Garland — the paper's reference \[20\]), plus the
//! `multiScan` batch entry point, "the only \[library\] supporting this
//! feature" (§5.1).
//!
//! Three kernels per invocation:
//! 1. **scan-blocks** — every 1024-element block is scanned in shared
//!    memory (pre-shuffle pattern) and written back *in full*, with the
//!    block sum saved aside. This is exactly the extra full write the
//!    paper's Stage 1 avoids ("storing one element per chunk … is
//!    preferable to writing all elements in global memory twice", §3.1).
//! 2. **scan-sums** — exclusive scan of the block sums.
//! 3. **uniform-add** — re-read the scanned blocks, add each block's
//!    offset, write the final result.
//!
//! Traffic: ~4N (vs. the proposal's ~3N and CUB's ~2N), which is what
//! positions CUDPP between CUB and ModernGPU in Fig. 11.

use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu, LaunchConfig};
use scan_core::{ProblemParams, ScanError, ScanOutput, ScanResult};
use skeletons::{ScanOp, Scannable};

use crate::api::{charge_tile_scan, library_report, scan_spine, scan_tile, ScanLibrary};

/// Elements per block tile (256 threads × 4 elements).
const TILE: usize = 1024;

/// The CUDPP baseline.
#[derive(Debug, Clone, Copy)]
pub struct Cudpp<O> {
    /// The scan operator.
    pub op: O,
}

impl<O> Cudpp<O> {
    /// CUDPP with the given operator.
    pub fn new(op: O) -> Self {
        Cudpp { op }
    }
}

impl<O: Copy + Send + Sync + 'static> Cudpp<O> {
    /// The three scan-scan-add kernels over a 2-D grid: `gx` tiles per
    /// problem, `gy` problems (`gy > 1` is the `multiScan` path).
    fn run_kernels<T: Scannable>(
        &self,
        gpu: &mut Gpu,
        input: &[T],
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
        problems: usize,
    ) -> ScanResult<()>
    where
        O: ScanOp<T>,
    {
        let op = self.op;
        let tiles = len.div_ceil(TILE).max(1);
        let mut sums = gpu.alloc::<T>(tiles * problems)?;

        // Kernel 1: scan each block in shared memory, write scanned block
        // and its sum.
        let cfg = LaunchConfig::new("cudpp:scan-blocks", (tiles, problems), (256, 1))
            .shared_elems(TILE.min(12 * 1024 / std::mem::size_of::<T>()))
            .regs(32);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let (bx, g) = ctx.block_idx;
            let tile_base = base + g * len + bx * TILE;
            let t = TILE.min(base + (g + 1) * len - tile_base);
            let tile = &mut output.host_view_mut()[tile_base..tile_base + t];
            ctx.read_global(input, tile_base, tile);
            let acc = scan_tile(op, op.identity(), tile);
            charge_tile_scan(ctx, t, false);
            ctx.charge_global_write(t);
            ctx.write_global_one(sums.host_view_mut(), g * tiles + bx, acc);
        })?;

        // Kernel 2: exclusive scan of the block sums, one problem per row.
        let cfg = LaunchConfig::new("cudpp:scan-sums", (1, problems), (256, 1))
            .shared_elems(512.min(12 * 1024 / std::mem::size_of::<T>()))
            .regs(32);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let (_, g) = ctx.block_idx;
            scan_spine(ctx, op, &mut sums.host_view_mut()[g * tiles..(g + 1) * tiles], false);
        })?;

        // Kernel 3: uniform add of each block's offset.
        let cfg = LaunchConfig::new("cudpp:uniform-add", (tiles, problems), (256, 1)).regs(24);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let (bx, g) = ctx.block_idx;
            let tile_base = base + g * len + bx * TILE;
            let t = TILE.min(base + (g + 1) * len - tile_base);
            let offset = ctx.read_global_one(sums.host_view(), g * tiles + bx);
            let tile = &mut output.host_view_mut()[tile_base..tile_base + t];
            ctx.charge_global_read(t);
            for v in tile {
                *v = op.combine(offset, *v);
            }
            ctx.alu(t.div_ceil(32) as u64);
            ctx.charge_global_write(t);
        })?;
        Ok(())
    }
}

impl<T: Scannable, O: ScanOp<T>> ScanLibrary<T> for Cudpp<O> {
    fn name(&self) -> &'static str {
        "CUDPP"
    }

    fn invocation_overhead(&self) -> f64 {
        // CUDPP plans are created once; per-call dispatch is cheap.
        3.0e-6
    }

    fn scan_once(
        &self,
        gpu: &mut Gpu,
        input: &[T],
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
    ) -> ScanResult<()> {
        self.run_kernels(gpu, input, output, base, len, 1)
    }

    /// `cudppMultiScan`: the whole batch in one invocation, with the grid's
    /// second dimension indexing problems.
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
        let _input = gpu.reserve::<T>(input.len())?;
        let mut output = gpu.alloc::<T>(input.len())?;
        self.run_kernels(&mut gpu, input, &mut output, 0, problem.problem_size(), problem.batch())?;
        let setup = self.invocation_overhead();
        Ok(ScanOutput::new(output.into_host(), library_report("CUDPP", problem, setup, &gpu)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{reference_inclusive, Add, Max};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 97 + 13) % 293) as i32 - 146).collect()
    }

    #[test]
    fn single_problem_matches_reference() {
        let input = pseudo(1 << 13);
        let out = Cudpp::new(Add)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(13), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn multiscan_batch_matches_reference() {
        let problem = ProblemParams::new(11, 4);
        let input = pseudo(problem.total_elems());
        let out = Cudpp::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn multiscan_is_one_invocation() {
        // Unlike the default batch path, multiScan pays the host overhead
        // once regardless of G.
        let problem = ProblemParams::new(10, 5); // 32 problems
        let input = pseudo(problem.total_elems());
        let out = Cudpp::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        let host = out.report.timeline.seconds_with_prefix("host:setup");
        assert!((host - 3.0e-6).abs() < 1e-12, "one setup charge, got {host}");
    }

    #[test]
    fn max_operator() {
        let input = pseudo(1 << 12);
        let out = Cudpp::new(Max)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(12), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Max, &input));
    }

    #[test]
    fn traffic_is_roughly_4n() {
        // The scan-scan-add cost the paper's design avoids: ~2N read, ~2N
        // write.
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let n = 1 << 16;
        let data = pseudo(n);
        let mut output = gpu.alloc::<i32>(n).unwrap();
        Cudpp::new(Add).scan_once(&mut gpu, &data, &mut output, 0, n).unwrap();
        let c = gpu.counters();
        let n_transactions = (n * 4 / 128) as u64;
        assert!(c.gld_transactions >= 2 * n_transactions, "two full reads");
        assert!(c.gst_transactions >= 2 * n_transactions, "two full writes");
        assert!(c.gld_transactions < 2 * n_transactions + 200);
    }
}
