//! CUB's `DeviceScan`: single-pass scan with decoupled look-back
//! (Merrill & Garland). The paper notes "CUB already runs at nearly the
//! maximum theoretical rate for a single GPU" — it moves `2N` bytes (one
//! read, one write) in a single kernel, with inter-tile dependencies
//! resolved through a small descriptor array instead of extra passes.
//!
//! Functional model: one block per 2048-element tile; each block scans its
//! tile, looks back to its predecessor's published inclusive prefix
//! (a serial chain — the simulator's in-order block execution makes the
//! look-back deterministic), publishes its own, and writes the offset tile.
//!
//! Calibration: `bw_derate = 0.9` (look-back traffic and partial-tile
//! overheads keep measured CUB slightly under pure streaming) and a 0.5 µs
//! invocation overhead (temp-storage size query) reproduce CUB's position
//! in Figures 11–12: fastest single-GPU library, ~4% behind the paper's
//! multi-GPU proposal at G = 1.

use gpu_sim::{DeviceBuffer, Gpu, LaunchConfig};
use scan_core::ScanResult;
use skeletons::{ScanOp, Scannable};

use crate::api::{charge_tile_scan, ScanLibrary};

/// Elements per tile (128 threads × 16 items, CUB's default policy class).
const TILE: usize = 2048;

/// The CUB baseline.
#[derive(Debug, Clone, Copy)]
pub struct Cub<O> {
    /// The scan operator.
    pub op: O,
}

impl<O> Cub<O> {
    /// CUB with the given operator.
    pub fn new(op: O) -> Self {
        Cub { op }
    }
}

impl<T: Scannable, O: ScanOp<T>> ScanLibrary<T> for Cub<O> {
    fn name(&self) -> &'static str {
        "CUB"
    }

    fn invocation_overhead(&self) -> f64 {
        0.5e-6
    }

    fn scan_once(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<T>,
        output: &mut DeviceBuffer<T>,
        base: usize,
        len: usize,
    ) -> ScanResult<()> {
        let op = self.op;
        let tiles = len.div_ceil(TILE).max(1);
        // Tile descriptors: each block publishes its running inclusive
        // prefix for successors to consume.
        let mut descriptors = gpu.alloc::<T>(tiles)?;
        let cfg = LaunchConfig::new("cub:decoupled-lookback", (tiles, 1), (128, 1))
            .shared_elems(64)
            .regs(56)
            .serial_chain()
            .bw_derate(0.9);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let mut tile = vec![T::default(); t];
            ctx.read_global(input.host_view(), tile_base, &mut tile);

            // Local inclusive scan of the tile.
            let mut acc = op.identity();
            for v in &mut tile {
                acc = op.combine(acc, *v);
                *v = acc;
            }
            charge_tile_scan(ctx, t, true);

            // Decoupled look-back: consume the predecessor's inclusive
            // prefix, publish our own.
            let prefix = if bx == 0 {
                op.identity()
            } else {
                ctx.read_global_one(descriptors.host_view(), bx - 1)
            };
            ctx.write_global_one(descriptors.host_view_mut(), bx, op.combine(prefix, acc));

            for v in &mut tile {
                *v = op.combine(prefix, *v);
            }
            ctx.alu(t.div_ceil(32) as u64);
            ctx.write_global(output.host_view_mut(), tile_base, &tile);
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use scan_core::ProblemParams;
    use skeletons::{reference_inclusive, Add, Max};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 75 + 74) % 331) as i32 - 165).collect()
    }

    #[test]
    fn single_problem_matches_reference() {
        let input = pseudo(1 << 14);
        let out = Cub::new(Add)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(14), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn partial_tile_at_the_end() {
        // 2^13 + … not a power of two is not expressible via ProblemParams;
        // drive scan_once directly with an odd length.
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let input_data = pseudo(5000);
        let input = gpu.alloc_from(&input_data).unwrap();
        let mut output = gpu.alloc::<i32>(5000).unwrap();
        Cub::new(Add).scan_once(&mut gpu, &input, &mut output, 0, 5000).unwrap();
        assert_eq!(output.copy_to_host(), reference_inclusive(Add, &input_data));
    }

    #[test]
    fn batch_matches_reference_per_problem() {
        let problem = ProblemParams::new(11, 3);
        let input = pseudo(problem.total_elems());
        let out = Cub::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn works_with_max() {
        let input = pseudo(1 << 12);
        let out = Cub::new(Max)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(12), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Max, &input));
    }

    #[test]
    fn single_pass_traffic_is_2n() {
        // CUB's defining property: ~one read + one write of the data set.
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let n = 1 << 16;
        let input_data = pseudo(n);
        let input = gpu.alloc_from(&input_data).unwrap();
        let mut output = gpu.alloc::<i32>(n).unwrap();
        Cub::new(Add).scan_once(&mut gpu, &input, &mut output, 0, n).unwrap();
        let c = gpu.counters();
        let data_transactions = (n * 4 / 128) as u64;
        // Loads: data + one descriptor per tile; stores symmetric.
        let tiles = (n / TILE) as u64;
        assert_eq!(c.gld_transactions, data_transactions + (tiles - 1));
        assert_eq!(c.gst_transactions, data_transactions + tiles);
    }
}
