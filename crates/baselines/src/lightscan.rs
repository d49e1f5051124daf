//! LightScan (Liu & Aluru, the paper's reference \[13\]): a single-pass
//! chained scan where each block's prefix strictly depends on its
//! predecessor's completed result.
//!
//! Unlike CUB's decoupled look-back (which publishes tile *aggregates*
//! early so successors rarely stall), LightScan's chain propagates the full
//! inclusive prefix block-to-block, making the serialisation deeper; it
//! was tuned for compute-capability 5.x and falls behind on the paper's
//! CC 3.7 Kepler parts ("1.31x \[slower\] with respect to LightScan" at
//! G = 1, and the *worst* per-invocation cost in the batch sweep: 549× at
//! n = 13, Fig. 12).
//!
//! Calibration: `bw_derate = 0.65`, a 250 ns chain hop (full prefix
//! dependency vs. CUB's 100 ns look-back) and 175 µs invocation overhead
//! (the library re-uploads launch parameters and synchronises per call).

use gpu_sim::{DeviceBuffer, Gpu, LaunchConfig};
use scan_core::ScanResult;
use skeletons::{ScanOp, Scannable};

use crate::api::{charge_tile_scan, scan_tile, ScanLibrary};

/// Elements per tile.
const TILE: usize = 1024;

/// Chain-hop latency of the full-prefix dependency, in seconds.
const CHAIN_HOP: f64 = 250.0e-9;

/// The LightScan baseline.
#[derive(Debug, Clone, Copy)]
pub struct LightScan<O> {
    /// The scan operator.
    pub op: O,
}

impl<O> LightScan<O> {
    /// LightScan with the given operator.
    pub fn new(op: O) -> Self {
        LightScan { op }
    }
}

impl<T: Scannable, O: ScanOp<T>> ScanLibrary<T> for LightScan<O> {
    fn name(&self) -> &'static str {
        "LightScan"
    }

    fn invocation_overhead(&self) -> f64 {
        175.0e-6
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
        let mut prefixes = gpu.alloc::<T>(tiles)?;
        gpu.timing_mut().chain_hop_latency = CHAIN_HOP;
        let cfg = LaunchConfig::new("lightscan:chained", (tiles, 1), (128, 1))
            .shared_elems(64)
            .regs(48)
            .serial_chain()
            .bw_derate(0.65);
        gpu.launch::<T, _>(&cfg, |ctx| {
            let bx = ctx.block_idx.0;
            let tile_base = base + bx * TILE;
            let t = TILE.min(base + len - tile_base);
            let tile = &mut output.host_view_mut()[tile_base..tile_base + t];
            ctx.read_global(input, tile_base, tile);

            // Wait for the predecessor's full inclusive prefix.
            let prefix = if bx == 0 {
                op.identity()
            } else {
                ctx.read_global_one(prefixes.host_view(), bx - 1)
            };
            let acc = scan_tile(op, prefix, tile);
            charge_tile_scan(ctx, t, true);
            ctx.write_global_one(prefixes.host_view_mut(), bx, acc);
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
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 179 + 41) % 269) as i32 - 134).collect()
    }

    #[test]
    fn single_problem_matches_reference() {
        let input = pseudo(1 << 14);
        let out = LightScan::new(Add)
            .batch_scan(&DeviceSpec::tesla_k80(), ProblemParams::single(14), &input)
            .unwrap();
        assert_eq!(out.data, reference_inclusive(Add, &input));
    }

    #[test]
    fn batch_matches_reference() {
        let problem = ProblemParams::new(10, 3);
        let input = pseudo(problem.total_elems());
        let out =
            LightScan::new(Add).batch_scan(&DeviceSpec::tesla_k80(), problem, &input).unwrap();
        scan_core::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn chain_makes_lightscan_slower_than_cub() {
        let device = DeviceSpec::tesla_k80();
        let input = pseudo(1 << 16);
        let problem = ProblemParams::single(16);
        let ls = LightScan::new(Add).batch_scan(&device, problem, &input).unwrap();
        let cub = crate::cub::Cub::new(Add).batch_scan(&device, problem, &input).unwrap();
        assert!(
            ls.report.seconds() > cub.report.seconds(),
            "LightScan must trail CUB on Kepler ({} vs {})",
            ls.report.seconds(),
            cub.report.seconds()
        );
    }

    #[test]
    fn worst_invocation_overhead_of_the_field() {
        let ls = LightScan::new(Add);
        let others: [f64; 3] = [
            <crate::cub::Cub<Add> as ScanLibrary<i32>>::invocation_overhead(&crate::cub::Cub::new(
                Add,
            )),
            <crate::thrust::Thrust<Add> as ScanLibrary<i32>>::invocation_overhead(
                &crate::thrust::Thrust::new(Add),
            ),
            <crate::moderngpu::ModernGpu<Add> as ScanLibrary<i32>>::invocation_overhead(
                &crate::moderngpu::ModernGpu::new(Add),
            ),
        ];
        let mine = <LightScan<Add> as ScanLibrary<i32>>::invocation_overhead(&ls);
        assert!(others.iter().all(|&o| mine > o), "Fig. 12: LightScan worst at large G");
    }
}
