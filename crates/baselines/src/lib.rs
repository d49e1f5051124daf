//! # baselines — the competing scan libraries of §5
//!
//! Re-implementations of the five libraries the paper benchmarks against,
//! each running its published algorithm *functionally* on the
//! [`gpu_sim`] simulator:
//!
//! | Library | Algorithm | Traffic | Batch support |
//! |---|---|---|---|
//! | [`Cudpp`] | scan-scan-add (Sengupta et al.) | ~4N | `multiScan` (native) |
//! | [`Thrust`] | reduce-then-scan, generic iterators | ~3N | G invocations or segmented |
//! | [`ModernGpu`] | raking reduce-then-scan | ~3N | G invocations |
//! | [`Cub`] | decoupled look-back, single pass | ~2N | G invocations |
//! | [`LightScan`] | chained scan, single pass | ~2N | G invocations |
//!
//! Per-library constants (invocation overhead, bandwidth derate, chain
//! latency) are calibration inputs documented on each type and in
//! EXPERIMENTS.md; the algorithmic structure (passes, traffic, launch
//! counts, chaining) is what produces the paper's relative orderings.

#![warn(missing_docs)]

pub mod api;
pub mod cub;
pub mod cudpp;
pub mod lightscan;
pub mod moderngpu;
pub mod thrust;

pub use api::ScanLibrary;
pub use cub::Cub;
pub use cudpp::Cudpp;
pub use lightscan::LightScan;
pub use moderngpu::ModernGpu;
pub use thrust::Thrust;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use scan_core::ProblemParams;
    use skeletons::Add;

    /// Differential test: every library agrees with every other on the
    /// same workload.
    #[test]
    fn all_libraries_agree() {
        let device = DeviceSpec::tesla_k80();
        let problem = ProblemParams::new(11, 2);
        let input: Vec<i32> =
            (0..problem.total_elems()).map(|i| ((i * 37) % 101) as i32 - 50).collect();
        let outputs: Vec<Vec<i32>> = vec![
            Cudpp::new(Add).batch_scan(&device, problem, &input).unwrap().data,
            Thrust::new(Add).batch_scan(&device, problem, &input).unwrap().data,
            ModernGpu::new(Add).batch_scan(&device, problem, &input).unwrap().data,
            Cub::new(Add).batch_scan(&device, problem, &input).unwrap().data,
            LightScan::new(Add).batch_scan(&device, problem, &input).unwrap().data,
        ];
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        scan_core::verify::verify_batch(Add, problem, &input, &outputs[0]).unwrap();
    }

    /// The G=1 single-GPU ordering of Fig. 11: CUB fastest, then
    /// CUDPP/ModernGPU/LightScan, Thrust far behind.
    #[test]
    fn figure11_single_gpu_ordering() {
        let device = DeviceSpec::tesla_k80();
        let problem = ProblemParams::single(18);
        let input: Vec<i32> = (0..problem.total_elems()).map(|i| (i % 3) as i32).collect();
        let time = |lib: &dyn ScanLibrary<i32>| {
            lib.batch_scan(&device, problem, &input).unwrap().report.seconds()
        };
        let cub = time(&Cub::new(Add));
        let cudpp = time(&Cudpp::new(Add));
        let mgpu = time(&ModernGpu::new(Add));
        let ls = time(&LightScan::new(Add));
        let thrust = time(&Thrust::new(Add));
        assert!(cub < cudpp, "CUB beats CUDPP ({cub} vs {cudpp})");
        assert!(cub < mgpu);
        assert!(cub < ls);
        assert!(cudpp < thrust);
        assert!(mgpu < thrust, "Thrust is the G=1 laggard");
        assert!(thrust / cub > 3.0, "Thrust trails by a wide margin");
    }
}
