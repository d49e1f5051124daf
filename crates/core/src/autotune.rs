//! Empirical `K¹` search.
//!
//! §3.2: "once the (s, p, l) is determined using previous premises, all
//! possible K values that meet Eq. 1 are tested … choosing the one which
//! maximizes the global performance. … Currently, this search is not done
//! automatically, but is part of the future work." This module *is* that
//! future work: it sweeps the premise-trimmed search space and picks the
//! fastest configuration.

use gpu_sim::DeviceSpec;
use skeletons::{ScanOp, Scannable};

use crate::error::{ScanError, ScanResult};
use crate::exec::Launch;
use crate::params::{ProblemParams, ScanKind};
use crate::premises;
use crate::report::ScanOutput;
use crate::single::{scan_sp, single_gpu_fabric};

/// Outcome of a `K` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The winning `k = log2 K¹`.
    pub best_k: u32,
    /// Every candidate with its simulated duration, in sweep order.
    pub samples: Vec<(u32, f64)>,
}

impl TuneResult {
    /// The winning duration in seconds.
    pub fn best_seconds(&self) -> f64 {
        self.samples
            .iter()
            .find(|(k, _)| *k == self.best_k)
            .map(|&(_, s)| s)
            .expect("best_k is always sampled")
    }
}

/// Sweep `candidates`, timing each with `run`; returns the fastest.
///
/// Candidates that fail to plan (e.g. a `K` that violates Eq. 2/3 for the
/// caller's GPU count) are skipped; errors other than
/// [`ScanError::InvalidConfig`] abort the sweep.
pub fn autotune_k(
    candidates: &[u32],
    mut run: impl FnMut(u32) -> ScanResult<f64>,
) -> ScanResult<TuneResult> {
    let mut samples = Vec::with_capacity(candidates.len());
    for &k in candidates {
        match run(k) {
            Ok(seconds) => samples.push((k, seconds)),
            Err(ScanError::InvalidConfig(_)) => continue,
            Err(other) => return Err(other),
        }
    }
    let best = samples
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("durations are finite"))
        .ok_or_else(|| {
        ScanError::InvalidConfig("no feasible K candidate for this configuration".into())
    })?;
    Ok(TuneResult { best_k: best.0, samples: samples.clone() })
}

/// Convenience: autotune `K` for Scan-SP over the premise search space and
/// return the winning run.
pub fn autotune_scan_sp<T: Scannable, O: ScanOp<T>>(
    op: O,
    device: &DeviceSpec,
    problem: ProblemParams,
    input: &[T],
) -> ScanResult<(ScanOutput<T>, TuneResult)> {
    let base = premises::derive_tuple(device, std::mem::size_of::<T>(), 0);
    let space = premises::k_search_space(device, &problem, &base, 1);
    if space.is_empty() {
        return Err(ScanError::InvalidConfig(
            "problem too small for the premise tuple on one GPU".into(),
        ));
    }
    let fabric = single_gpu_fabric();
    let launch = |k: u32| Launch {
        op,
        problem,
        tuple: base.with_k(k),
        kind: ScanKind::Inclusive,
        policy: Default::default(),
        device,
        fabric: &fabric,
        faults: None,
    };
    let tune = autotune_k(&space, |k| scan_sp(&launch(k), input).map(|o| o.report.seconds()))?;
    let best = scan_sp(&launch(tune.best_k), input)?;
    Ok((best, tune))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{reference_inclusive, Add};

    #[test]
    fn picks_the_minimum() {
        let result = autotune_k(&[0, 1, 2, 3], |k| Ok(10.0 - k as f64)).unwrap();
        assert_eq!(result.best_k, 3);
        assert_eq!(result.samples.len(), 4);
        assert!((result.best_seconds() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn skips_infeasible_candidates() {
        let result = autotune_k(&[0, 1, 2], |k| {
            if k == 1 {
                Err(ScanError::InvalidConfig("nope".into()))
            } else {
                Ok(k as f64 + 1.0)
            }
        })
        .unwrap();
        assert_eq!(result.best_k, 0);
        assert_eq!(result.samples.len(), 2);
    }

    #[test]
    fn all_infeasible_is_an_error() {
        let err = autotune_k(&[0, 1], |_| Err::<f64, _>(ScanError::InvalidConfig("x".into())))
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
    }

    #[test]
    fn hard_errors_abort() {
        let err = autotune_k(&[0, 1], |_| Err::<f64, _>(ScanError::InvalidInput("broken".into())))
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidInput(_)));
    }

    #[test]
    fn scan_sp_autotune_end_to_end() {
        let device = DeviceSpec::tesla_k80();
        let problem = ProblemParams::new(14, 2);
        let input: Vec<i32> = (0..problem.total_elems()).map(|i| (i % 7) as i32 - 3).collect();
        let (out, tune) = autotune_scan_sp(Add, &device, problem, &input).unwrap();
        // Result is correct whatever K won.
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            assert_eq!(
                &out.data[g * n..(g + 1) * n],
                &reference_inclusive(Add, &input[g * n..(g + 1) * n])[..]
            );
        }
        assert!(!tune.samples.is_empty());
        assert!(tune.samples.iter().all(|&(_, s)| s > 0.0));
        // The winner really is the minimum of the samples.
        let min = tune.samples.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
        assert!((tune.best_seconds() - min).abs() < 1e-15);
    }

    #[test]
    fn tiny_problem_fails_cleanly() {
        let device = DeviceSpec::tesla_k80();
        let problem = ProblemParams::new(8, 0);
        let input = vec![1i32; 256];
        assert!(autotune_scan_sp(Add, &device, problem, &input).is_err());
    }
}
