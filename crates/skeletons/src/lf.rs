//! The Ladner-Fischer scan network.
//!
//! The paper's kernels follow "the Ladner-Fischer pattern (LF) \[18\] … chosen
//! since \[it\] matches very well to GPU architectures" (§3). Figure 1 shows
//! the network for N = 8: a minimum-depth construction where, at step `t`,
//! every 2^(t+1)-element sub-block broadcasts its pivot (the last element of
//! the lower half) into all elements of the upper half. The scan finishes in
//! exactly `n = log2 N` steps ("the problems are solved along n
//! computational steps", §2.1).
//!
//! This module generates the network explicitly — used by tests and to
//! print Figure 1 — and applies it in place for Stage 2's row scans. The
//! warp skeleton walks the same steps over its 32 lanes.

use crate::op::{ScanOp, Scannable};

/// One combine edge of the network: `data[dst] = op(data[src], data[dst])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source (pivot) index.
    pub src: usize,
    /// Destination index.
    pub dst: usize,
}

/// The edges of step `t` (0-based) of the LF network over `n` elements.
///
/// `n` need not be a power of two; sub-blocks are truncated at the edge,
/// which preserves correctness.
pub fn step_edges(n: usize, t: u32) -> Vec<Edge> {
    let half = 1usize << t;
    let block = half << 1;
    let mut edges = Vec::new();
    let mut start = 0;
    while start + half < n {
        let src = start + half - 1;
        let end = (start + block).min(n);
        for dst in start + half..end {
            edges.push(Edge { src, dst });
        }
        start += block;
    }
    edges
}

/// Number of steps the network needs for `n` elements: `ceil(log2 n)`.
pub fn depth(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Total combine operations over all steps.
pub fn work(n: usize) -> usize {
    (0..depth(n)).map(|t| step_edges(n, t).len()).sum()
}

/// Apply the full LF network in place, producing an inclusive scan.
///
/// Walks each step's edges ([`step_edges`]) without listing them: every
/// sub-block's pivot combines into the sub-block's upper half. The edges of
/// a step are independent because no pivot is a destination of its own
/// step, so updating in place reads what the lockstep hardware would.
pub fn scan_inplace<T: Scannable, O: ScanOp<T>>(op: O, data: &mut [T]) {
    for t in 0..depth(data.len()) {
        let half = 1usize << t;
        for block in data.chunks_mut(half << 1).filter(|b| b.len() > half) {
            let pivot = block[half - 1];
            for x in &mut block[half..] {
                *x = op.combine(pivot, *x);
            }
        }
    }
}

/// Render the network as text (the harness prints this as "Figure 1").
pub fn render(n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Ladner-Fischer network, N = {n} ({} steps):", depth(n)).unwrap();
    for t in 0..depth(n) {
        let edges = step_edges(n, t);
        let desc: Vec<String> = edges.iter().map(|e| format!("{}->{}", e.src, e.dst)).collect();
        writeln!(out, "  step {}: {}", t + 1, desc.join("  ")).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{reference_inclusive, Add, Max};

    #[test]
    fn figure1_example() {
        // Figure 1 of the paper: N=8 inclusive add scan.
        let mut data = vec![3, 1, 7, 0, 4, 1, 6, 3];
        scan_inplace(Add, &mut data);
        assert_eq!(data, vec![3, 4, 11, 11, 15, 16, 22, 25]);
    }

    #[test]
    fn depth_is_log2() {
        assert_eq!(depth(1), 0);
        assert_eq!(depth(2), 1);
        assert_eq!(depth(8), 3, "N=8 is solved in 3 steps as Figure 1 shows");
        assert_eq!(depth(32), 5);
        assert_eq!(depth(33), 6);
        assert_eq!(depth(0), 0);
    }

    #[test]
    fn n8_network_structure_matches_figure1() {
        // Step 1: adjacent pairs.
        assert_eq!(
            step_edges(8, 0),
            vec![
                Edge { src: 0, dst: 1 },
                Edge { src: 2, dst: 3 },
                Edge { src: 4, dst: 5 },
                Edge { src: 6, dst: 7 },
            ]
        );
        // Step 2: pivots 1 and 5 broadcast into their upper halves.
        assert_eq!(
            step_edges(8, 1),
            vec![
                Edge { src: 1, dst: 2 },
                Edge { src: 1, dst: 3 },
                Edge { src: 5, dst: 6 },
                Edge { src: 5, dst: 7 },
            ]
        );
        // Step 3: pivot 3 broadcasts into 4..8.
        assert_eq!(
            step_edges(8, 2),
            vec![
                Edge { src: 3, dst: 4 },
                Edge { src: 3, dst: 5 },
                Edge { src: 3, dst: 6 },
                Edge { src: 3, dst: 7 },
            ]
        );
    }

    #[test]
    fn work_count_is_half_n_log_n_for_powers_of_two() {
        // Sklansky/LF work: N/2 * log2 N.
        assert_eq!(work(8), 12);
        assert_eq!(work(32), 80);
        assert_eq!(work(2), 1);
    }

    #[test]
    fn matches_reference_on_non_powers_of_two() {
        for n in [1usize, 3, 5, 7, 12, 100, 255] {
            let data: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
            let mut scanned = data.clone();
            scan_inplace(Add, &mut scanned);
            assert_eq!(scanned, reference_inclusive(Add, &data), "n={n}");
        }
    }

    #[test]
    fn works_with_non_invertible_operators() {
        let data: Vec<i32> = vec![5, 2, 9, 1, 7, 7, 0, 12];
        let mut scanned = data.clone();
        scan_inplace(Max, &mut scanned);
        assert_eq!(scanned, reference_inclusive(Max, &data));
    }

    #[test]
    fn render_mentions_every_step() {
        let s = render(8);
        assert!(s.contains("3 steps"));
        assert!(s.contains("step 3"));
        assert!(s.contains("3->7"));
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let mut empty: Vec<i32> = vec![];
        scan_inplace(Add, &mut empty);
        assert!(empty.is_empty());
        let mut one = vec![42];
        scan_inplace(Add, &mut one);
        assert_eq!(one, vec![42]);
    }
}
