//! The cascade approach (Figure 5 of the paper).
//!
//! Instead of launching one block per `P · Lx` elements, each block executes
//! `K` iterations over consecutive sub-tiles, carrying the running total
//! from one iteration into the next: "Once one iteration has computed
//! `Lx · P` elements, the last one is passed to the next iteration, adding
//! this value to all `Lx · P` elements of that iteration" (§3.1). This
//! "avoids launching an excessive number of blocks, and allows thread
//! information to be reused".
//!
//! [`Cascade`] is the carry accumulator; the stage kernels drive it.

use gpu_sim::DeviceCopy;

use crate::op::ScanOp;

/// Running carry across the `K` iterations of one block's chunk.
#[derive(Debug, Clone, Copy)]
pub struct Cascade<T, O> {
    op: O,
    carry: T,
    iterations: usize,
}

impl<T: DeviceCopy, O: ScanOp<T>> Cascade<T, O> {
    /// Start a cascade with the operator's identity as carry.
    pub fn new(op: O) -> Self {
        Cascade { op, carry: op.identity(), iterations: 0 }
    }

    /// Start a cascade from an externally supplied prefix (Stage 3 seeds
    /// the cascade with the chunk's offset from the auxiliary array).
    pub fn with_prefix(op: O, prefix: T) -> Self {
        Cascade { op, carry: prefix, iterations: 0 }
    }

    /// The prefix to combine into the current iteration's elements.
    pub fn carry(&self) -> T {
        self.carry
    }

    /// Absorb one iteration's tile total into the carry.
    pub fn absorb(&mut self, iteration_total: T) {
        self.carry = self.op.combine(self.carry, iteration_total);
        self.iterations += 1;
    }

    /// Number of iterations absorbed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Finish the cascade, returning the chunk total (the carry after all
    /// `K` iterations). For Stage 1 this is the value written to the
    /// auxiliary array.
    pub fn finish(self) -> T {
        self.carry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_scan::block_scan_inclusive;
    use crate::op::{reference_inclusive, reference_reduce, Add, Max};
    use gpu_sim::{BlockCtx, DeviceSpec, Gpu, LaunchConfig};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 1103515245 + 12345) % 211) as i32 - 100).collect()
    }

    #[test]
    fn carry_accumulates_iteration_totals() {
        let mut c = Cascade::new(Add);
        assert_eq!(c.carry(), 0);
        c.absorb(5);
        c.absorb(7);
        assert_eq!(c.carry(), 12);
        assert_eq!(c.iterations(), 2);
        assert_eq!(c.finish(), 12);
    }

    #[test]
    fn with_prefix_seeds_the_carry() {
        let mut c = Cascade::with_prefix(Add, 100);
        c.absorb(1);
        assert_eq!(c.carry(), 101);
    }

    #[test]
    fn max_cascade_tracks_running_maximum() {
        let mut c = Cascade::new(Max);
        c.absorb(3);
        c.absorb(-5);
        c.absorb(9);
        assert_eq!(c.finish(), 9);
    }

    /// Full cascade over K iterations reproduces the scan of the whole
    /// chunk — the paper's Figure 5 behaviour.
    #[test]
    fn cascaded_block_scan_equals_chunk_scan() {
        let warps = 4;
        let p = 8;
        let per_iter = warps * 32 * p; // 1024
        let k = 4;
        let src = pseudo(per_iter * k);
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let mut dst = vec![0i32; src.len()];

        let cfg = LaunchConfig::new("cascade", (1, 1), (128, 1)).shared_elems(32).regs(64);
        let mut chunk_total = 0;
        gpu.launch::<i32, _>(&cfg, |ctx: &mut BlockCtx<'_, i32>| {
            let mut cascade = Cascade::new(Add);
            for iter in 0..k {
                let window = iter * per_iter..(iter + 1) * per_iter;
                let carry = cascade.carry();
                let total = block_scan_inclusive(
                    ctx,
                    Add,
                    p,
                    &src[window.clone()],
                    &mut dst[window],
                    Some(carry),
                );
                cascade.absorb(total);
            }
            chunk_total = cascade.finish();
        })
        .unwrap();

        assert_eq!(dst, reference_inclusive(Add, &src));
        assert_eq!(chunk_total, reference_reduce(Add, &src));
    }
}
