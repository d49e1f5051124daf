//! Lockstep warp semantics: lane arrays and shuffle data movement.
//!
//! A warp is modelled as 32 lanes executing in lockstep, with per-lane
//! register state held in a `[T; WARP_SIZE]` *lane array*. [`shfl_up`]
//! reproduces CUDA's `__shfl_up_sync`, the shift of the intra-warp
//! register exchange the paper uses to keep shared-memory usage at `s ≤ 5`
//! (§3.1). The skeletons run their other exchanges (the LF scan steps and
//! the reduction tree) as in-place lane loops that charge
//! [`crate::block::BlockCtx::charge_shuffles`] per step.
//!
//! [`shfl_up`] is a pure value-level function; counter charging happens in
//! [`crate::block::BlockCtx`], which wraps it.

/// Number of lanes in a warp. Fixed at 32, as on every CUDA architecture the
/// paper targets ("warpSize = 32 currently", §3.1).
pub const WARP_SIZE: usize = 32;

/// Per-lane register state for one warp.
pub type LaneArray<T> = [T; WARP_SIZE];

/// `__shfl_up_sync`: lane `i` receives the value of lane `i - delta`.
///
/// Lanes with `i < delta` keep their own value, matching CUDA, where the
/// source lane index is not wrapped and the lane's own value is returned.
pub fn shfl_up<T: Copy>(vals: &LaneArray<T>, delta: usize) -> LaneArray<T> {
    let mut out = *vals;
    if delta < WARP_SIZE {
        out[delta..].copy_from_slice(&vals[..WARP_SIZE - delta]);
    }
    out
}

/// Identifier helpers for a linear thread index within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId;

impl LaneId {
    /// Lane index (0..32) of a linear thread index.
    pub fn lane_of(thread: usize) -> usize {
        thread % WARP_SIZE
    }

    /// Warp index within the block of a linear thread index.
    pub fn warp_of(thread: usize) -> usize {
        thread / WARP_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota() -> LaneArray<i32> {
        std::array::from_fn(|i| i as i32)
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn shfl_up_shifts_and_keeps_low_lanes() {
        let v = iota();
        let r = shfl_up(&v, 1);
        assert_eq!(r[0], 0, "lane 0 keeps its value");
        for i in 1..WARP_SIZE {
            assert_eq!(r[i], (i - 1) as i32);
        }
        let r4 = shfl_up(&v, 4);
        assert_eq!(&r4[..4], &[0, 1, 2, 3], "lanes < delta keep their values");
        assert_eq!(r4[4], 0);
        assert_eq!(r4[31], 27);
    }

    #[test]
    fn shfl_up_zero_delta_is_identity() {
        let v = iota();
        assert_eq!(shfl_up(&v, 0), v);
    }

    #[test]
    fn lane_and_warp_ids() {
        assert_eq!(LaneId::lane_of(0), 0);
        assert_eq!(LaneId::lane_of(33), 1);
        assert_eq!(LaneId::warp_of(33), 1);
        assert_eq!(LaneId::warp_of(127), 3);
        assert_eq!(LaneId::lane_of(127), 31);
    }
}
