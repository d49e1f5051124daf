//! Differential test of the window skeletons (`block_scan_inclusive`,
//! `block_scan_exclusive`, `block_reduce`) against the owned-tile route
//! they replaced.
//!
//! The owned-tile route loaded every warp's `32 · P` elements into a heap
//! tile, walked each LF shuffle step through a table of source lanes and
//! reduced through a full `shfl_xor` butterfly. It survives here only as
//! [`oracle`]. Every case compares output bits (`to_bits` for floats), the
//! returned total and every `CostCounters` field with the oracle's, and the
//! per-operator digests below were recorded from the owned-tile route
//! before the window skeletons replaced it.

// The oracle's warp-indexed loops mirror the CUDA kernels it models, as the
// skeletons crate's own loops do.
#![allow(clippy::needless_range_loop)]

use gpu_sim::{CostCounters, DeviceCopy, DeviceSpec, Gpu, LaunchConfig};
use skeletons::{
    block_reduce, block_scan_exclusive, block_scan_inclusive, Add, AffinePair, GatedOp, Max,
    ScanOp, SegPair, SegmentedAdd,
};

/// An element whose bits the digest and the comparison read, and which
/// the deterministic input generator can sample.
trait Element: DeviceCopy {
    fn push_bits(self, out: &mut Vec<u64>);
    fn sample(rng: &mut u64) -> Self;
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A float in `[-1, 1)`, `-0.0` one time in sixteen.
fn signed_unit(rng: &mut u64) -> f64 {
    let r = splitmix(rng);
    if r.is_multiple_of(16) {
        -0.0
    } else {
        ((r >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

impl Element for i32 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(u64::from(self as u32));
    }
    fn sample(rng: &mut u64) -> Self {
        (splitmix(rng) >> 32) as i32
    }
}

impl Element for f64 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
    fn sample(rng: &mut u64) -> Self {
        // Mixed magnitudes make every reassociation visible in the low bits.
        let scale = if splitmix(rng).is_multiple_of(8) { 1.0e12 } else { 100.0 };
        signed_unit(rng) * scale
    }
}

impl Element for AffinePair<f64> {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.a.to_bits());
        out.push(self.b.to_bits());
    }
    fn sample(rng: &mut u64) -> Self {
        let gate = 1.0 + 0.5 * signed_unit(rng);
        AffinePair::new(gate, signed_unit(rng))
    }
}

impl Element for SegPair<i32> {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(u64::from(self.v as u32) | (u64::from(self.reset) << 32));
    }
    fn sample(rng: &mut u64) -> Self {
        let r = splitmix(rng);
        SegPair::new((r % 2001) as i32 - 1000, (r >> 40).is_multiple_of(8))
    }
}

/// The kernels under comparison: the window skeletons or the oracle.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Route {
    Window,
    Oracle,
}

/// One skeleton call of a case.
#[derive(Clone, Copy, Debug)]
enum Call<T> {
    Inclusive(Option<T>),
    Exclusive(T),
    Reduce,
}

/// One case's observable outcome, as bits.
#[derive(PartialEq, Debug)]
struct Outcome {
    out: Vec<u64>,
    total: Vec<u64>,
    counters: [u64; 10],
}

fn counter_fields(c: &CostCounters) -> [u64; 10] {
    [
        c.gld_transactions,
        c.gst_transactions,
        c.gld_instructions,
        c.gst_instructions,
        c.shared_loads,
        c.shared_stores,
        c.shuffles,
        c.alu_ops,
        c.syncs,
        c.launches,
    ]
}

fn run<T: Element, O: ScanOp<T>>(
    route: Route,
    op: O,
    p: usize,
    call: Call<T>,
    src: &[T],
) -> Outcome {
    let warps = src.len() / (32 * p);
    let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
    let cfg = LaunchConfig::new("window", (1, 1), (warps * 32, 1)).shared_elems(32).regs(64);
    // The window starts as garbage: a kernel must not read what it has
    // not written.
    let mut window = vec![T::sample(&mut 99); src.len()];
    let mut total = None;
    let stats = gpu
        .launch::<T, _>(&cfg, |ctx| {
            total = Some(match (route, call) {
                (Route::Window, Call::Inclusive(carry)) => {
                    block_scan_inclusive(ctx, op, p, src, &mut window, carry)
                }
                (Route::Window, Call::Exclusive(carry)) => {
                    block_scan_exclusive(ctx, op, p, src, &mut window, carry)
                }
                (Route::Window, Call::Reduce) => block_reduce(ctx, op, p, src),
                (Route::Oracle, Call::Inclusive(carry)) => {
                    oracle::scan_inclusive(ctx, op, p, src, &mut window, carry)
                }
                (Route::Oracle, Call::Exclusive(carry)) => {
                    oracle::scan_exclusive(ctx, op, p, src, &mut window, carry)
                }
                (Route::Oracle, Call::Reduce) => oracle::reduce(ctx, op, p, src),
            });
        })
        .unwrap();
    let mut out = Vec::new();
    if !matches!(call, Call::Reduce) {
        window.iter().for_each(|v| v.push_bits(&mut out));
    }
    let mut total_bits = Vec::new();
    total.unwrap().push_bits(&mut total_bits);
    Outcome { out, total: total_bits, counters: counter_fields(&stats.counters) }
}

/// FNV-1a over 64-bit words.
fn fnv(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Run every shape — `p ∈ {1, 2, 4, 8}`, warps `1..=32`, inclusive and
/// exclusive with and without a carry, and the reduce — through `route`,
/// check each case against the oracle, and digest the outcomes.
fn sweep<T: Element, O: ScanOp<T>>(op: O, carry: T) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for p in [1usize, 2, 4, 8] {
        for warps in 1..=32usize {
            let mut rng = (p * 64 + warps) as u64;
            let src: Vec<T> = (0..warps * 32 * p).map(|_| T::sample(&mut rng)).collect();
            let calls = [
                Call::Inclusive(None),
                Call::Inclusive(Some(carry)),
                Call::Exclusive(op.identity()),
                Call::Exclusive(carry),
                Call::Reduce,
            ];
            for call in calls {
                let got = run(Route::Window, op, p, call, &src);
                let want = run(Route::Oracle, op, p, call, &src);
                assert_eq!(got, want, "p = {p}, warps = {warps}, {call:?}");
                digest = fnv(digest, &got.out);
                digest = fnv(digest, &got.total);
                digest = fnv(digest, &got.counters);
            }
        }
    }
    digest
}

#[test]
fn i32_add_matches_the_owned_tile_route() {
    assert_eq!(sweep(Add, 1_000_003i32), 0xa802_efd3_9722_f8bd);
}

#[test]
fn i32_max_matches_the_owned_tile_route() {
    assert_eq!(sweep(Max, -77i32), 0x08a3_7bad_e921_c6d8);
}

#[test]
fn f64_add_matches_the_owned_tile_route_bit_for_bit() {
    assert_eq!(sweep(Add, 12_345.678_901f64), 0xb69a_4eba_1ca1_3550);
}

#[test]
fn gated_f64_matches_the_owned_tile_route_bit_for_bit() {
    assert_eq!(sweep(GatedOp, AffinePair::new(0.9f64, -2.5)), 0x4497_abd8_ce50_0329);
}

#[test]
fn segmented_add_matches_the_owned_tile_route() {
    assert_eq!(sweep(SegmentedAdd, SegPair::new(17i32, false)), 0xfe85_199c_62e8_5465);
}

/// The owned-tile route, self-contained: heap tiles, LF steps through a
/// source-lane table, the `shfl_xor` butterfly, the exclusive shift
/// through a staging `Vec`, and tiles copied out to the output.
mod oracle {
    use gpu_sim::{BlockCtx, DeviceCopy, LaneArray, WARP_SIZE};
    use skeletons::ScanOp;

    fn load<T: DeviceCopy>(ctx: &mut BlockCtx<'_, T>, p: usize, src: &[T], base: usize) -> Vec<T> {
        let mut tile = vec![T::default(); WARP_SIZE * p];
        ctx.read_global(src, base, &mut tile);
        tile
    }

    fn warp_scan_inclusive<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        vals: &LaneArray<T>,
    ) -> LaneArray<T> {
        let mut v = *vals;
        for t in 0..WARP_SIZE.trailing_zeros() {
            let half = 1usize << t;
            let block_mask = !(2 * half - 1);
            let srcs: LaneArray<usize> =
                std::array::from_fn(
                    |i| if i & half != 0 { (i & block_mask) + half - 1 } else { i },
                );
            ctx.charge_shuffles(1);
            let pivots: LaneArray<T> = std::array::from_fn(|i| v[srcs[i]]);
            for i in 0..WARP_SIZE {
                if i & half != 0 {
                    v[i] = op.combine(pivots[i], v[i]);
                }
            }
            ctx.alu(1);
        }
        v
    }

    fn warp_scan_exclusive_with_total<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        vals: &LaneArray<T>,
    ) -> (LaneArray<T>, T) {
        let inclusive = warp_scan_inclusive(ctx, op, vals);
        let total = inclusive[WARP_SIZE - 1];
        let exclusive = if op.uncombine(op.identity(), op.identity()).is_some() {
            ctx.alu(1);
            std::array::from_fn(|i| op.uncombine(inclusive[i], vals[i]).unwrap())
        } else {
            ctx.charge_shuffles(1);
            std::array::from_fn(|i| if i == 0 { op.identity() } else { inclusive[i - 1] })
        };
        (exclusive, total)
    }

    fn warp_reduce<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        vals: &LaneArray<T>,
    ) -> T {
        let mut v = *vals;
        for t in 0..WARP_SIZE.trailing_zeros() {
            ctx.charge_shuffles(1);
            let partner: LaneArray<T> = std::array::from_fn(|i| v[i ^ (1 << t)]);
            for i in 0..WARP_SIZE {
                v[i] = op.combine(v[i], partner[i]);
            }
            ctx.alu(1);
        }
        v[0]
    }

    fn scan_tiles<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        p: usize,
        tiles: &mut [Vec<T>],
    ) -> T {
        let warps = tiles.len();
        for (w, tile) in tiles.iter_mut().enumerate() {
            for lane in 0..WARP_SIZE {
                let s = lane * p;
                for j in 1..p {
                    tile[s + j] = op.combine(tile[s + j - 1], tile[s + j]);
                }
            }
            ctx.alu((p - 1) as u64);
            let totals: LaneArray<T> = std::array::from_fn(|lane| tile[lane * p + p - 1]);
            let (prefix, warp_total) = warp_scan_exclusive_with_total(ctx, op, &totals);
            for lane in 0..WARP_SIZE {
                for j in 0..p {
                    tile[lane * p + j] = op.combine(prefix[lane], tile[lane * p + j]);
                }
            }
            ctx.alu(p as u64);
            ctx.sh_write(w, warp_total);
        }
        ctx.sync_threads();
        let mut warp_totals: LaneArray<T> = [op.identity(); WARP_SIZE];
        for w in 0..warps {
            warp_totals[w] = ctx.sh_read(w);
        }
        let (offsets, _) = warp_scan_exclusive_with_total(ctx, op, &warp_totals);
        for w in 0..warps {
            ctx.sh_write(w, offsets[w]);
        }
        ctx.sync_threads();
        for (w, tile) in tiles.iter_mut().enumerate() {
            let offset = ctx.sh_read(w);
            for v in tile.iter_mut() {
                *v = op.combine(offset, *v);
            }
            ctx.alu(p as u64);
        }
        warp_totals[..warps].iter().fold(op.identity(), |acc, &x| op.combine(acc, x))
    }

    fn load_tiles<T: DeviceCopy>(ctx: &mut BlockCtx<'_, T>, p: usize, src: &[T]) -> Vec<Vec<T>> {
        (0..src.len() / (WARP_SIZE * p)).map(|w| load(ctx, p, src, w * WARP_SIZE * p)).collect()
    }

    pub fn scan_inclusive<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        p: usize,
        src: &[T],
        dst: &mut [T],
        carry: Option<T>,
    ) -> T {
        let mut tiles = load_tiles(ctx, p, src);
        let total = scan_tiles(ctx, op, p, &mut tiles);
        if let Some(c) = carry {
            for tile in &mut tiles {
                for v in tile.iter_mut() {
                    *v = op.combine(c, *v);
                }
                ctx.alu(p as u64);
            }
        }
        for (w, tile) in tiles.iter().enumerate() {
            dst[w * tile.len()..][..tile.len()].copy_from_slice(tile);
            ctx.charge_global_write(tile.len());
        }
        total
    }

    pub fn scan_exclusive<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        p: usize,
        src: &[T],
        dst: &mut [T],
        carry: T,
    ) -> T {
        let mut tiles = load_tiles(ctx, p, src);
        let total = scan_tiles(ctx, op, p, &mut tiles);
        let n = src.len();
        let mut out = Vec::with_capacity(n);
        out.push(carry);
        for tile in &tiles {
            for &v in tile {
                out.push(op.combine(carry, v));
            }
        }
        out.truncate(n);
        ctx.alu((n / WARP_SIZE) as u64);
        dst.copy_from_slice(&out);
        ctx.charge_global_write(n);
        total
    }

    pub fn reduce<T: DeviceCopy, O: ScanOp<T>>(
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        p: usize,
        src: &[T],
    ) -> T {
        let tiles = load_tiles(ctx, p, src);
        for (w, tile) in tiles.iter().enumerate() {
            ctx.alu((p - 1) as u64);
            let lanes: LaneArray<T> = std::array::from_fn(|lane| {
                tile[lane * p..(lane + 1) * p].iter().fold(op.identity(), |a, &x| op.combine(a, x))
            });
            let warp_total = warp_reduce(ctx, op, &lanes);
            ctx.sh_write(w, warp_total);
        }
        ctx.sync_threads();
        let mut padded: LaneArray<T> = [op.identity(); WARP_SIZE];
        for w in 0..tiles.len() {
            padded[w] = ctx.sh_read(w);
        }
        warp_reduce(ctx, op, &padded)
    }
}
