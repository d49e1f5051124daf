//! The independent reference the correctness gate compares served
//! responses against: the program's seeded input generators, the CPU
//! reference scan, and FNV-1a over the documented `ServedOutput` byte
//! encoding — recomputed here, never read back from the server.

use scan_serve::ServeRequest;
use skeletons::{
    reference_inclusive, Add, AffinePair, GatedOp, Max, ScanOp, Scannable, SegPair, SegmentedAdd,
};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One served element type: its operator, seeded generator and checksum
/// encoding (`i32` as 4 LE bytes, `f64` as its 8 LE bit bytes, a
/// `SegPair` as value then flag byte, an `AffinePair` as `a` then `b`).
pub trait Kind: Scannable {
    type Op: ScanOp<Self>;
    const OP: Self::Op;
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>);
    fn hash(hash: u64, v: Self) -> u64;
}

impl Kind for i32 {
    type Op = Add;
    const OP: Add = Add;
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<i32>) {
        scan_serve::request_input_into(seed, id, len, out)
    }
    fn hash(hash: u64, v: i32) -> u64 {
        fnv1a(hash, &v.to_le_bytes())
    }
}

impl Kind for f64 {
    type Op = Max;
    const OP: Max = Max;
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<f64>) {
        scan_serve::request_input_f64_into(seed, id, len, out)
    }
    fn hash(hash: u64, v: f64) -> u64 {
        fnv1a(hash, &v.to_bits().to_le_bytes())
    }
}

impl Kind for SegPair<i32> {
    type Op = SegmentedAdd;
    const OP: SegmentedAdd = SegmentedAdd;
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<SegPair<i32>>) {
        scan_serve::request_input_seg_into(seed, id, len, out)
    }
    fn hash(hash: u64, v: SegPair<i32>) -> u64 {
        fnv1a(fnv1a(hash, &v.v.to_le_bytes()), &[v.reset as u8])
    }
}

impl Kind for AffinePair<f64> {
    type Op = GatedOp;
    const OP: GatedOp = GatedOp;
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<AffinePair<f64>>) {
        scan_serve::request_input_gated_into(seed, id, len, out)
    }
    fn hash(hash: u64, v: AffinePair<f64>) -> u64 {
        fnv1a(fnv1a(hash, &v.a.to_bits().to_le_bytes()), &v.b.to_bits().to_le_bytes())
    }
}

/// Run `$body` with `$t` bound to the element type of `$op`.
#[macro_export]
macro_rules! with_kind {
    ($op:expr, $t:ident => $body:expr) => {
        match $op {
            scan_serve::OpKind::AddI32 => {
                type $t = i32;
                $body
            }
            scan_serve::OpKind::MaxF64 => {
                type $t = f64;
                $body
            }
            scan_serve::OpKind::SegSumI32 => {
                type $t = skeletons::SegPair<i32>;
                $body
            }
            scan_serve::OpKind::GatedF64 => {
                type $t = skeletons::AffinePair<f64>;
                $body
            }
        }
    };
}

/// Reference-scan each row of `input` (rows of `n`) in sequential order.
pub fn reference_rows<T: Kind>(input: &[T], n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(input.len());
    for row in input.chunks_exact(n) {
        out.extend(reference_inclusive(T::OP, row));
    }
    out
}

/// FNV-1a of a scanned output in the `ServedOutput` encoding.
pub fn checksum<T: Kind>(out: &[T]) -> u64 {
    out.iter().fold(FNV_OFFSET, |h, &v| T::hash(h, v))
}

/// The reference checksum of one request: its generated input, scanned
/// row by row, hashed.
pub fn reference_checksum(input_seed: u64, r: &ServeRequest) -> u64 {
    fn typed<T: Kind>(input_seed: u64, r: &ServeRequest) -> u64 {
        let mut input = Vec::with_capacity(r.total_elems());
        T::input_into(input_seed, r.id, r.total_elems(), &mut input);
        checksum(&reference_rows(&input, r.problem().problem_size()))
    }
    with_kind!(r.op, T => typed::<T>(input_seed, r))
}
