//! The served operator kinds: the one module that knows them.
//!
//! A kind is an [`OpKind`] tag plus one [`ServedKind`] impl on its element
//! type. The impl carries everything the serving layer does per kind: the
//! monoid, the tenant's seeded input stream, the checksum's byte encoding
//! and the kept-output variant. The rest of the crate is generic over
//! `T: ServedKind` and turns a tag into types through the one `with_kind!`
//! dispatch below, so a new kind takes five edits, all in this file (see
//! `docs/operators.md`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skeletons::{Add, AffinePair, GatedOp, Max, ScanOp, Scannable, SegPair, SegmentedAdd};

/// The operator/element-type pairs the serving engine accepts.
///
/// Each kind pins both the monoid and the element type, so a request is a
/// complete description of the computation: the serving layer dispatches
/// on this tag to a fully typed scan instantiation. Requests of different
/// kinds never coalesce into one launch and never share plan-cache or
/// response-memo entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Inclusive wrapping sum over `i32` — the paper's evaluation
    /// workload and the default everywhere.
    #[default]
    AddI32,
    /// Running maximum over `f64` (exactly associative: comparisons only).
    MaxF64,
    /// Segmented wrapping sum over `(i32, head-flag)` pairs.
    SegSumI32,
    /// The gated first-order recurrence `x[t] = gate[t]·x[t-1] + token[t]`
    /// over `f64` affine pairs (the SSM-style workload).
    GatedF64,
}

/// Run `$body` with the type alias `$t` bound to `$kind`'s element type,
/// whose [`ServedKind`] impl supplies everything else (`$t::OP` is the
/// monoid): the one place an [`OpKind`] turns into types.
macro_rules! with_kind {
    ($kind:expr, $t:ident => $body:expr) => {
        match $kind {
            $crate::kind::OpKind::AddI32 => {
                type $t = i32;
                $body
            }
            $crate::kind::OpKind::MaxF64 => {
                type $t = f64;
                $body
            }
            $crate::kind::OpKind::SegSumI32 => {
                type $t = skeletons::SegPair<i32>;
                $body
            }
            $crate::kind::OpKind::GatedF64 => {
                type $t = skeletons::AffinePair<f64>;
                $body
            }
        }
    };
}
pub(crate) use with_kind;

impl OpKind {
    /// Every kind, in declaration order: a kind's index here is its
    /// discriminant (`kind as usize`).
    pub fn all() -> [OpKind; 4] {
        [OpKind::AddI32, OpKind::MaxF64, OpKind::SegSumI32, OpKind::GatedF64]
    }

    /// Stable name used in JSON traces and CLI flags
    /// ([`ServedKind::NAME`]).
    pub fn as_str(self) -> &'static str {
        with_kind!(self, T => T::NAME)
    }

    /// Inverse of [`OpKind::as_str`].
    pub fn parse(s: &str) -> Option<OpKind> {
        OpKind::all().into_iter().find(|k| k.as_str() == s)
    }

    /// In-memory bytes per element of this kind's payload — what a
    /// cross-shard steal moves over the fabric: the size of its element
    /// type (`i32` = 4, `f64` = 8, a `SegPair<i32>` = 8 with its padded
    /// flag, an `AffinePair<f64>` = 16).
    pub fn elem_bytes(self) -> usize {
        with_kind!(self, T => std::mem::size_of::<T>())
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One request's kept output: the variant of its kind's element type,
/// read back with [`ServedOutput::get`].
///
/// Checksum byte encodings ([`ServedKind::fnv1a`]): `i32` hashes as 4
/// little-endian bytes, `f64` as the 8 little-endian bytes of its bit
/// pattern, a [`SegPair`] as its value followed by one flag byte, an
/// [`AffinePair`] as `a` then `b`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedOutput {
    /// [`OpKind::AddI32`] — running wrapping sums.
    I32(Vec<i32>),
    /// [`OpKind::MaxF64`] — running maxima.
    F64(Vec<f64>),
    /// [`OpKind::SegSumI32`] — running segmented sums (flags carried
    /// through).
    SegI32(Vec<SegPair<i32>>),
    /// [`OpKind::GatedF64`] — composed affine maps; the recurrence's
    /// solution is each pair's `b` component.
    GatedF64(Vec<AffinePair<f64>>),
}

impl ServedOutput {
    /// The output's values, if it is the output of `T`'s kind.
    pub fn get<T: ServedKind>(&self) -> Option<&[T]> {
        T::unwrap(self)
    }

    /// Elements in the output.
    pub fn len(&self) -> usize {
        let len = |kind| with_kind!(kind, T => self.get::<T>().map(<[T]>::len));
        OpKind::all().into_iter().find_map(len).expect("every output is some kind's")
    }

    /// Whether the output is empty (never, for a valid request).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An element type the serving engine hosts: one impl per [`OpKind`],
/// holding everything the serving layer does differently per kind.
///
/// It is implemented on the element type itself, since no two kinds share
/// one.
pub trait ServedKind: Scannable {
    /// The kind's tag.
    const KIND: OpKind;
    /// The kind's stable name in JSON traces and CLI flags.
    const NAME: &'static str;
    /// The kind's monoid.
    type Op: ScanOp<Self>;
    /// The monoid's value.
    const OP: Self::Op;

    /// Append `len` values of request `id`'s deterministic input stream
    /// under input seed `seed`: the values the tenant "uploads". Seeded by
    /// `(seed, id)`, so a request's input is the same whether it runs
    /// alone or inside a coalesced batch, and a shorter draw is a prefix of
    /// a longer one. The impls are `#[inline(never)]`: compiled on its own,
    /// a generator inlines its RNG's range reduction over constant bounds,
    /// while inlined into the response pass's lane loop it called the
    /// generic reduction out of line, at about a third of the speed.
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>);

    /// Fold one output value's byte encoding into an FNV-1a hash (see
    /// [`ServedOutput`] for the encodings).
    fn fnv1a(hash: u64, v: Self) -> u64;

    /// A kept output as its [`ServedOutput`] variant.
    fn wrap(out: Vec<Self>) -> ServedOutput;

    /// Inverse of [`ServedKind::wrap`]; `None` for another kind's output.
    fn unwrap(out: &ServedOutput) -> Option<&[Self]>;
}

/// Inputs are uniform on `[-100, 100]`.
impl ServedKind for i32 {
    const KIND: OpKind = OpKind::AddI32;
    const NAME: &'static str = "add_i32";
    type Op = Add;
    const OP: Add = Add;

    #[inline(never)]
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<i32>) {
        let mut rng = request_rng(seed, id);
        out.extend((0..len).map(|_| rng.gen_range(-100..=100)));
    }

    fn fnv1a(hash: u64, v: i32) -> u64 {
        fnv1a_bytes(hash, &v.to_le_bytes())
    }

    fn wrap(out: Vec<i32>) -> ServedOutput {
        ServedOutput::I32(out)
    }

    fn unwrap(out: &ServedOutput) -> Option<&[i32]> {
        match out {
            ServedOutput::I32(v) => Some(v),
            _ => None,
        }
    }
}

/// Inputs are quarter-integers on `[-100, 100]`, exactly representable, so
/// max-scans are bit-reproducible under any combine order.
impl ServedKind for f64 {
    const KIND: OpKind = OpKind::MaxF64;
    const NAME: &'static str = "max_f64";
    type Op = Max;
    const OP: Max = Max;

    #[inline(never)]
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<f64>) {
        let mut rng = request_rng(seed, id);
        out.extend((0..len).map(|_| rng.gen_range(-400i32..=400) as f64 * 0.25));
    }

    fn fnv1a(hash: u64, v: f64) -> u64 {
        fnv1a_bytes(hash, &v.to_bits().to_le_bytes())
    }

    fn wrap(out: Vec<f64>) -> ServedOutput {
        ServedOutput::F64(out)
    }

    fn unwrap(out: &ServedOutput) -> Option<&[f64]> {
        match out {
            ServedOutput::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// Inputs take the plain sum's value range, with roughly one element in
/// eight opening a new segment.
impl ServedKind for SegPair<i32> {
    const KIND: OpKind = OpKind::SegSumI32;
    const NAME: &'static str = "seg_sum_i32";
    type Op = SegmentedAdd;
    const OP: SegmentedAdd = SegmentedAdd;

    #[inline(never)]
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<SegPair<i32>>) {
        let mut rng = request_rng(seed, id);
        out.extend((0..len).map(|_| {
            let v = rng.gen_range(-100..=100);
            SegPair::new(v, rng.gen_range(0..8u32) == 0)
        }));
    }

    fn fnv1a(hash: u64, v: SegPair<i32>) -> u64 {
        fnv1a_bytes(i32::fnv1a(hash, v.v), &[v.reset as u8])
    }

    fn wrap(out: Vec<SegPair<i32>>) -> ServedOutput {
        ServedOutput::SegI32(out)
    }

    fn unwrap(out: &ServedOutput) -> Option<&[SegPair<i32>]> {
        match out {
            ServedOutput::SegI32(v) => Some(v),
            _ => None,
        }
    }
}

/// Each input is the affine pair `(gate[t], token[t])`. Gates sit on
/// `0.999 + 0.001·u` with `u` uniform on `[0, 1]` — the near-1 decay the
/// SSM workloads use — and tokens are dyadic rationals on `[-1, 1]`.
impl ServedKind for AffinePair<f64> {
    const KIND: OpKind = OpKind::GatedF64;
    const NAME: &'static str = "gated_f64";
    type Op = GatedOp;
    const OP: GatedOp = GatedOp;

    #[inline(never)]
    fn input_into(seed: u64, id: usize, len: usize, out: &mut Vec<AffinePair<f64>>) {
        let mut rng = request_rng(seed, id);
        out.extend((0..len).map(|_| {
            let gate = 0.999 + 0.001 * (rng.gen_range(0..=1000u32) as f64 / 1000.0);
            let token = rng.gen_range(-128i32..=128) as f64 / 128.0;
            AffinePair::new(gate, token)
        }));
    }

    fn fnv1a(hash: u64, v: AffinePair<f64>) -> u64 {
        f64::fnv1a(f64::fnv1a(hash, v.a), v.b)
    }

    fn wrap(out: Vec<AffinePair<f64>>) -> ServedOutput {
        ServedOutput::GatedF64(out)
    }

    fn unwrap(out: &ServedOutput) -> Option<&[AffinePair<f64>]> {
        match out {
            ServedOutput::GatedF64(v) => Some(v),
            _ => None,
        }
    }
}

fn request_rng(seed: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a's offset basis: the checksum of an empty output.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`ServedKind::input_into`] for [`OpKind::AddI32`], by the name the
/// benchmark's correctness check calls, like the three below.
pub fn request_input_into(seed: u64, id: usize, len: usize, out: &mut Vec<i32>) {
    i32::input_into(seed, id, len, out)
}

/// [`ServedKind::input_into`] for [`OpKind::MaxF64`].
pub fn request_input_f64_into(seed: u64, id: usize, len: usize, out: &mut Vec<f64>) {
    f64::input_into(seed, id, len, out)
}

/// [`ServedKind::input_into`] for [`OpKind::SegSumI32`].
pub fn request_input_seg_into(seed: u64, id: usize, len: usize, out: &mut Vec<SegPair<i32>>) {
    SegPair::input_into(seed, id, len, out)
}

/// [`ServedKind::input_into`] for [`OpKind::GatedF64`].
pub fn request_input_gated_into(seed: u64, id: usize, len: usize, out: &mut Vec<AffinePair<f64>>) {
    AffinePair::input_into(seed, id, len, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind's tag, name, element size and output variant lead to
    /// the one type its `with_kind!` arm names, and back.
    #[test]
    fn every_kind_is_wired_to_its_own_type() {
        for (i, kind) in OpKind::all().into_iter().enumerate() {
            assert_eq!(kind as usize, i, "all() is in declaration order");
            with_kind!(kind, T => {
                assert_eq!(T::KIND, kind);
                assert_eq!(OpKind::parse(T::NAME), Some(kind));
                assert_eq!(kind.elem_bytes(), std::mem::size_of::<T>());
                let output = T::wrap(crate::workload::request_input::<T>(1, 2, 3));
                assert_eq!(output.len(), 3);
                for other in OpKind::all() {
                    let got = with_kind!(other, U => output.get::<U>().is_some());
                    assert_eq!(got, other == kind, "{kind} output read as {other}");
                }
            });
        }
        // A steal's transfer time prices these bytes.
        assert_eq!(OpKind::all().map(OpKind::elem_bytes), [4, 8, 8, 16]);
        assert_eq!(OpKind::parse("bogus"), None);
        assert_eq!(OpKind::default(), OpKind::AddI32);
    }
}
