//! Per-lease stream namespaces.
//!
//! The serving layer (`scan-serve`) runs many requests against one shared
//! cluster. Each request leases a subset of GPUs and builds an execution
//! graph whose kernel nodes claim `Resource::Stream { gpu, stream }` slots;
//! if every request used stream 0 (CUDA's default stream), two requests
//! that ever shared a GPU would alias each other's streams and the fleet
//! scheduler could not tell intra-request ordering from cross-request
//! contention.
//!
//! A [`StreamNamespace`] hands each lease a private stream id per GPU, the
//! simulated analogue of `cudaStreamCreate` in a per-client context.
//! Allocation is deterministic: ids are dense per GPU, the lowest free id is
//! always granted first, and released ids are reused in numeric order — so
//! the same admission sequence always yields the same stream ids and the
//! golden fleet traces stay stable.

use std::collections::HashMap;

/// A stream id granted to one lease on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamGrant {
    /// Global id of the GPU the stream lives on.
    pub gpu: usize,
    /// Stream id, unique among live grants on this GPU.
    pub stream: usize,
}

/// Deterministic per-GPU stream allocator for the serving layer.
///
/// ```
/// use gpu_sim::StreamNamespace;
///
/// let mut ns = StreamNamespace::new();
/// let a = ns.grant(0);
/// let b = ns.grant(0);
/// assert_eq!((a.stream, b.stream), (0, 1));
/// ns.release(a);
/// assert_eq!(ns.grant(0).stream, 0, "lowest free id is reused first");
/// assert_eq!(ns.grant(1).stream, 0, "each GPU numbers its own streams");
/// ```
#[derive(Debug, Default, Clone)]
pub struct StreamNamespace {
    /// Per GPU: sorted list of released ids (reused lowest-first) and the
    /// next never-used id.
    free: HashMap<usize, Vec<usize>>,
    next: HashMap<usize, usize>,
}

impl StreamNamespace {
    /// An empty namespace: the first grant on every GPU is stream 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grant the lowest free stream id on `gpu`.
    pub fn grant(&mut self, gpu: usize) -> StreamGrant {
        let free = self.free.entry(gpu).or_default();
        let stream = if let Some(id) = free.first().copied() {
            free.remove(0);
            id
        } else {
            let next = self.next.entry(gpu).or_insert(0);
            let id = *next;
            *next += 1;
            id
        };
        StreamGrant { gpu, stream }
    }

    /// Return a granted stream id to the pool.
    ///
    /// Releasing an id that was never granted (or releasing twice) panics:
    /// it means two leases believed they owned the same stream.
    pub fn release(&mut self, grant: StreamGrant) {
        let next = self.next.get(&grant.gpu).copied().unwrap_or(0);
        assert!(
            grant.stream < next,
            "stream {} on gpu {} was never granted",
            grant.stream,
            grant.gpu
        );
        let free = self.free.entry(grant.gpu).or_default();
        let pos = free.binary_search(&grant.stream).expect_err("double release of a stream grant");
        free.insert(pos, grant.stream);
    }

    /// Number of live (granted, unreleased) streams on `gpu`.
    pub fn live(&self, gpu: usize) -> usize {
        let next = self.next.get(&gpu).copied().unwrap_or(0);
        next - self.free.get(&gpu).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_dense_per_gpu() {
        let mut ns = StreamNamespace::new();
        assert_eq!(ns.grant(3), StreamGrant { gpu: 3, stream: 0 });
        assert_eq!(ns.grant(3), StreamGrant { gpu: 3, stream: 1 });
        assert_eq!(ns.grant(5), StreamGrant { gpu: 5, stream: 0 });
        assert_eq!(ns.live(3), 2);
        assert_eq!(ns.live(5), 1);
        assert_eq!(ns.live(0), 0);
    }

    #[test]
    fn release_reuses_lowest_first() {
        let mut ns = StreamNamespace::new();
        let a = ns.grant(0);
        let b = ns.grant(0);
        let c = ns.grant(0);
        ns.release(b);
        ns.release(a);
        assert_eq!(ns.live(0), 1);
        assert_eq!(ns.grant(0).stream, 0, "0 released after 1 but granted first");
        assert_eq!(ns.grant(0).stream, 1);
        assert_eq!(ns.grant(0).stream, 3, "2 is still held");
        ns.release(c);
        assert_eq!(ns.grant(0).stream, 2);
    }

    #[test]
    fn same_sequence_same_ids() {
        let run = || {
            let mut ns = StreamNamespace::new();
            let mut ids = Vec::new();
            let g0 = ns.grant(1);
            ids.push(ns.grant(1).stream);
            ns.release(g0);
            ids.push(ns.grant(1).stream);
            ids.push(ns.grant(2).stream);
            ids
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut ns = StreamNamespace::new();
        let g = ns.grant(0);
        ns.release(g);
        ns.release(g);
    }

    #[test]
    #[should_panic(expected = "never granted")]
    fn foreign_release_panics() {
        let mut ns = StreamNamespace::new();
        ns.release(StreamGrant { gpu: 0, stream: 0 });
    }
}
