//! The response memo's semantics, pinned window by window: which
//! completions count as served from the memo, how many checksums it
//! stores, and that every checksum equals an isolated CPU-reference run.

use scan_serve::{
    request_input, request_input_f64, request_input_gated, request_input_seg, OpKind, Policy,
    ResponseStats, ServeConfig, ServeReport, ServeRequest, Server,
};
use skeletons::{reference_inclusive, Add, GatedOp, Max, SegmentedAdd};

const SEED: u64 = 21;

fn req(id: usize, arrival: f64, n: u32, g: u32, op: OpKind) -> ServeRequest {
    ServeRequest { id, arrival, n, g, gpus_wanted: 1, priority: 0, tenant: 0, deadline: None, op }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a of `r`'s reference output, row by row, in the `ServedOutput`
/// byte encodings.
fn reference_checksum(r: &ServeRequest) -> u64 {
    let (len, n) = (r.total_elems(), r.problem().problem_size());
    let mut bytes: Vec<u8> = Vec::new();
    match r.op {
        OpKind::AddI32 => {
            for row in request_input(SEED, r.id, len).chunks(n) {
                reference_inclusive(Add, row).iter().for_each(|v| bytes.extend(v.to_le_bytes()));
            }
        }
        OpKind::MaxF64 => {
            for row in request_input_f64(SEED, r.id, len).chunks(n) {
                let out = reference_inclusive(Max, row);
                out.iter().for_each(|v| bytes.extend(v.to_bits().to_le_bytes()));
            }
        }
        OpKind::SegSumI32 => {
            for row in request_input_seg(SEED, r.id, len).chunks(n) {
                for v in reference_inclusive(SegmentedAdd, row) {
                    bytes.extend(v.v.to_le_bytes());
                    bytes.push(v.reset as u8);
                }
            }
        }
        OpKind::GatedF64 => {
            for row in request_input_gated(SEED, r.id, len).chunks(n) {
                for v in reference_inclusive(GatedOp, row) {
                    bytes.extend(v.a.to_bits().to_le_bytes());
                    bytes.extend(v.b.to_bits().to_le_bytes());
                }
            }
        }
    }
    fnv1a(0xcbf2_9ce4_8422_2325, &bytes)
}

/// Serve `requests` on `server` and check every completion against the
/// reference; returns the report.
fn serve_checked(server: &Server, requests: &[ServeRequest]) -> ServeReport {
    let report = server.run(requests).unwrap();
    assert_eq!(report.completions.len(), requests.len());
    for c in &report.completions {
        assert_eq!(c.checksum, reference_checksum(&c.request), "request {:?}", c.request);
    }
    report
}

fn stats(served: u64, entries: usize) -> ResponseStats {
    ResponseStats { served, entries }
}

/// Window 1: keys repeated across launches. Request id 7 runs at t = 0,
/// again 10 ms later in a launch of its own, and a third time under
/// another operator (a different key).
fn repeated_across_launches() -> Vec<ServeRequest> {
    vec![
        req(7, 0.0, 10, 0, OpKind::AddI32),
        req(8, 0.0, 11, 1, OpKind::GatedF64),
        req(7, 0.01, 10, 0, OpKind::AddI32),
        req(7, 0.02, 10, 0, OpKind::MaxF64),
        req(8, 0.03, 11, 1, OpKind::GatedF64),
        req(9, 0.03, 10, 2, OpKind::SegSumI32),
    ]
}

#[test]
fn a_key_missed_by_an_earlier_launch_is_served_from_the_memo() {
    let requests = repeated_across_launches();
    let server = Server::new(ServeConfig::new(Policy::Fifo, SEED));
    let report = serve_checked(&server, &requests);
    assert!(report.completions.iter().all(|c| c.coalesced == 1), "every request runs alone");
    // (7, add) and (8, gated) repeat in later launches.
    assert_eq!(server.response_stats(), stats(2, 4));
    // A warm repeat serves every completion from the memo.
    serve_checked(&server, &requests);
    assert_eq!(server.response_stats(), stats(8, 4));
}

#[test]
fn a_key_repeated_inside_one_launch_stays_cold() {
    let requests = vec![req(3, 0.0, 10, 0, OpKind::AddI32), req(3, 0.0, 10, 0, OpKind::AddI32)];
    let server = Server::new(ServeConfig::new(Policy::Fifo, SEED));
    let report = serve_checked(&server, &requests);
    assert!(report.completions.iter().all(|c| c.coalesced == 2), "one coalesced launch");
    assert_eq!(server.response_stats(), stats(0, 1));
    serve_checked(&server, &requests);
    assert_eq!(server.response_stats(), stats(2, 1));
}

#[test]
fn kept_outputs_never_come_from_the_memo() {
    let requests = repeated_across_launches();
    let mut config = ServeConfig::new(Policy::Fifo, SEED);
    config.keep_outputs = true;
    let server = Server::new(config);
    for _ in 0..2 {
        let report = serve_checked(&server, &requests);
        for c in &report.completions {
            let output = c.output.as_ref().expect("keep_outputs keeps every output");
            assert_eq!(output.len(), c.request.total_elems());
        }
        // The memo still records each distinct key's checksum.
        assert_eq!(server.response_stats(), stats(0, 4));
    }
}

#[test]
fn without_a_plan_cache_nothing_is_memoized() {
    let requests = repeated_across_launches();
    let mut config = ServeConfig::new(Policy::Fifo, SEED);
    config.plan_cache = false;
    let server = Server::new(config);
    for _ in 0..2 {
        serve_checked(&server, &requests);
        assert_eq!(server.response_stats(), stats(0, 0));
    }
}
