//! `ScanRequest` pinned per proposal — healthy and fault-injected — to a
//! golden recorded from the proposal-shaped entry points it replaced. Each
//! entry of `tests/golden/request_equivalence.txt` holds the run's label,
//! execution-graph node count, makespan bits, the FNV-1a of its output and
//! its fault events, so any drift in data, schedule or fault handling shows
//! up as a readable diff. Regenerate after an intentional timing-model
//! change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test request_equivalence
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use multigpu_scan::fabric::Resource;
use multigpu_scan::prelude::*;
use multigpu_scan::scan::ScanOutput;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

fn request(problem: ProblemParams) -> ScanRequest<Add> {
    ScanRequest::new(Add, problem).tuple(SplkTuple::kepler_premises(0))
}

fn fnv1a(data: &[i32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in data.iter().flat_map(|v| v.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One golden entry: a `[case]` header, then one `key: value` line per
/// pinned property and one indented line per fault event.
fn render(case: &str, out: &ScanOutput<i32>) -> String {
    let mut s = String::new();
    writeln!(s, "[{case}]").unwrap();
    writeln!(s, "label: {}", out.report.label).unwrap();
    writeln!(s, "nodes: {}", out.report.graph.as_ref().map_or(0, |g| g.nodes().len())).unwrap();
    writeln!(s, "makespan: {:016x}", out.report.makespan.to_bits()).unwrap();
    writeln!(s, "fnv1a: {:016x}", fnv1a(&out.data)).unwrap();
    match &out.faults {
        None => writeln!(s, "faults: none").unwrap(),
        Some(report) => {
            writeln!(s, "faults: {}", report.events.len()).unwrap();
            for event in &report.events {
                writeln!(s, "  {event:?}").unwrap();
            }
        }
    }
    s
}

/// The golden's entries by case name.
fn entries(golden: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in golden.lines().filter(|l| !l.is_empty()) {
        if let Some(case) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            map.extend(current.take());
            current = Some((case.to_string(), String::new()));
        }
        if let Some((_, body)) = current.as_mut() {
            writeln!(body, "{line}").unwrap();
        }
    }
    map.extend(current);
    map
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/request_equivalence.txt")
}

/// Every case shares one golden file, so rewrites are serialized.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// Compare `case`'s entry against the golden, or rewrite that entry under
/// `UPDATE_GOLDEN=1`. On mismatch, report the first differing line.
fn check(case: &str, out: &ScanOutput<i32>) {
    let rendered = render(case, out);
    let path = golden_path();
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let golden = std::fs::read_to_string(&path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut map = entries(&golden.unwrap_or_default());
        map.insert(case.to_string(), rendered);
        let body: Vec<String> = map.into_values().collect();
        std::fs::write(&path, body.join("\n")).unwrap();
        return;
    }
    let golden = golden.unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    let want = entries(&golden).remove(case).unwrap_or_else(|| {
        panic!("{path:?} has no `[{case}]` entry; run with UPDATE_GOLDEN=1 to add it")
    });
    for (ln, (want, got)) in want.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "`{case}` diverges from {path:?} at entry line {} \
             (run with UPDATE_GOLDEN=1 if the timing model changed intentionally)",
            ln + 1
        );
    }
    assert_eq!(want.lines().count(), rendered.lines().count(), "`{case}` fault event count");
}

#[test]
fn request_matches_scan_sp() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    check("sp", &request(problem).run(&input).unwrap());
}

#[test]
fn request_matches_scan_mps() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .run(&input)
        .unwrap();
    check("mps", &out);
}

#[test]
fn request_matches_scan_mppc() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::Mppc)
        .devices(NodeConfig::new(4, 2, 2, 1).unwrap())
        .run(&input)
        .unwrap();
    check("mppc", &out);
}

#[test]
fn request_matches_scan_mps_multinode() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::MpsMultinode)
        .devices(NodeConfig::new(4, 4, 1, 2).unwrap())
        .run(&input)
        .unwrap();
    check("mps_multinode", &out);
}

#[test]
fn request_matches_scan_case1() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::Case1)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .run(&input)
        .unwrap();
    check("case1", &out);
}

#[test]
fn request_matches_scan_sp_faulted() {
    let problem = ProblemParams::new(13, 1);
    let input = pseudo(problem.total_elems());
    let out = request(problem).faults(FaultPlan::new(7).throttle_gpu(0, 2.0)).run(&input).unwrap();
    check("sp_faulted", &out);
}

#[test]
fn request_matches_scan_mps_faulted() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .pipeline(PipelinePolicy::batched_barrier(4))
        .faults(FaultPlan::new(0xC0FFEE).evict_gpu(2, 1))
        .run(&input)
        .unwrap();
    check("mps_faulted", &out);
}

#[test]
fn request_matches_scan_mppc_faulted() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::Mppc)
        .devices(NodeConfig::new(4, 2, 2, 1).unwrap())
        .pipeline(PipelinePolicy::default())
        .faults(FaultPlan::new(5).evict_gpu(4, 0))
        .run(&input)
        .unwrap();
    check("mppc_faulted", &out);
}

#[test]
fn request_matches_scan_mps_multinode_faulted() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems());
    let out = request(problem)
        .proposal(Proposal::MpsMultinode)
        .devices(NodeConfig::new(4, 4, 1, 2).unwrap())
        .faults(FaultPlan::new(9).degrade_link(Resource::ib(0, 1), 8.0))
        .run(&input)
        .unwrap();
    check("mps_multinode_faulted", &out);
}

#[test]
fn request_matches_exclusive_variants() {
    let problem = ProblemParams::new(13, 1);
    let input = pseudo(problem.total_elems());
    check("sp_exclusive", &request(problem).exclusive().run(&input).unwrap());
    let out = request(problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
        .exclusive()
        .run(&input)
        .unwrap();
    check("mps_exclusive", &out);
}
