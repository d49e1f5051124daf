//! Small statistics and process helpers shared by the workloads.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process, in MB (`VmHWM` from procfs).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Probe speed the host metrics are scaled to, Gop/s per thread: a host
/// metric reads as if the machine ran `probe_speed` at this rate.
pub const PROBE_REF_GOPS: f64 = 1.0;

/// The machine-speed probe: a fixed SplitMix64-and-stream kernel over a
/// 256 KiB buffer, run on `threads` threads at once right before a timed
/// call. Returns the mean per-thread speed in Gop/s (operations = buffer
/// words processed). On a shared host whose neighbours slow the cores for
/// seconds at a time, the program's speed follows this probe's.
pub fn probe_speed(threads: usize) -> f64 {
    const WORDS: usize = 1 << 15;
    const PASSES: usize = 100;
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|i| {
                s.spawn(move || {
                    let mut buf = vec![1u64; WORDS];
                    let mut rng = SplitMix64(i);
                    let t = std::time::Instant::now();
                    let mut acc = 0u64;
                    for _ in 0..PASSES {
                        for v in buf.iter_mut() {
                            *v ^= rng.next_u64();
                            acc = acc.wrapping_add(*v);
                        }
                    }
                    std::hint::black_box(acc);
                    (WORDS * PASSES) as f64 / t.elapsed().as_secs_f64() / 1e9
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// SplitMix64: the benchmark's own seeded generator for paper-sweep
/// inputs (the serving workloads use the program's seeded generators).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
