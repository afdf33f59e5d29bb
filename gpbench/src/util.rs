//! Statistics, the result line, and small helpers shared by every mode.

use std::time::Duration;

/// The JSON object printed as the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Records a failed output check: the run stays a run, but reports
    /// `correct: false` instead of passing off a wrong answer as a number.
    pub fn fail(&mut self, problem: impl Into<String>) {
        eprintln!("gpbench: CHECK FAILED: {}", problem.into());
        self.correct = false;
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust prints for it.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `v` (mean of the middle pair for even lengths); 0 for none.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 for none.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of strings (order-sensitive, separator-aware).
pub fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in item.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A result line without its `"unit":N,` prefix and volatile tail: the
/// canonical fields, comparable across jobs that number units differently.
pub fn canonical_fields(line: &str) -> String {
    let canon = gpsched_engine::canonical_json_line(line);
    match canon
        .strip_prefix("{\"unit\":")
        .and_then(|r| r.split_once(','))
    {
        Some((_, fields)) => fields.trim_end_matches('}').to_string(),
        None => canon,
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A Linux `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

/// Keeps the calling thread, and every thread it starts while the pin is
/// held, on the CPU it is running on; dropping the pin restores the
/// calling thread's former CPU set.
///
/// The timed regions run pinned. Unpinned, every hand-off between threads
/// (the sweep worker to the JSONL sink, a client to the daemon) can mean
/// waking the other, idle vCPU, and on a busy host that wake-up delay was
/// what moved tail latencies most between runs.
pub struct Pin {
    saved: CpuSet,
}

impl Pin {
    /// `None` when the platform does not report or allow it.
    pub fn here() -> Option<Pin> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread; `saved` is a writable
        // buffer of exactly the size passed, alive for the call.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), saved.as_mut_ptr()) };
        // SAFETY: takes no arguments and touches no memory of ours.
        let cpu = unsafe { sched_getcpu() };
        if got != 0 || !(0..1024).contains(&cpu) {
            return None;
        }
        let mut one: CpuSet = [0; 16];
        one[cpu as usize / 64] = 1 << (cpu % 64);
        // SAFETY: pid 0 names the calling thread; `one` is a readable
        // buffer of exactly the size passed, alive for the call.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
        (set == 0).then_some(Pin { saved })
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // SAFETY: as in `Pin::here`; `saved` is the set read there. A
        // failure leaves the thread pinned, which only slows what follows.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.saved.as_ptr()) };
    }
}

/// Where the benchmark keeps its scratch files: `out/` next to its
/// manifest, inside the checkout.
pub fn work_dir() -> std::path::PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = std::path::Path::new(&root).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_lines_reduce_to_their_fields() {
        let line = "{\"unit\":7,\"group\":\"g\",\"ii\":3,\"cycles\":120,\"cache_hit\":true,\"sched_time_us\":9}";
        assert_eq!(
            canonical_fields(line),
            "\"group\":\"g\",\"ii\":3,\"cycles\":120"
        );
    }

    #[test]
    fn report_prints_whole_numbers_as_json_floats() {
        let mut r = Report::new();
        r.put("x", 2.0, "s");
        assert!(r
            .to_json()
            .contains("\"x\": {\"value\": 2.0, \"unit\": \"s\"}"));
    }
}
