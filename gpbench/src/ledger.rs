//! The traced run: the per-layer ledger.
//!
//! Three sources, none of them inside the program:
//!
//! * paired untraced / traced executions of the workload, giving the
//!   tracing overhead, and — from the traced ones, through
//!   `gpsched_trace::TraceSession` — the work counters the program
//!   already exports. The traced execution runs twice and must give
//!   identical counts and identical canonical output;
//! * a serial replay of every unit through the layers' public entry
//!   points (`mii`, `partition_ddg`, `SweepCache::seed`,
//!   `schedule_loop_spec_seeded`, `simulate`), each call wrapped in a
//!   benchmark-side span carrying the unit index. It runs with tracing
//!   off and must reproduce the program's (II, length, cycles) exactly;
//! * the daemon's view: `DiskCache::open`, `parse_job_body` and the
//!   submit / first-line / stream split of jobs served by `engine::serve`.
//!
//! Where a workload's timed path bypasses a layer, the ledger still
//! measures that layer on the workload's own inputs, so every workload
//! reports the same metric set (README.md lists which metric each
//! workload's timed path exercises).

use crate::audit::{audit, Outcome, Unit};
use crate::batch::{pass, records_digest, sweep_options};
use crate::daemon::{latency, serve_jobs, Episode};
use crate::inputs::{Batch, BatchInput};
use crate::util::{canonical_fields, digest, median, ms, percentile, us, work_dir, Report};
use gpsched_ddg::{mii::mii, Ddg};
use gpsched_engine::serve::parse_job_body;
use gpsched_engine::{ddg_content_hash, machine_key, popts_key, CacheKey};
use gpsched_engine::{DiskCache, JobSpec, RunRecord, SweepCache, SweepOptions, SweepResult};
use gpsched_machine::MachineConfig;
use gpsched_partition::{partition_ddg, PartitionOptions};
use gpsched_sched::drivers::DriverConfig;
use gpsched_sched::{schedule_loop_spec_seeded, AlgorithmSpec, SchedSeed, ScheduledWith};
use gpsched_sim::simulate;
use gpsched_trace::{Trace, TraceSession};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `synth-cold` jobs in its ledger: 16 × 192 units, two jobs a machine.
pub const SYNTH_LEDGER_JOBS: usize = 16;
/// On workloads without portfolio units, every this many units is also
/// raced through `portfolio` to measure that layer on the same inputs.
const PROBE_EVERY: usize = 4;
/// Repetitions of the short set-up timings (disk-cache open, body parse).
const REPS: usize = 5;

/// A scratch disk-cache file, removed on drop.
struct CacheFile(std::path::PathBuf);

impl Drop for CacheFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn cache_file(tag: &str) -> CacheFile {
    let path = work_dir().join(format!("{tag}-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    CacheFile(path)
}

/// Benchmark-side spans: one per call into a layer, tagged with the unit
/// index, kept in memory and written out when the run ends.
struct Spans {
    t0: Instant,
    recs: Vec<(&'static str, usize, Duration, Duration)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
        }
    }

    fn time<T>(&mut self, layer: &'static str, unit: usize, f: impl FnOnce() -> T) -> T {
        let start = self.t0.elapsed();
        let out = std::hint::black_box(f());
        self.recs
            .push((layer, unit, start, self.t0.elapsed() - start));
        out
    }

    fn total(&self, layer: &str) -> Duration {
        self.recs.iter().filter(|r| r.0 == layer).map(|r| r.3).sum()
    }

    fn per_call_us(&self, layer: &str) -> f64 {
        let calls = self.recs.iter().filter(|r| r.0 == layer).count();
        if calls == 0 {
            0.0
        } else {
            us(self.total(layer)) / calls as f64
        }
    }

    fn write(&self, name: &str) {
        let path = work_dir().join(format!("spans-{name}.jsonl"));
        let mut out = String::new();
        for (layer, unit, start, dur) in &self.recs {
            out.push_str(&format!(
                "{{\"layer\":\"{layer}\",\"unit\":{unit},\"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
                us(*start),
                us(*dur)
            ));
        }
        if let Err(e) = std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
            eprintln!("gpbench: could not write {}: {e}", path.display());
        }
    }
}

/// One unit for the replay, with the program's answer to reproduce.
struct ReplayUnit<'a> {
    id: usize,
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    spec: AlgorithmSpec,
    want: Outcome,
}

struct ReplayStats {
    modulo: u64,
    at_mii: u64,
    ii_sum: f64,
    mii_sum: f64,
    disk_hits: usize,
}

/// Replays `units` layer by layer, writing every distinct seed into a
/// disk cache at `disk` on the way.
fn replay(
    units: &[ReplayUnit],
    popts: &PartitionOptions,
    cfg: &DriverConfig,
    probe_portfolio: bool,
    disk: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> ReplayStats {
    let key_of = |u: &ReplayUnit| -> CacheKey {
        (
            ddg_content_hash(u.ddg),
            machine_key(u.machine),
            popts_key(popts),
        )
    };
    // Seeds: MII and the multilevel partition, once per distinct key, as
    // the memo cache computes them.
    let store = DiskCache::open(disk).expect("open the replay disk cache");
    let mut seeds: HashMap<CacheKey, i64> = HashMap::new();
    for u in units {
        let key = key_of(u);
        if seeds.contains_key(&key) {
            continue;
        }
        let start_ii = spans.time("ddg.mii", u.id, || mii(u.ddg, u.machine));
        let partition = (u.machine.cluster_count() > 1).then(|| {
            spans.time("partition", u.id, || {
                partition_ddg(u.ddg, u.machine, start_ii, popts)
            })
        });
        let seed = SchedSeed {
            start_ii,
            partition,
        };
        store
            .append(key, &seed)
            .expect("append to the replay disk cache");
        seeds.insert(key, start_ii);
    }
    drop(store);

    let lookup = SweepCache::with_disk(Arc::new(
        DiskCache::open(disk).expect("reopen the replay disk cache"),
    ));
    let mut st = ReplayStats {
        modulo: 0,
        at_mii: 0,
        ii_sum: 0.0,
        mii_sum: 0.0,
        disk_hits: 0,
    };
    for u in units {
        let key = key_of(u);
        let (seed, _) = spans.time("engine.cache", u.id, || {
            lookup.seed(key.0, u.ddg, u.machine, popts)
        });
        report.check(seed.start_ii == seeds[&key], || {
            format!("cached seed of {} disagrees with a fresh MII", u.ddg.name())
        });
        let layer = if u.spec.is_portfolio() {
            "portfolio"
        } else {
            "sched"
        };
        let r = spans.time(layer, u.id, || {
            schedule_loop_spec_seeded(u.ddg, u.machine, u.spec, popts, cfg, &seed)
        });
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("replay of unit {} failed: {e}", u.id));
                continue;
            }
        };
        let got = (r.schedule.ii(), r.schedule.length(), r.cycles());
        report.check(got == (u.want.ii, u.want.length, u.want.cycles), || {
            format!(
                "replay of unit {} ({} on {} with {}) gives (II, length, cycles) {got:?}, the program reported {:?}",
                u.id,
                u.ddg.name(),
                u.machine.short_name(),
                u.spec.name(),
                (u.want.ii, u.want.length, u.want.cycles)
            )
        });
        if matches!(r.method, ScheduledWith::Modulo { .. }) {
            st.modulo += 1;
            st.at_mii += u64::from(r.schedule.ii() == seed.start_ii);
            st.ii_sum += r.schedule.ii() as f64;
            st.mii_sum += seed.start_ii as f64;
        }
        let trips = u.ddg.trip_count().clamp(1, 40);
        let _ = spans.time("sim", u.id, || {
            simulate(u.ddg, u.machine, &r.schedule, trips)
        });
        if probe_portfolio && u.id % PROBE_EVERY == 0 {
            let _ = spans.time("portfolio", u.id, || {
                schedule_loop_spec_seeded(
                    u.ddg,
                    u.machine,
                    AlgorithmSpec::PORTFOLIO,
                    popts,
                    cfg,
                    &seed,
                )
            });
        }
    }
    st.disk_hits = lookup.disk_hits();
    st
}

/// Median time of `DiskCache::open` on `path`, and its entry count.
fn disk_open(path: &Path) -> (f64, usize) {
    let mut times = Vec::new();
    let mut entries = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let d = DiskCache::open(path).expect("open the disk cache");
        times.push(ms(t0.elapsed()));
        entries = d.len();
    }
    (median(&times), entries)
}

/// Mean over `bodies` of the median `parse_job_body` time, in µs.
fn parse_us_per_job<'a>(bodies: impl IntoIterator<Item = &'a String>) -> f64 {
    let mut per_job = Vec::new();
    for b in bodies {
        let mut t = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(parse_job_body(b).expect("bodies parse"));
            t.push(us(t0.elapsed()));
        }
        per_job.push(median(&t));
    }
    per_job.iter().sum::<f64>() / per_job.len().max(1) as f64
}

/// Counter totals by name.
type Counts = BTreeMap<String, u64>;

fn add_counts(counts: &mut Counts, trace: &Trace) {
    for (name, v) in &trace.counters {
        *counts.entry(name.clone()).or_default() += v;
    }
}

fn counter(c: &Counts, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

/// Share of tracing's cost: 1 − traced / untraced throughput.
fn overhead_share(untraced_s: f64, traced_s: f64) -> f64 {
    1.0 - untraced_s / traced_s
}

/// Every metric the layers give, in BENCHMARK.json order.
struct Ledger<'a> {
    counts: &'a Counts,
    spans: &'a Spans,
    /// Layers on the workload's timed path (denominator of self shares).
    timed_layers: &'a [&'static str],
    replay: &'a ReplayStats,
    units: usize,
    fallbacks: usize,
    repartitions: usize,
    audit: &'a crate::audit::Audit,
    sweep_overhead_us: f64,
    cache_hit_ratio: f64,
    disk: (f64, usize),
    disk_hits: f64,
    parse_us: f64,
    serve: &'a Episode,
    trace_overhead: f64,
}

impl Ledger<'_> {
    fn put(&self, r: &mut Report) {
        let t = self.counts;
        let timed: f64 = self
            .timed_layers
            .iter()
            .map(|l| us(self.spans.total(l)))
            .sum();
        let share = |layer: &str| us(self.spans.total(layer)) / timed.max(1e-9);
        r.put(
            "ddg.mii.us_per_unit",
            self.spans.per_call_us("ddg.mii"),
            "us",
        );

        r.put(
            "partition.us_per_unit",
            self.spans.per_call_us("partition"),
            "us",
        );
        r.put("partition.self_share", share("partition"), "share");
        let evaluated = counter(t, "partition.moves_evaluated");
        let applied = counter(t, "partition.moves_applied");
        r.put("partition.moves_evaluated", evaluated, "count");
        r.put("partition.moves_applied", applied, "count");
        r.put(
            "partition.apply_ratio",
            if evaluated > 0.0 {
                applied / evaluated
            } else {
                0.0
            },
            "ratio",
        );
        r.put(
            "partition.evaluator_rebuilds",
            counter(t, "partition.evaluator_rebuilds"),
            "count",
        );
        r.put(
            "partition.balance_moves",
            counter(t, "partition.balance_moves"),
            "count",
        );

        r.put(
            "graph.bf.edges_scanned",
            counter(t, "graph.bf.edges_scanned"),
            "count",
        );
        r.put(
            "graph.bf.relaxations",
            counter(t, "graph.bf.relaxations"),
            "count",
        );
        r.put("graph.bf.runs", counter(t, "graph.bf.runs"), "count");

        let rp = self.replay;
        r.put("sched.us_per_unit", self.spans.per_call_us("sched"), "us");
        r.put("sched.self_share", share("sched"), "share");
        r.put(
            "sched.at_mii_share",
            rp.at_mii as f64 / rp.modulo.max(1) as f64,
            "share",
        );
        r.put(
            "sched.ii_over_mii",
            rp.ii_sum / rp.mii_sum.max(1.0),
            "ratio",
        );
        r.put(
            "sched.trial_rollbacks",
            counter(t, "sched.trial_rollbacks"),
            "count",
        );
        r.put(
            "sched.undo_entries",
            counter(t, "sched.undo_entries"),
            "count",
        );
        r.put(
            "sched.spills_inserted",
            counter(t, "sched.spills_inserted"),
            "count",
        );
        r.put("sched.ii_growth", counter(t, "sched.ii_growth"), "count");
        r.put("sched.repartitions", self.repartitions as f64, "count");
        r.put(
            "sched.fallback_share",
            self.fallbacks as f64 / self.units.max(1) as f64,
            "share",
        );

        r.put(
            "portfolio.us_per_unit",
            self.spans.per_call_us("portfolio"),
            "us",
        );
        r.put(
            "portfolio.candidates_pruned",
            counter(t, "portfolio.candidates_pruned"),
            "count",
        );
        r.put(
            "portfolio.candidates_cut_off",
            counter(t, "portfolio.candidates_cut_off"),
            "count",
        );
        r.put(
            "portfolio.winner_memo_hits",
            counter(t, "portfolio.winner_memo_hits"),
            "count",
        );

        r.put("sim.us_per_unit", self.spans.per_call_us("sim"), "us");
        r.put(
            "sim.audit_failures",
            (self.audit.units - self.audit.passed) as f64,
            "count",
        );
        for (_, m) in gpsched_machine::table1_configs() {
            let name = m.short_name();
            let n = self
                .audit
                .failures_by_machine
                .get(&name)
                .copied()
                .unwrap_or(0);
            r.put(format!("sim.audit_failures.{name}"), n as f64, "count");
        }

        r.put("sweep.overhead_us_per_unit", self.sweep_overhead_us, "us");
        r.put("cache.hit_ratio", self.cache_hit_ratio, "ratio");
        r.put(
            "cache.seed_us_per_lookup",
            self.spans.per_call_us("engine.cache"),
            "us",
        );
        r.put("diskcache.open_ms", self.disk.0, "ms");
        r.put("diskcache.entries", self.disk.1 as f64, "count");
        r.put("cache.disk_hits", self.disk_hits, "count");
        r.put("text.parse_us_per_job", self.parse_us, "us");

        let lat = latency(self.serve);
        r.put("serve.submit_ms_p50", percentile(&lat.submit, 50.0), "ms");
        r.put(
            "serve.first_line_ms_p50",
            percentile(&lat.first_line, 50.0),
            "ms",
        );
        r.put(
            "serve.first_line_ms_p99",
            percentile(&lat.first_line, 99.0),
            "ms",
        );
        r.put("serve.stream_ms_p50", percentile(&lat.stream, 50.0), "ms");
        let rejected = self
            .serve
            .errors
            .iter()
            .filter(|e| e.contains("(503)"))
            .count();
        r.put("serve.rejected", rejected as f64, "count");
        r.put("trace.overhead_share", self.trace_overhead, "share");
    }
}

fn counts_equal(report: &mut Report, a: &Counts, b: &Counts) {
    report.check(a == b, || {
        let diff: Vec<String> = a
            .iter()
            .filter(|(n, v)| b.get(*n) != Some(v))
            .map(|(n, v)| format!("{n}={v} vs {}", counter(b, n)))
            .collect();
        format!(
            "two traced runs of one seed counted differently: {}",
            diff.join(", ")
        )
    });
}

/// One execution of every ledger job: the sweeps' results, their summed
/// wall time, and what the trace sessions counted (empty when untraced).
struct Execution {
    results: Vec<SweepResult>,
    wall: Duration,
    counts: Counts,
}

/// Traced executions open one session per job, as `sweep --trace` does
/// per invocation: every sweep ends by summarising all spans of its
/// session (`summary_if_active`), so one session held across many jobs
/// would charge each job for its predecessors' spans.
fn execute(jobs: &[JobSpec], opts: &SweepOptions, traced: bool) -> Execution {
    let (mut results, mut wall, mut counts) = (Vec::new(), Duration::ZERO, Counts::new());
    for job in jobs {
        let session = traced.then(TraceSession::start);
        let (result, took, _) = pass(job, opts);
        if let Some(session) = session {
            add_counts(&mut counts, &session.finish());
        }
        results.push(result);
        wall += took;
    }
    Execution {
        results,
        wall,
        counts,
    }
}

impl Execution {
    fn digest(&self) -> u64 {
        let digests: Vec<String> = self
            .results
            .iter()
            .map(|r| records_digest(&r.records).to_string())
            .collect();
        digest(digests.iter().map(String::as_str))
    }

    fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.results.iter().flat_map(|r| r.records.iter())
    }
}

/// The traced run of a batch workload over its first `njobs` jobs.
pub fn batch(w: &Batch, njobs: usize, name: &str, seed: u64) -> Report {
    let mut report = Report::new();
    let inputs: Vec<BatchInput> = (0..njobs).map(|i| w.job(i)).collect();
    let jobs: Vec<JobSpec> = inputs.iter().map(BatchInput::parse).collect();
    let opts = sweep_options(w);
    let units: usize = jobs.iter().map(JobSpec::unit_count).sum();

    // Untraced and traced executions, alternating, on fresh caches.
    let runs: Vec<Execution> = [false, true, false, true]
        .into_iter()
        .map(|traced| execute(&jobs, &opts, traced))
        .collect();
    let (untraced, traced) = ([&runs[0], &runs[2]], [&runs[1], &runs[3]]);
    report.check(
        runs.windows(2).all(|p| p[0].digest() == p[1].digest()),
        || "traced and untraced executions disagree on the output".to_string(),
    );
    counts_equal(&mut report, &traced[0].counts, &traced[1].counts);
    for r in runs.iter().flat_map(|e| e.results.iter()) {
        report.attempted += r.records.len() as u64 + r.failures.len() as u64;
        report.failed += r.failures.len() as u64;
    }
    report.check(untraced[0].records().count() == units, || {
        format!(
            "{} records for {units} units",
            untraced[0].records().count()
        )
    });

    let wall_u: f64 = untraced.iter().map(|e| e.wall.as_secs_f64()).sum();
    let wall_t: f64 = traced.iter().map(|e| e.wall.as_secs_f64()).sum();
    let sched_us: f64 = untraced
        .iter()
        .flat_map(|e| e.records())
        .map(|r| r.sched_time_us as f64)
        .sum();
    let sweep_overhead_us = (wall_u * 1e6 - sched_us) / (2 * units) as f64;
    let (hits, misses) = traced[0].results.iter().fold((0, 0), |(h, m), r| {
        (h + r.stats.cache_hits, m + r.stats.cache_misses)
    });
    let cache_hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    // The layer replay, on the program's own records; unit ids number the
    // ledger's units across jobs.
    let mut replay_units = Vec::with_capacity(units);
    for (job, result) in jobs.iter().zip(&untraced[0].results) {
        for r in &result.records {
            let (li, mi, ai) = job.unit(r.unit);
            replay_units.push(ReplayUnit {
                id: replay_units.len(),
                ddg: &job.loops[li].ddg,
                machine: &job.machines[mi],
                spec: job.algorithms[ai],
                want: Outcome::of_record(r),
            });
        }
    }
    let disk = cache_file(&format!("{name}-replay"));
    let mut spans = Spans::new();
    let has_portfolio = jobs
        .iter()
        .any(|j| j.algorithms.iter().any(AlgorithmSpec::is_portfolio));
    let (popts, cfg) = (&jobs[0].popts, &jobs[0].cfg);
    let rp = replay(
        &replay_units,
        popts,
        cfg,
        !has_portfolio,
        &disk.0,
        &mut spans,
        &mut report,
    );
    let audited = audit(replay_units.iter().map(|u| Unit {
        ddg: u.ddg,
        machine: u.machine,
        spec: u.spec,
        out: u.want,
    }));
    for m in &audited.mismatches {
        report.fail(format!("audit replay differs from the sweep: {m}"));
    }

    // The daemon's view of the same workload: one job per group, served
    // from the replay's disk cache by one client.
    let bodies: Vec<String> = inputs.iter().flat_map(BatchInput::group_bodies).collect();
    let parse_us = parse_us_per_job(&bodies);
    let diskc = disk_open(&disk.0);
    let served = serve_jobs(&disk.0, &bodies);
    report.failed += served.errors.len() as u64;
    let served_fields: Vec<String> = served
        .runs
        .iter()
        .flat_map(|r| r.lines.iter())
        .map(|l| canonical_fields(l))
        .collect();
    let batch_fields: Vec<String> = untraced[0]
        .records()
        .map(RunRecord::canonical_fields)
        .collect();
    report.check(served_fields == batch_fields, || {
        "daemon output for the workload's group jobs differs from the batch sweep".to_string()
    });
    let records: Vec<&RunRecord> = untraced[0].records().collect();

    let timed_layers: &[&str] = if w.use_cache() {
        &["ddg.mii", "partition", "engine.cache", "sched", "portfolio"]
    } else {
        &["ddg.mii", "partition", "sched"]
    };
    Ledger {
        counts: &traced[0].counts,
        spans: &spans,
        timed_layers,
        replay: &rp,
        units,
        fallbacks: records.iter().filter(|r| r.list_fallback).count(),
        repartitions: records.iter().map(|r| r.repartitions).sum(),
        audit: &audited,
        sweep_overhead_us,
        cache_hit_ratio,
        disk: diskc,
        disk_hits: rp.disk_hits as f64,
        parse_us,
        serve: &served,
        trace_overhead: overhead_share(wall_u, wall_t),
    }
    .put(&mut report);
    spans.write(&format!("{name}-{seed}"));
    report
}
