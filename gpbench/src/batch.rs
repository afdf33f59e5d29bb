//! Untraced timed runs of the batch workloads (`spec-table1`,
//! `synth-cold`): whole `run_sweep` passes on one worker.

use crate::audit::{audit, Audit, Outcome, Unit};
use crate::inputs::{Batch, BatchInput};
use crate::ledger::SYNTH_LEDGER_JOBS;
use crate::util::{digest, median, ms, peak_rss_mb, percentile, Pin, Report};
use gpsched_engine::{run_sweep, JobSpec, RunRecord, SweepOptions, SweepResult};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Timed parses of each job before its sweep; `setup_s` is the median
/// over the whole run.
const SETUP_REPS: usize = 3;

/// A JSONL sink that keeps only the arrival time of each line.
pub struct StampSink {
    pub t0: Instant,
    pub stamps: Vec<Duration>,
}

impl Write for StampSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = self.t0.elapsed();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.stamps.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn sweep_options(w: &Batch) -> SweepOptions {
    SweepOptions {
        workers: 1,
        use_cache: w.use_cache(),
        progress: false,
    }
}

/// Parses `input` `SETUP_REPS` times, adding each parse's time to
/// `times`, and returns the last `JobSpec`. The text is generated before
/// and each earlier job dropped after the clock stops, so neither counts.
///
/// A parse takes a few milliseconds, and on a shared host a few
/// milliseconds can run a third faster or slower than the next few.
/// Parses spread over the whole timed region keep `setup_s` from resting
/// on one such moment.
fn setup(input: &BatchInput, times: &mut Vec<f64>) -> JobSpec {
    let mut job = None;
    for _ in 0..SETUP_REPS {
        drop(job.take());
        let t0 = Instant::now();
        job = Some(std::hint::black_box(input.parse()));
        times.push(t0.elapsed().as_secs_f64());
    }
    job.expect("SETUP_REPS is at least 1")
}

/// One timed pass: the sweep's result and the arrival time of each line.
pub fn pass(job: &JobSpec, opts: &SweepOptions) -> (SweepResult, Duration, Vec<Duration>) {
    let mut sink = StampSink {
        t0: Instant::now(),
        stamps: Vec::with_capacity(job.unit_count()),
    };
    let result = run_sweep(job, opts, Some(&mut sink));
    (result, sink.t0.elapsed(), sink.stamps)
}

pub fn records_digest(records: &[RunRecord]) -> u64 {
    let fields: Vec<String> = records.iter().map(RunRecord::canonical_fields).collect();
    digest(fields.iter().map(String::as_str))
}

/// The units of a batch job, paired with one pass's records, for the audit.
pub fn job_units<'a>(job: &'a JobSpec, records: &'a [RunRecord]) -> impl Iterator<Item = Unit<'a>> {
    records.iter().map(|r| {
        let (li, mi, ai) = job.unit(r.unit);
        Unit {
            ddg: &job.loops[li].ddg,
            machine: &job.machines[mi],
            spec: job.algorithms[ai],
            out: Outcome::of_record(r),
        }
    })
}

/// The timed region sweeps the workload's jobs in order, wrapping, until
/// the sweeps have run for `seconds` and the last round is whole. Each
/// job is generated and parsed before its sweep, off the clock.
pub fn run(w: &Batch, seconds: f64) -> Report {
    let mut report = Report::new();
    let opts = sweep_options(w);
    // Only the units of the first jobs, the ones the traced run covers,
    // are audited: the audit metrics then depend on the seed alone, not
    // on how far the timed region got, and the audit time stays fixed.
    let audited_jobs = w.jobs().min(SYNTH_LEDGER_JOBS);

    let mut units_done = 0usize;
    let mut swept = Duration::ZERO;
    let mut setup_s = Vec::new();
    let mut unit_ms = Vec::new();
    let mut pass_rates = Vec::new();
    // The first records of each audited job, and their digest.
    let mut first: BTreeMap<usize, (u64, Vec<RunRecord>)> = BTreeMap::new();
    let mut next = 0;
    let pin = Pin::here();
    while swept.as_secs_f64() < seconds || next % w.round() != 0 {
        let i = next % w.jobs();
        next += 1;
        let job = setup(&w.job(i), &mut setup_s);
        let units = job.unit_count();
        let (result, wall, stamps) = pass(&job, &opts);
        swept += wall;
        report.attempted += units as u64;
        report.failed += result.failures.len() as u64;
        report.check(stamps.len() == units, || {
            format!("sink saw {} lines for {units} units", stamps.len())
        });
        units_done += units;
        pass_rates.push(units as f64 / wall.as_secs_f64());
        let ends: Vec<f64> = std::iter::once(0.0)
            .chain(stamps.iter().map(|&s| ms(s)))
            .collect();
        unit_ms.extend(ends.windows(2).map(|w| w[1] - w[0]));
        let d = records_digest(&result.records);
        match first.get(&i) {
            None => {
                report.check(result.records.len() == units, || {
                    format!("{} records for {units} units", result.records.len())
                });
                if i < audited_jobs {
                    first.insert(i, (d, result.records));
                }
            }
            Some((d0, _)) => report.check(*d0 == d, || "passes of one job disagree".to_string()),
        }
    }

    drop(pin);

    let mut a = Audit::default();
    for (&i, (_, records)) in &first {
        a.merge(audit(job_units(&w.job(i).parse(), records)));
    }
    for m in &a.mismatches {
        report.fail(format!("audit replay differs from the sweep: {m}"));
    }
    eprintln!(
        "gpbench: {} passes at {:.0?} loops/s, audit {}/{} pass, failures by machine {:?}",
        pass_rates.len(),
        pass_rates,
        a.passed,
        a.units,
        a.failures_by_machine
    );

    report.put("setup_s", median(&setup_s), "s");
    report.put(
        "loops_per_s",
        units_done as f64 / swept.as_secs_f64(),
        "loops/s",
    );
    report.put("unit_ms_p50", percentile(&unit_ms, 50.0), "ms");
    report.put("unit_ms_p99", percentile(&unit_ms, 99.0), "ms");
    report.put("audited_ipc", a.audited_ipc(), "ipc");
    report.put("audit_pass_share", a.pass_share(), "share");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report
}
