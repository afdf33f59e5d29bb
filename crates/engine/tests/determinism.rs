//! Engine determinism: the same job spec must yield identical results —
//! and identical JSONL modulo line order — whether one worker or many run
//! the sweep.
//!
//! The comparison worker count defaults to 8 and can be pinned with
//! `GPSCHED_TEST_WORKERS` (CI runs the suite at 1 and 8 explicitly, so
//! both the degenerate single-worker path and a contended pool are
//! exercised on every push).

use gpsched_engine::{run_sweep, JobSpec, SweepOptions};
use gpsched_machine::MachineConfig;
use gpsched_sched::{Algorithm, AlgorithmSpec};
use gpsched_workloads::{spec_suite, synth::synthesize, SynthProfile};
use std::collections::BTreeSet;

/// The "many workers" side of the comparisons (`GPSCHED_TEST_WORKERS`,
/// default 8).
fn test_workers() -> usize {
    std::env::var("GPSCHED_TEST_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(8)
}

fn job() -> JobSpec {
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "su2cor").expect("exists");
    let mut job = JobSpec::new()
        .program(program)
        .machines([
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
        ])
        .algorithms(Algorithm::ALL)
        // The variant axis must be exactly as deterministic as the paper
        // algorithms.
        .algorithm(gpsched_sched::AlgorithmSpec::GP_NOREPART)
        .algorithm(gpsched_sched::AlgorithmSpec::URACAM_GREEDY);
    for seed in 0..3 {
        job = job.loop_in(
            "synth",
            synthesize(format!("s{seed}"), &SynthProfile::default(), seed),
        );
    }
    job
}

/// The order-independent, volatile-field-free view of a JSONL stream:
/// every line reduced to its canonical fields, as a set.
fn canonical_lines(jsonl: &[u8]) -> BTreeSet<String> {
    String::from_utf8_lossy(jsonl)
        .lines()
        .map(|line| {
            // Strip the volatile measurements; keep everything else.
            let cut = line
                .find(",\"cache_hit\":")
                .unwrap_or_else(|| panic!("no volatile fields in {line}"));
            line[..cut].to_string()
        })
        .collect()
}

#[test]
fn one_worker_and_many_workers_agree() {
    let job = job();
    let mut jsonl1: Vec<u8> = Vec::new();
    let mut jsonl8: Vec<u8> = Vec::new();
    let serial = run_sweep(&job, &SweepOptions::serial(), Some(&mut jsonl1));
    let parallel = run_sweep(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        Some(&mut jsonl8),
    );

    // Returned records are already in unit order: compare directly.
    assert_eq!(serial.records.len(), parallel.records.len());
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.unit, b.unit);
        assert_eq!(
            a.canonical_fields(),
            b.canonical_fields(),
            "unit {}",
            a.unit
        );
    }

    // The JSONL streams may interleave differently but must carry the
    // same canonical lines.
    assert_eq!(canonical_lines(&jsonl1), canonical_lines(&jsonl8));
    assert_eq!(canonical_lines(&jsonl1).len(), job.unit_count());
}

#[test]
fn racing_is_deterministic_across_worker_counts() {
    // Intra-unit II-attempt racing engages on large units when the pool
    // is parallel. Whatever the race width, the reduction is
    // lowest-II-wins — exactly the sequential answer — so the canonical
    // sweep JSONL must be byte-identical between one worker (sequential
    // ladders) and a contended pool (raced ladders).
    let suite = spec_suite();
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms([Algorithm::Gp, Algorithm::Uracam]);
    for p in &suite {
        for l in &p.loops {
            if l.op_count() >= 64 {
                job = job.loop_in(p.name.to_string(), l.clone());
            }
        }
    }
    assert!(!job.loops.is_empty(), "suite must contain large loops");

    let canonical_jsonl = |r: &gpsched_engine::SweepResult| -> Vec<u8> {
        r.records
            .iter()
            .map(|rec| format!("{{\"unit\":{},{}}}\n", rec.unit, rec.canonical_fields()))
            .collect::<String>()
            .into_bytes()
    };
    let serial = run_sweep(&job, &SweepOptions::serial(), None);
    let raced = run_sweep(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        None,
    );
    assert_eq!(canonical_jsonl(&serial), canonical_jsonl(&raced));
}

#[test]
fn portfolio_is_deterministic_across_worker_counts_and_cache_states() {
    // The portfolio race ranks candidates from DDG features and runs them
    // strictly in rank order, so its selection must not depend on the
    // worker count, the winner memo, or cache warmth. Mixed fixed +
    // portfolio specs in one job also exercise the memo keying.
    let suite = spec_suite();
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms([Algorithm::Gp])
        .algorithm(gpsched_sched::AlgorithmSpec::PORTFOLIO)
        .algorithm(gpsched_sched::AlgorithmSpec::parse("portfolio:5:8").expect("parses"));
    let program = suite.iter().find(|p| p.name == "hydro2d").expect("exists");
    job = job.program(program);
    for seed in 0..3 {
        job = job.loop_in(
            "synth",
            synthesize(format!("p{seed}"), &SynthProfile::default(), seed),
        );
    }

    let canonical = |r: &gpsched_engine::SweepResult| -> Vec<String> {
        r.records
            .iter()
            .map(|rec| format!("{{\"unit\":{},{}}}", rec.unit, rec.canonical_fields()))
            .collect()
    };
    let serial = run_sweep(&job, &SweepOptions::serial(), None);
    let parallel = run_sweep(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        None,
    );
    let uncached = run_sweep(
        &job,
        &SweepOptions {
            workers: 1,
            use_cache: false,
            progress: false,
        },
        None,
    );
    let reference = canonical(&serial);
    assert_eq!(
        reference,
        canonical(&parallel),
        "worker count changed portfolio results"
    );
    assert_eq!(
        reference,
        canonical(&uncached),
        "winner memo changed portfolio results"
    );
    // Every portfolio unit scheduled (none dropped to a failure record),
    // and the record keeps the portfolio display name — `Portfolio` and
    // `Portfolio:5:8` — not the selected fixed spec's.
    let portfolio_records: Vec<_> = serial
        .records
        .iter()
        .filter(|r| r.algorithm.starts_with("Portfolio"))
        .collect();
    assert_eq!(portfolio_records.len(), 2 * 3 * job.loops.len());
    assert!(portfolio_records.iter().all(|r| r.ipc > 0.0));
    assert!(portfolio_records
        .iter()
        .any(|r| r.algorithm == "Portfolio:5:8"));
}

#[test]
fn cache_does_not_change_results() {
    let job = job();
    let cached = run_sweep(&job, &SweepOptions::serial(), None);
    let uncached = run_sweep(
        &job,
        &SweepOptions {
            workers: 1,
            use_cache: false,
            progress: false,
        },
        None,
    );
    for (a, b) in cached.records.iter().zip(&uncached.records) {
        assert_eq!(
            a.canonical_fields(),
            b.canonical_fields(),
            "unit {}",
            a.unit
        );
    }
    assert!(cached.stats.cache_hits > 0);
    assert_eq!(uncached.stats.cache_hits, 0);
}

#[test]
fn repeated_sweeps_are_identical() {
    let job = job();
    let a = run_sweep(&job, &SweepOptions::default(), None);
    let b = run_sweep(&job, &SweepOptions::default(), None);
    assert_eq!(
        a.records
            .iter()
            .map(|r| r.canonical_fields())
            .collect::<Vec<_>>(),
        b.records
            .iter()
            .map(|r| r.canonical_fields())
            .collect::<Vec<_>>()
    );
}

#[test]
fn shared_outcomes_do_not_depend_on_algorithm_order_or_cache() {
    // With the cache on, the units of one (loop, machine) group share
    // their unconstrained schedules: whichever of `gp` and the portfolio
    // leader runs first computes the schedule for both. Reversing the
    // algorithm order flips who computes, and `--no-cache` shares nothing;
    // neither may move a canonical field.
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "hydro2d").expect("exists");
    let specs: Vec<AlgorithmSpec> = ["uracam", "fixed", "gp", "list", "portfolio"]
        .iter()
        .map(|s| AlgorithmSpec::parse(s).expect("parses"))
        .collect();
    let job = |specs: &[AlgorithmSpec]| {
        JobSpec::new()
            .program(program)
            .machines([
                MachineConfig::unified(32),
                MachineConfig::two_cluster(32, 1, 1),
                MachineConfig::four_cluster(32, 1, 2),
            ])
            .algorithms(specs.iter().copied())
    };
    let reversed: Vec<AlgorithmSpec> = specs.iter().rev().copied().collect();
    // Canonical records as a sorted list: unit indices differ between the
    // two orders, the (loop, machine, algorithm) content must not.
    let canonical = |job: &JobSpec, use_cache: bool| -> Vec<String> {
        let r = run_sweep(
            job,
            &SweepOptions {
                workers: test_workers(),
                use_cache,
                progress: false,
            },
            None,
        );
        assert!(r.failures.is_empty());
        assert_eq!(r.records.len(), job.unit_count());
        let mut lines: Vec<String> = r.records.iter().map(|r| r.canonical_fields()).collect();
        lines.sort();
        lines
    };
    let reference = canonical(&job(&specs), false);
    assert_eq!(
        reference,
        canonical(&job(&specs), true),
        "forward, cache on"
    );
    assert_eq!(
        reference,
        canonical(&job(&reversed), true),
        "reverse, cache on"
    );
    assert_eq!(
        reference,
        canonical(&job(&reversed), false),
        "reverse, cache off"
    );
}
