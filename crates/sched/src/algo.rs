//! High-level entry point: schedule one loop with a named algorithm or an
//! [`AlgorithmSpec`] variant.

use crate::drivers::DriverConfig;
use crate::error::SchedError;
use crate::listsched::list_schedule;
use crate::pipeline;
use crate::schedule::Schedule;
use crate::spec::AlgorithmSpec;
use gpsched_ddg::Ddg;
use gpsched_machine::MachineConfig;
use gpsched_partition::{Partition, PartitionOptions};

/// The scheduling algorithms compared in the paper's evaluation, plus the
/// non-pipelined list-scheduling baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The best previously published integrated scheduler (baseline).
    Uracam,
    /// GP variant (a): follow the partition exactly.
    FixedPartition,
    /// The proposed GP scheme with selective re-partitioning.
    Gp,
    /// Plain acyclic list scheduling, iterations back to back — the
    /// paper's fallback promoted to a first-class comparator (a lower
    /// bound no software-pipelined schedule should lose to).
    List,
}

impl Algorithm {
    /// All algorithms: the paper's presentation order, then the
    /// list-scheduling baseline.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Uracam,
        Algorithm::FixedPartition,
        Algorithm::Gp,
        Algorithm::List,
    ];

    /// The three modulo-scheduling algorithms of the paper's figures.
    pub const MODULO: [Algorithm; 3] =
        [Algorithm::Uracam, Algorithm::FixedPartition, Algorithm::Gp];

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Uracam => "URACAM",
            Algorithm::FixedPartition => "Fixed",
            Algorithm::Gp => "GP",
            Algorithm::List => "List",
        }
    }

    /// Parses a display or lowercase name (`"GP"`, `"gp"`, `"uracam"`, …).
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "uracam" => Some(Algorithm::Uracam),
            "fixed" | "fixedpartition" | "fixed-partition" => Some(Algorithm::FixedPartition),
            "gp" => Some(Algorithm::Gp),
            "list" => Some(Algorithm::List),
            _ => None,
        }
    }
}

/// How the final schedule was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduledWith {
    /// Modulo-scheduled at the reported II.
    Modulo {
        /// Times the GP driver recomputed the partition (0 otherwise).
        repartitions: usize,
    },
    /// The II cap was exhausted; the list-scheduling fallback was used
    /// (§4.1: "this happens for just a few loops").
    ListFallback,
    /// List scheduling was requested outright ([`Algorithm::List`]).
    List,
}

/// Result of scheduling one loop.
#[derive(Clone, Debug)]
pub struct LoopResult {
    /// The final schedule.
    pub schedule: Schedule,
    /// Modulo or list-fallback, with driver metadata.
    pub method: ScheduledWith,
    /// The cluster assignment actually used (None for URACAM, which has no
    /// precomputed partition).
    pub partition: Option<Partition>,
    /// Loop name (copied from the DDG).
    pub name: String,
    /// Operations per iteration (original ops only — overhead ops such as
    /// spills and communications are not counted as useful work).
    pub ops: usize,
    /// Trip count used for the cycle accounting.
    pub trips: u64,
    /// For portfolio runs, the fixed spec whose schedule won the race
    /// (re-running it alone reproduces this result exactly — the engine's
    /// winner memo relies on that). `None` for fixed-spec runs.
    pub selected: Option<AlgorithmSpec>,
}

impl LoopResult {
    /// Total cycles for the loop's profiled trip count.
    pub fn cycles(&self) -> u64 {
        self.schedule.cycles(self.trips)
    }

    /// Useful instructions per cycle (the paper's metric, prolog/epilog
    /// included).
    pub fn ipc(&self) -> f64 {
        // Saturating: extreme trip counts from `.ddg` input must not wrap.
        (self.ops as u64).saturating_mul(self.trips) as f64 / self.cycles() as f64
    }
}

/// Schedules `ddg` on `machine` with `algorithm`, falling back to list
/// scheduling if the modulo scheduler exhausts its II budget.
///
/// # Errors
///
/// [`SchedError::Unschedulable`] if the machine lacks functional units for
/// an op class used by the loop.
///
/// # Example
///
/// ```
/// use gpsched_machine::MachineConfig;
/// use gpsched_sched::{schedule_loop, Algorithm};
/// use gpsched_workloads::kernels;
///
/// let ddg = kernels::fir(500, 8);
/// let machine = MachineConfig::two_cluster(32, 1, 1);
/// let gp = schedule_loop(&ddg, &machine, Algorithm::Gp)?;
/// let ur = schedule_loop(&ddg, &machine, Algorithm::Uracam)?;
/// assert!(gp.ipc() > 0.0 && ur.ipc() > 0.0);
/// # Ok::<(), gpsched_sched::SchedError>(())
/// ```
pub fn schedule_loop(
    ddg: &Ddg,
    machine: &MachineConfig,
    algorithm: Algorithm,
) -> Result<LoopResult, SchedError> {
    schedule_loop_with(
        ddg,
        machine,
        algorithm,
        &PartitionOptions::default(),
        &DriverConfig::default(),
    )
}

/// [`schedule_loop`] with explicit partitioner and driver configuration
/// (used by the ablation benches).
///
/// # Errors
///
/// See [`schedule_loop`].
pub fn schedule_loop_with(
    ddg: &Ddg,
    machine: &MachineConfig,
    algorithm: Algorithm,
    popts: &PartitionOptions,
    cfg: &DriverConfig,
) -> Result<LoopResult, SchedError> {
    schedule_impl(ddg, machine, algorithm.into(), popts, cfg, None)
}

/// Precomputed scheduling inputs, typically served from a memo cache keyed
/// by DDG content (the engine crate's batch executor builds these).
#[derive(Clone, Debug)]
pub struct SchedSeed {
    /// The loop's MII on the target machine (`mii::mii`).
    pub start_ii: i64,
    /// Initial partition computed at `start_ii`. Consumed by
    /// [`Algorithm::FixedPartition`] and [`Algorithm::Gp`]; ignored by the
    /// partition-free algorithms.
    pub partition: Option<gpsched_partition::PartitionResult>,
}

/// [`schedule_loop_with`] taking precomputed MII/partition inputs, so batch
/// drivers that schedule the same loop on the same machine under several
/// algorithms (or repeatedly across sweeps) skip the shared preprocessing.
///
/// # Errors
///
/// See [`schedule_loop`].
pub fn schedule_loop_seeded(
    ddg: &Ddg,
    machine: &MachineConfig,
    algorithm: Algorithm,
    popts: &PartitionOptions,
    cfg: &DriverConfig,
    seed: &SchedSeed,
) -> Result<LoopResult, SchedError> {
    schedule_impl(ddg, machine, algorithm.into(), popts, cfg, Some(seed))
}

/// [`schedule_loop`] for an arbitrary [`AlgorithmSpec`] variant.
///
/// # Errors
///
/// See [`schedule_loop`].
///
/// # Example
///
/// ```
/// use gpsched_machine::MachineConfig;
/// use gpsched_sched::{schedule_loop_spec, AlgorithmSpec};
/// use gpsched_workloads::kernels;
///
/// let ddg = kernels::fir(500, 8);
/// let machine = MachineConfig::two_cluster(32, 1, 1);
/// let gp = schedule_loop_spec(&ddg, &machine, AlgorithmSpec::parse("gp")?)?;
/// let ab = schedule_loop_spec(&ddg, &machine, AlgorithmSpec::parse("gp:norepart")?)?;
/// // The ablation schedules the same loops; how the two variants compare
/// // is an empirical question (see DESIGN.md §7).
/// assert!(gp.ipc() > 0.0 && ab.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_loop_spec(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
) -> Result<LoopResult, SchedError> {
    schedule_impl(
        ddg,
        machine,
        spec,
        &PartitionOptions::default(),
        &DriverConfig::default(),
        None,
    )
}

/// [`schedule_loop_spec`] with explicit options and precomputed seed
/// inputs — the engine's batch executor entry point for every variant.
///
/// # Errors
///
/// See [`schedule_loop`].
pub fn schedule_loop_spec_seeded(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    popts: &PartitionOptions,
    cfg: &DriverConfig,
    seed: &SchedSeed,
) -> Result<LoopResult, SchedError> {
    schedule_impl(ddg, machine, spec, popts, cfg, Some(seed))
}

pub(crate) fn schedule_impl(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    popts: &PartitionOptions,
    cfg: &DriverConfig,
    seed: Option<&SchedSeed>,
) -> Result<LoopResult, SchedError> {
    for kind in gpsched_machine::ResourceKind::ALL {
        if ddg.ops_using(kind) > 0 && machine.total_units(kind) == 0 {
            return Err(SchedError::Unschedulable(format!(
                "machine has no {kind} units"
            )));
        }
    }
    let base =
        |schedule: Schedule, method: ScheduledWith, partition: Option<Partition>| LoopResult {
            schedule,
            method,
            partition,
            name: ddg.name().to_string(),
            ops: ddg.op_count(),
            trips: ddg.trip_count(),
            selected: None,
        };
    if spec.is_list() {
        let s = list_schedule(ddg, machine);
        return Ok(base(s, ScheduledWith::List, None));
    }

    // Resolve the precomputed inputs, filling the gaps for direct calls.
    let start_ii = seed.map_or_else(|| gpsched_ddg::mii::mii(ddg, machine), |s| s.start_ii);
    if spec.is_portfolio() {
        let unseeded = SchedSeed {
            start_ii,
            partition: None,
        };
        return crate::portfolio::race_with(
            ddg,
            machine,
            spec,
            popts,
            cfg,
            seed.unwrap_or(&unseeded),
            &mut |c, cc, s| schedule_impl(ddg, machine, c, popts, cc, Some(s)),
        );
    }
    let initial = if spec.needs_partition() {
        Some(
            seed.and_then(|s| s.partition.clone())
                .unwrap_or_else(|| gpsched_partition::partition_ddg(ddg, machine, start_ii, popts)),
        )
    } else {
        None
    };

    let policies = spec.policies();
    match pipeline::run(ddg, machine, popts, cfg, start_ii, initial, &policies) {
        Ok(out) => Ok(base(
            out.schedule,
            ScheduledWith::Modulo {
                repartitions: out.repartitions,
            },
            out.partition.map(|p| p.partition),
        )),
        Err(SchedError::IiLimitExceeded { .. }) => {
            let s = list_schedule(ddg, machine);
            Ok(base(s, ScheduledWith::ListFallback, None))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        for ddg in kernels::all_kernels(1000) {
            let m = MachineConfig::unified(64);
            let r = schedule_loop(&ddg, &m, Algorithm::Gp).unwrap();
            assert!(r.ipc() <= 12.0, "{}: ipc {}", ddg.name(), r.ipc());
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn unified_is_an_upper_bound_for_clustered() {
        // The paper's premise: same resources minus communication penalty.
        let mut better = 0usize;
        let mut total = 0usize;
        for ddg in kernels::all_kernels(1000) {
            let u = schedule_loop(&ddg, &MachineConfig::unified(32), Algorithm::Gp).unwrap();
            let c =
                schedule_loop(&ddg, &MachineConfig::four_cluster(32, 1, 2), Algorithm::Gp).unwrap();
            total += 1;
            if u.ipc() >= c.ipc() - 1e-9 {
                better += 1;
            }
        }
        assert_eq!(better, total, "clustered beat unified somewhere");
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Gp.name(), "GP");
        assert_eq!(Algorithm::Uracam.name(), "URACAM");
        assert_eq!(Algorithm::FixedPartition.name(), "Fixed");
        assert_eq!(Algorithm::List.name(), "List");
        assert_eq!(Algorithm::ALL.len(), 4);
        assert_eq!(Algorithm::MODULO.len(), 3);
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a), "{a:?} round-trips");
        }
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn list_algorithm_runs_iterations_back_to_back() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let r = schedule_loop(&ddg, &m, Algorithm::List).unwrap();
        assert_eq!(r.method, ScheduledWith::List);
        // No pipelining: the II equals the schedule length.
        assert_eq!(r.schedule.ii(), r.schedule.length().max(1));
        // And modulo scheduling should beat it on a parallel kernel.
        let gp = schedule_loop(&ddg, &m, Algorithm::Gp).unwrap();
        assert!(gp.ipc() >= r.ipc());
    }

    #[test]
    fn seeded_schedule_matches_unseeded() {
        use gpsched_partition::partition_ddg;
        let ddg = kernels::stencil5(300);
        let m = MachineConfig::four_cluster(32, 1, 2);
        let popts = PartitionOptions::default();
        let cfg = DriverConfig::default();
        let mii = gpsched_ddg::mii::mii(&ddg, &m);
        let part = partition_ddg(&ddg, &m, mii, &popts);
        for algo in Algorithm::ALL {
            let seed = SchedSeed {
                start_ii: mii,
                partition: Some(part.clone()),
            };
            let a = schedule_loop_with(&ddg, &m, algo, &popts, &cfg).unwrap();
            let b = schedule_loop_seeded(&ddg, &m, algo, &popts, &cfg, &seed).unwrap();
            assert_eq!(a.schedule.ii(), b.schedule.ii(), "{algo:?}");
            assert_eq!(a.schedule.length(), b.schedule.length(), "{algo:?}");
            assert_eq!(a.cycles(), b.cycles(), "{algo:?}");
        }
    }

    #[test]
    fn fallback_fires_with_tiny_cap() {
        let ddg = kernels::dot_product(50);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let cfg = DriverConfig {
            ii_cap: Some(1),
            ..DriverConfig::default()
        };
        let r = schedule_loop_with(
            &ddg,
            &m,
            Algorithm::Uracam,
            &PartitionOptions::default(),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.method, ScheduledWith::ListFallback);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn result_carries_partition_for_gp_and_fixed() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::two_cluster(32, 1, 1);
        assert!(schedule_loop(&ddg, &m, Algorithm::Gp)
            .unwrap()
            .partition
            .is_some());
        assert!(schedule_loop(&ddg, &m, Algorithm::FixedPartition)
            .unwrap()
            .partition
            .is_some());
        assert!(schedule_loop(&ddg, &m, Algorithm::Uracam)
            .unwrap()
            .partition
            .is_none());
    }
}
