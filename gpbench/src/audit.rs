//! The simulator audit of scheduled units, off every timed path.

use gpsched_ddg::Ddg;
use gpsched_engine::conformance::audit_unit;
use gpsched_engine::RunRecord;
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use std::collections::BTreeMap;

/// What the program reported for one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub ii: i64,
    pub length: i64,
    pub cycles: u64,
    pub ops: u64,
    pub trips: u64,
}

impl Outcome {
    pub fn of_record(r: &RunRecord) -> Self {
        Outcome {
            ii: r.ii,
            length: r.length,
            cycles: r.cycles,
            ops: r.ops as u64,
            trips: r.trips,
        }
    }
}

/// One distinct scheduled unit and the program's answer for it.
pub struct Unit<'a> {
    pub ddg: &'a Ddg,
    pub machine: &'a MachineConfig,
    pub spec: AlgorithmSpec,
    pub out: Outcome,
}

#[derive(Default)]
pub struct Audit {
    pub units: u64,
    pub passed: u64,
    /// Useful ops of units that pass, and cycles of every unit.
    useful: f64,
    cycles: f64,
    pub failures_by_machine: BTreeMap<String, u64>,
    /// Units whose audited schedule differs from the reported one.
    pub mismatches: Vec<String>,
}

impl Audit {
    /// Aggregate IPC where a unit failing the audit keeps its cycles but
    /// contributes no useful ops.
    pub fn audited_ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.useful / self.cycles
        } else {
            0.0
        }
    }

    pub fn pass_share(&self) -> f64 {
        self.passed as f64 / self.units.max(1) as f64
    }

    /// Adds the audit of a disjoint set of units.
    pub fn merge(&mut self, other: Audit) {
        self.units += other.units;
        self.passed += other.passed;
        self.useful += other.useful;
        self.cycles += other.cycles;
        for (m, n) in other.failures_by_machine {
            *self.failures_by_machine.entry(m).or_default() += n;
        }
        self.mismatches.extend(other.mismatches);
    }
}

/// Re-schedules each unit through `audit_unit`, which replays the
/// schedule in the independent simulator, and checks that the audited
/// schedule is the one the program reported. The audit is off every
/// timed path, so it runs on the host's two CPUs.
pub fn audit<'a>(units: impl IntoIterator<Item = Unit<'a>>) -> Audit {
    let units: Vec<Unit> = units.into_iter().collect();
    let (mut a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| audit_serial(units.iter().skip(1).step_by(2)));
        let mine = audit_serial(units.iter().step_by(2));
        (mine, other.join().expect("audit thread panicked"))
    });
    a.merge(b);
    a
}

fn audit_serial<'a, 'b: 'a>(units: impl Iterator<Item = &'a Unit<'b>>) -> Audit {
    let mut a = Audit::default();
    for u in units {
        a.units += 1;
        a.cycles += u.out.cycles as f64;
        match audit_unit(u.ddg, u.machine, u.spec) {
            Ok(ok) => {
                a.passed += 1;
                a.useful += (u.out.ops * u.out.trips) as f64;
                if (ok.ii, ok.cycles) != (u.out.ii, u.out.cycles) {
                    a.mismatches.push(format!(
                        "{} on {} with {}: audited II {} / {} cycles, reported II {} / {} cycles",
                        u.ddg.name(),
                        u.machine.short_name(),
                        u.spec.name(),
                        ok.ii,
                        ok.cycles,
                        u.out.ii,
                        u.out.cycles
                    ));
                }
            }
            Err(_) => {
                *a.failures_by_machine
                    .entry(u.machine.short_name())
                    .or_default() += 1;
            }
        }
    }
    a
}
