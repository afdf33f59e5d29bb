//! Workload inputs, generated from the workload seed before anything is
//! timed. The program only ever sees the generated `.ddg` / `.machine` /
//! job-body text, never the seed.

use gpsched_engine::{parse_corpus, parse_machine_corpus, serialize_corpus};
use gpsched_engine::{serialize_machine_corpus, JobSpec};
use gpsched_machine::{table1_configs, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::synth::{corpus, derive_seed, preset, PRESET_NAMES};

/// Loops per preset in one `synth-cold` job: 6 presets × 32 loops on one
/// machine = 192 units.
const SYNTH_LOOPS_PER_PRESET: usize = 32;
/// `synth-cold` jobs a run can draw on: 38,400 units, more than a timed
/// region gets through.
const SYNTH_JOBS: usize = 200;

/// A batch workload: a sequence of jobs that a timed region sweeps in
/// order, wrapping.
pub enum Batch {
    /// The paper's fixed suite, one job swept again and again.
    SpecTable1,
    /// Fresh seeded synthetic jobs, each swept once.
    SynthCold { seed: u64 },
}

impl Batch {
    /// Distinct jobs before the sequence wraps.
    pub fn jobs(&self) -> usize {
        match self {
            Batch::SpecTable1 => 1,
            Batch::SynthCold { .. } => SYNTH_JOBS,
        }
    }

    pub fn job(&self, i: usize) -> BatchInput {
        match *self {
            Batch::SpecTable1 => spec_table1(),
            Batch::SynthCold { seed } => synth_cold(seed, i),
        }
    }

    pub fn use_cache(&self) -> bool {
        matches!(self, Batch::SpecTable1)
    }

    /// Jobs in one round: one job of `spec-table1`, or one `synth-cold`
    /// job on each clustered machine. Units cost several times more on
    /// some machines than on others, so a timed region of whole rounds
    /// keeps the mix of machines the same in every run.
    pub fn round(&self) -> usize {
        match self {
            Batch::SpecTable1 => 1,
            Batch::SynthCold { .. } => clustered_table1().len(),
        }
    }
}

/// A batch workload as the CLI would receive it: one `.ddg` corpus per
/// aggregation group, one `.machine` corpus, and the algorithm list.
pub struct BatchInput {
    pub groups: Vec<(String, String)>,
    pub machine_text: String,
    pub algos: Vec<AlgorithmSpec>,
}

fn spec(s: &str) -> AlgorithmSpec {
    AlgorithmSpec::parse(s).expect("benchmark algorithm names parse")
}

fn table1() -> Vec<MachineConfig> {
    table1_configs().into_iter().map(|(_, m)| m).collect()
}

fn clustered_table1() -> Vec<MachineConfig> {
    table1()
        .into_iter()
        .filter(|m| m.cluster_count() > 1)
        .collect()
}

/// The paper's own evaluation: 70 SPECfp95 loops × 10 Table 1 machines ×
/// five algorithms, memo cache on (the CLI default). Takes no seed.
pub fn spec_table1() -> BatchInput {
    let groups = gpsched_workloads::spec_suite()
        .iter()
        .map(|p| (p.name.to_string(), serialize_corpus(&p.loops)))
        .collect();
    BatchInput {
        groups,
        machine_text: serialize_machine_corpus(&table1()),
        algos: ["uracam", "fixed", "gp", "list", "portfolio"]
            .map(spec)
            .to_vec(),
    }
}

/// Job `job` of `synth-cold`: 32 fresh loops of each of the six synthetic
/// presets, seeded from `seed`, on one of the eight clustered Table 1
/// machines (in turn), with `gp` and the cache off (Table 2 timing mode).
///
/// Every unit is a loop the run has not seen, one machine per loop. A few
/// synthetic loops cost twenty times the median, and a hard loop is hard
/// on most machines, so a corpus swept on all eight machines gives the
/// tail few independent samples: with 300 loops × 8 machines,
/// `unit_ms_p99` moved by up to 2× between seeds.
fn synth_cold(seed: u64, job: usize) -> BatchInput {
    let machines = clustered_table1();
    let groups = PRESET_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let profile = preset(name).expect("preset names resolve");
            // Loop k of a corpus is seeded `base + k`: bases 64 apart keep
            // every (job, preset) block disjoint.
            let block = (job * PRESET_NAMES.len() + i) as u64 * 64;
            let base = derive_seed(seed.wrapping_mul(1_000_003), block);
            let loops = corpus(name, &profile, base, SYNTH_LOOPS_PER_PRESET);
            (name.to_string(), serialize_corpus(&loops))
        })
        .collect();
    BatchInput {
        groups,
        machine_text: serialize_machine_corpus(&machines[job % machines.len()..][..1]),
        algos: vec![spec("gp")],
    }
}

impl BatchInput {
    /// The program's set-up work for a batch run: parse the `.ddg` and
    /// `.machine` texts and build the job, as `gpsched-engine sweep
    /// --corpus … --machines FILE.machine` does.
    pub fn parse(&self) -> JobSpec {
        let mut job = JobSpec::new();
        for (group, text) in &self.groups {
            for ddg in parse_corpus(text).expect("generated .ddg text parses") {
                job = job.loop_in(group.clone(), ddg);
            }
        }
        let machines =
            parse_machine_corpus(&self.machine_text).expect("generated .machine text parses");
        job = job.machines(machines.into_iter().map(|(_, m)| m));
        job.algorithms = self.algos.clone();
        job
    }

    fn algos_line(&self) -> String {
        let names: Vec<String> = self.algos.iter().map(|a| a.spec_string()).collect();
        format!("algos {}\n", names.join(","))
    }

    /// The same workload as daemon job bodies, one per group. Units of
    /// group `g` appear in the batch job as one contiguous block in the
    /// same (loop, machine, algorithm) order.
    pub fn group_bodies(&self) -> Vec<String> {
        self.groups
            .iter()
            .map(|(group, text)| {
                format!(
                    "group {group}\n{}{}\n{text}",
                    self.algos_line(),
                    self.machine_text
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(synth_cold(3, 5).groups, synth_cold(3, 5).groups);
        assert_ne!(synth_cold(3, 5).groups, synth_cold(4, 5).groups);
        assert_ne!(synth_cold(3, 5).groups, synth_cold(3, 6).groups);
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        assert_eq!(spec_table1().parse().unit_count(), 3500);
        assert_eq!(synth_cold(1, 0).parse().unit_count(), 192);
    }
}
