//! Micro-benchmark 6 — Parallelism (`ParallelDegree`).
//!
//! "Since flash devices include many flash chips (even USB flash drives
//! typically contain two flash chips), we want to study how they
//! support overlapping IOs. We divide the target space into
//! ParallelDegree subsets, each one accessed by a process executing the
//! same baseline pattern." (§3.2; Table 1: `[2⁰ … 2⁴]`.)
//!
//! §5.2's finding (Hint 7): no performance improvement from parallel
//! submission; high degrees make multiple sequential-write patterns
//! degenerate to partitioned-write patterns.
//!
//! Beyond the paper, the `qd_sweep` binary sweeps the *device
//! command-queue depth* (NCQ, [`queue_depths`]): the 2008 devices
//! uFLIP measured served one command at a time (which is why Hint 7
//! found no benefit), but the simulator's submission engine can
//! overlap in-flight IOs across flash channels, so the sweep shows the
//! throughput those same channel layouts would deliver with a deeper
//! queue — emergent, not scripted (see `uflip_core::executor`).

use crate::experiment::{Experiment, ExperimentPoint, Workload};
use crate::micro::MicroConfig;
use uflip_patterns::{LbaFn, Mode, ParallelSpec};

/// Degrees swept: 1, 2, 4, 8, 16.
pub fn degrees() -> Vec<u32> {
    (0..=4u32).map(|e| 1 << e).collect()
}

/// Device queue depths swept by `qd_sweep`: 1, 2, 4, 8, 16, 32.
pub fn queue_depths() -> Vec<u32> {
    (0..=5u32).map(|e| 1 << e).collect()
}

/// Build the four Parallelism experiments (one per baseline pattern).
pub fn experiments(cfg: &MicroConfig) -> Vec<Experiment> {
    let baselines = [
        (LbaFn::Sequential, Mode::Read, "SR"),
        (LbaFn::Random, Mode::Read, "RR"),
        (LbaFn::Sequential, Mode::Write, "SW"),
        (LbaFn::Random, Mode::Write, "RW"),
    ];
    baselines
        .into_iter()
        .map(|(lba, mode, code)| Experiment {
            name: format!("parallelism/{code}"),
            varying: "ParallelDegree",
            points: degrees()
                .into_iter()
                .map(|d| ExperimentPoint {
                    param: f64::from(d),
                    param_label: format!("degree {d}"),
                    workload: Workload::Parallel(ParallelSpec::new(cfg.baseline(lba, mode), d)),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_match_table1() {
        assert_eq!(degrees(), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn four_experiments_with_valid_parallel_specs() {
        let exps = experiments(&MicroConfig::quick());
        assert_eq!(exps.len(), 4);
        for e in &exps {
            for p in &e.points {
                match &p.workload {
                    Workload::Parallel(ps) => ps.validate().expect("parallel point must validate"),
                    _ => panic!("parallelism must produce parallel workloads"),
                }
            }
        }
    }

    #[test]
    fn slices_shrink_with_degree() {
        let exps = experiments(&MicroConfig::quick());
        let points = &exps[2].points; // SW
        let slice_of = |w: &Workload| match w {
            Workload::Parallel(p) => p.process_specs()[0].target_size,
            _ => unreachable!(),
        };
        assert!(slice_of(&points[0].workload) > slice_of(&points[4].workload));
    }
}
