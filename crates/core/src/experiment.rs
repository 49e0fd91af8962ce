//! Experiments: collections of runs with a single varying parameter.
//!
//! §3.2, design principle 1: "A collection of runs of the same reference
//! pattern is called an experiment. To enable sound analysis … we design
//! each experiment around a single varying parameter."

use crate::executor::{
    execute_mixed_with_policy, execute_parallel_with_policy, execute_run_with_policy, run_basic,
    run_mixed, run_parallel,
};
use crate::policy::{IoContext, IoPolicy};
use crate::run::RunResult;
use crate::stats::RunStats;
use crate::Result;
use uflip_device::BlockDevice;
use uflip_obs::SinkHandle;
use uflip_patterns::{MixSpec, ParallelSpec, PatternSpec};

/// A workload point: one of the paper's three pattern classes.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A basic pattern.
    Basic(PatternSpec),
    /// A mixed pattern (micro-benchmark 7).
    Mixed(MixSpec),
    /// A parallel pattern (micro-benchmark 6).
    Parallel(ParallelSpec),
}

impl Workload {
    /// Execute the workload against a device.
    pub fn execute(&self, dev: &mut dyn BlockDevice) -> Result<RunResult> {
        self.execute_with_policy(dev, &IoPolicy::none(), &SinkHandle::null())
    }

    /// Execute the workload under an [`IoPolicy`], observed by `sink`,
    /// through its class's `_with_policy` executor: transient device
    /// faults are retried with backoff and accounted to `sink`, which
    /// also records the run when enabled.
    pub fn execute_with_policy(
        &self,
        dev: &mut dyn BlockDevice,
        policy: &IoPolicy,
        sink: &SinkHandle,
    ) -> Result<RunResult> {
        match self {
            Workload::Basic(spec) => execute_run_with_policy(dev, spec, policy, sink),
            Workload::Mixed(mix) => {
                execute_mixed_with_policy(dev, mix, policy, sink).map(|(run, _)| run)
            }
            Workload::Parallel(par) => execute_parallel_with_policy(dev, par, policy, sink),
        }
    }

    /// Run the workload's IO loop under `ctx` without the observation
    /// bracket (the plan executor brackets its runs itself).
    pub(crate) fn run(&self, dev: &mut dyn BlockDevice, ctx: &mut IoContext) -> Result<RunResult> {
        match self {
            Workload::Basic(spec) => run_basic(dev, spec, ctx),
            Workload::Mixed(mix) => run_mixed(dev, mix, ctx).map(|(run, _)| run),
            Workload::Parallel(par) => run_parallel(dev, par, ctx),
        }
    }

    /// The latency population this workload's response times belong
    /// to: read or write for single-mode patterns (parallel runs take
    /// their base pattern's mode), mixed for read/write mixes.
    pub fn latency_class(&self) -> uflip_obs::LatencyClass {
        match self {
            Workload::Basic(spec) => crate::observe::class_of(spec.mode),
            Workload::Mixed(_) => uflip_obs::LatencyClass::Mixed,
            Workload::Parallel(par) => crate::observe::class_of(par.base.mode),
        }
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            Workload::Basic(spec) => spec.code(),
            Workload::Mixed(mix) => mix.name(),
            Workload::Parallel(par) => par.name(),
        }
    }

    /// Bytes of device space the workload's target window spans
    /// (used by the benchmark-plan allocator).
    pub fn target_span(&self) -> u64 {
        match self {
            Workload::Basic(spec) => spec.target_size,
            Workload::Mixed(mix) => mix.a.target_size + mix.b.target_size,
            Workload::Parallel(par) => par.base.target_size,
        }
    }

    /// Whether the workload issues sequential writes (those experiments
    /// are delayed and grouped by the plan, §4.2).
    pub fn uses_sequential_writes(&self) -> bool {
        fn basic(s: &PatternSpec) -> bool {
            use uflip_patterns::{LbaFn, Mode};
            s.mode == Mode::Write
                && matches!(
                    s.lba,
                    LbaFn::Sequential | LbaFn::Partitioned { .. } | LbaFn::Ordered { .. }
                )
        }
        match self {
            Workload::Basic(s) => basic(s),
            Workload::Mixed(m) => basic(&m.a) || basic(&m.b),
            Workload::Parallel(p) => basic(&p.base),
        }
    }

    /// Shift the workload's target window(s) to a new base offset.
    pub fn relocated(&self, new_offset: u64) -> Workload {
        match self {
            Workload::Basic(s) => Workload::Basic(s.with_target(new_offset, s.target_size)),
            Workload::Mixed(m) => {
                let mut m2 = *m;
                m2.a = m.a.with_target(new_offset, m.a.target_size);
                m2.b =
                    m.b.with_target(new_offset + m.a.target_size, m.b.target_size);
                Workload::Mixed(m2)
            }
            Workload::Parallel(p) => {
                let mut p2 = *p;
                p2.base = p.base.with_target(new_offset, p.base.target_size);
                Workload::Parallel(p2)
            }
        }
    }
}

/// One experiment point: a parameter value and its workload.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The varying parameter's value at this point.
    pub param: f64,
    /// Human-readable parameter rendering (e.g. `32 KB`).
    pub param_label: String,
    /// The workload to run.
    pub workload: Workload,
}

/// An experiment: runs of the same reference pattern with one varying
/// parameter.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment name (e.g. `granularity/SW`).
    pub name: String,
    /// Name of the varying parameter (e.g. `IOSize`).
    pub varying: &'static str,
    /// The points to measure, in sweep order.
    pub points: Vec<ExperimentPoint>,
}

/// The measured outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Parameter value.
    pub param: f64,
    /// Parameter label.
    pub param_label: String,
    /// Workload label.
    pub workload_label: String,
    /// Run trace.
    pub run: RunResult,
    /// Summary statistics (running phase only).
    pub stats: Option<RunStats>,
}

/// The measured outcome of a whole experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name.
    pub name: String,
    /// Varying parameter name.
    pub varying: &'static str,
    /// Per-point results in sweep order.
    pub points: Vec<PointResult>,
}

impl Experiment {
    /// Run every point against `dev`, inserting `inter_run_pause`
    /// between runs so they do not interfere (§4.3).
    pub fn run(
        &self,
        dev: &mut dyn BlockDevice,
        inter_run_pause: std::time::Duration,
    ) -> Result<ExperimentResult> {
        let mut points = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let run = p.workload.execute(dev)?;
            dev.idle(inter_run_pause);
            let stats = run.summary();
            points.push(PointResult {
                param: p.param,
                param_label: p.param_label.clone(),
                workload_label: p.workload.label(),
                run,
                stats,
            });
        }
        Ok(ExperimentResult {
            name: self.name.clone(),
            varying: self.varying,
            points,
        })
    }
}

impl ExperimentResult {
    /// (param, mean ms) series — the paper's typical plot.
    pub fn mean_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.stats.map(|s| (p.param, s.mean_ms())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uflip_device::MemDevice;
    use uflip_patterns::{LbaFn, Mode};

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn exp() -> Experiment {
        let points = [8u64, 16, 32]
            .iter()
            .map(|&kb| ExperimentPoint {
                param: kb as f64,
                param_label: format!("{kb} KB"),
                workload: Workload::Basic(PatternSpec::baseline_sw(kb * KB, 4 * MB, 10)),
            })
            .collect();
        Experiment {
            name: "granularity/SW".into(),
            varying: "IOSize",
            points,
        }
    }

    #[test]
    fn experiment_runs_all_points() {
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(10), 1);
        let res = exp().run(&mut dev, Duration::from_millis(1)).unwrap();
        assert_eq!(res.points.len(), 3);
        let series = res.mean_series();
        assert_eq!(series.len(), 3);
        // Larger IOs cost more on the linear-cost MemDevice.
        assert!(series[0].1 < series[2].1);
    }

    #[test]
    fn sequential_write_detection() {
        let sw = Workload::Basic(PatternSpec::baseline_sw(32 * KB, MB, 4));
        let rw = Workload::Basic(PatternSpec::baseline_rw(32 * KB, MB, 4));
        let sr = Workload::Basic(PatternSpec::baseline_sr(32 * KB, MB, 4));
        let ordered = Workload::Basic(PatternSpec::baseline(
            LbaFn::Ordered { incr: -1 },
            Mode::Write,
            32 * KB,
            MB,
            4,
        ));
        assert!(sw.uses_sequential_writes());
        assert!(!rw.uses_sequential_writes());
        assert!(!sr.uses_sequential_writes());
        assert!(ordered.uses_sequential_writes());
    }

    #[test]
    fn relocation_moves_windows() {
        let sw = Workload::Basic(PatternSpec::baseline_sw(32 * KB, MB, 4));
        let moved = sw.relocated(16 * MB);
        match moved {
            Workload::Basic(s) => assert_eq!(s.target_offset, 16 * MB),
            _ => unreachable!(),
        }
        let mix = Workload::Mixed(MixSpec::new(
            PatternSpec::baseline_sr(32 * KB, MB, 1),
            PatternSpec::baseline_rw(32 * KB, MB, 1),
            2,
            6,
        ));
        match mix.relocated(8 * MB) {
            Workload::Mixed(m) => {
                assert_eq!(m.a.target_offset, 8 * MB);
                assert_eq!(m.b.target_offset, 9 * MB, "windows stay disjoint");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn target_span_accounts_for_mixes() {
        let mix = Workload::Mixed(MixSpec::new(
            PatternSpec::baseline_sr(32 * KB, MB, 1),
            PatternSpec::baseline_rw(32 * KB, 2 * MB, 1),
            2,
            6,
        ));
        assert_eq!(mix.target_span(), 3 * MB);
    }
}
