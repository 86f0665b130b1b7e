//! The golden (fault-free) reference run — Figure 1's "golden output state".

use crate::error::FiError;
use gpu_runtime::{
    run_program, run_program_recording, CheckpointStore, Program, ProgramOutput, RunSummary,
    RuntimeConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The reference outputs every injection run is compared against.
#[derive(Debug, Clone)]
pub struct GoldenOutput {
    /// Golden standard output.
    pub stdout: String,
    /// Golden output files.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Launch statistics of the clean run.
    pub summary: RunSummary,
}

impl GoldenOutput {
    /// The largest single-launch dynamic instruction count observed.
    pub fn max_launch_instrs(&self) -> u64 {
        self.summary.launches.iter().map(|l| l.stats.dyn_instrs).max().unwrap_or(0)
    }

    /// A per-launch hang-detection budget: 10× the longest golden launch
    /// (with a floor), the usual timeout-multiplier convention for fault
    /// injection monitors.
    pub fn suggested_budget(&self) -> u64 {
        (self.max_launch_instrs() * 10).max(100_000)
    }
}

/// Run the program with no tool attached and capture its golden output.
///
/// # Errors
///
/// Returns [`FiError::GoldenRunFailed`] if the clean run hangs, exits
/// non-zero, or records any device anomaly — a fault-injection campaign
/// against a program that misbehaves on its own is meaningless.
pub fn golden_run(program: &dyn Program, cfg: RuntimeConfig) -> Result<GoldenOutput, FiError> {
    let out: ProgramOutput = run_program(program, cfg, None);
    validate(program, out)
}

/// Like [`golden_run`], but also record a launch-boundary
/// [`CheckpointStore`] for injection runs to fast-forward from.
///
/// # Errors
///
/// Same as [`golden_run`].
pub fn golden_run_recording(
    program: &dyn Program,
    cfg: RuntimeConfig,
) -> Result<(GoldenOutput, CheckpointStore), FiError> {
    let (out, store) = run_program_recording(program, cfg);
    Ok((validate(program, out)?, store))
}

/// The golden run a campaign (or a process worker) sets itself up with:
/// with `record`, also the checkpoint store its injection runs share.
pub(crate) fn golden_setup(
    program: &dyn Program,
    cfg: RuntimeConfig,
    record: bool,
) -> Result<(GoldenOutput, Option<Arc<CheckpointStore>>), FiError> {
    if record {
        golden_run_recording(program, cfg).map(|(g, store)| (g, Some(store.into_shared())))
    } else {
        golden_run(program, cfg).map(|g| (g, None))
    }
}

fn validate(program: &dyn Program, out: ProgramOutput) -> Result<GoldenOutput, FiError> {
    if !out.termination.is_clean() {
        return Err(FiError::GoldenRunFailed {
            program: program.name().to_string(),
            reason: format!("terminated with {:?}", out.termination),
        });
    }
    if out.has_anomaly() {
        return Err(FiError::GoldenRunFailed {
            program: program.name().to_string(),
            reason: format!("clean run recorded {} device anomalies", out.anomalies.len()),
        });
    }
    Ok(GoldenOutput { stdout: out.stdout, files: out.files, summary: out.summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_runtime::{Runtime, RuntimeError};

    struct Good;
    impl gpu_runtime::Program for Good {
        fn name(&self) -> &str {
            "good"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            rt.println("result 42");
            rt.write_file("o.dat", vec![4, 2]);
            Ok(())
        }
    }

    struct Bad;
    impl gpu_runtime::Program for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn run(&self, _rt: &mut Runtime) -> Result<(), RuntimeError> {
            Err(RuntimeError::LaunchConfig("broken".into()))
        }
    }

    #[test]
    fn golden_captures_outputs() {
        let g = golden_run(&Good, RuntimeConfig::default()).expect("golden");
        assert_eq!(g.stdout, "result 42\n");
        assert_eq!(g.files["o.dat"], vec![4, 2]);
        assert_eq!(g.max_launch_instrs(), 0);
        assert_eq!(g.suggested_budget(), 100_000, "floor applies");
    }

    #[test]
    fn golden_rejects_failing_program() {
        let err = golden_run(&Bad, RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, FiError::GoldenRunFailed { .. }));
    }
}
