//! The program abstraction: a host application driving the runtime.

use crate::checkpoint::CheckpointStore;
use crate::error::RuntimeError;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::tool::{RunSummary, Tool};
use gpu_sim::TrapInfo;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a program run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// The process exited with a status code (0 = success).
    Normal {
        /// The exit status.
        exit_code: i32,
    },
    /// The external monitor killed the process after a detected hang.
    Hang,
    /// The process aborted (OS-detected crash), e.g. an abort-on-error host
    /// observing a device fault.
    Crash,
    /// The harness killed the process at its wall-clock deadline
    /// ([`crate::RuntimeConfig::wall_deadline`]). An infrastructure verdict
    /// about the experiment run, not an observation about the program —
    /// outcome classification must not fold it into the DUE taxonomy.
    DeadlineExceeded,
}

impl Termination {
    /// `true` for a clean, zero-status exit.
    pub fn is_clean(&self) -> bool {
        matches!(self, Termination::Normal { exit_code: 0 })
    }
}

/// Everything observable about one program run — the inputs to outcome
/// classification (paper Table V): standard output, output files, exit
/// status, device anomalies, and execution statistics.
#[derive(Debug, Clone)]
pub struct ProgramOutput {
    /// Captured standard output.
    pub stdout: String,
    /// Output files, keyed by name.
    pub files: BTreeMap<String, Vec<u8>>,
    /// How the process ended.
    pub termination: Termination,
    /// Device anomalies (trap log), whether or not the host checked them.
    pub anomalies: Vec<TrapInfo>,
    /// Launch-level statistics.
    pub summary: RunSummary,
    /// Dynamic instructions the run skipped by fast-forwarding the
    /// pre-injection prefix from checkpoints (0 for ordinary runs).
    pub prefix_instrs_skipped: u64,
    /// Dynamic instructions the run skipped by replaying launches at or
    /// past its target after converging back to golden (0 for ordinary
    /// runs).
    pub tail_instrs_replayed: u64,
    /// Global launch index at which the run was proven back in sync with
    /// golden ([`crate::Runtime::converged_at`]); `None` for ordinary runs.
    pub converged_at: Option<u64>,
}

impl ProgramOutput {
    /// `true` if any device anomaly was recorded — the "CUDA error /
    /// dmesg" signal behind potential-DUE classification.
    pub fn has_anomaly(&self) -> bool {
        !self.anomalies.is_empty()
    }
}

/// A GPU application: host logic that loads module binaries, manages device
/// memory, launches kernels, and emits output.
///
/// Implementations correspond to the paper's SpecACCEL benchmark programs;
/// the fault-injection campaign treats them as opaque (it never sees kernel
/// "source", only the module binaries the program loads).
pub trait Program: Sync {
    /// The program's name (e.g. `"303.ostencil"`).
    fn name(&self) -> &str;

    /// Run the host application to completion against `rt`.
    ///
    /// # Errors
    ///
    /// Any error returned here is the program exiting with non-zero status —
    /// an *application-detected* DUE in the paper's taxonomy.
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError>;
}

/// Run a program to termination, optionally with an attached tool, and
/// collect its observable output.
///
/// This is the campaign's unit of execution: one process launch, one
/// [`ProgramOutput`].
pub fn run_program(
    program: &dyn Program,
    cfg: RuntimeConfig,
    tool: Option<Box<dyn Tool>>,
) -> ProgramOutput {
    drive(program, cfg, tool, false, None).0
}

/// Run a program while recording a launch-boundary [`CheckpointStore`] —
/// how a campaign's golden run captures the state injection runs
/// fast-forward from.
pub fn run_program_recording(
    program: &dyn Program,
    cfg: RuntimeConfig,
) -> (ProgramOutput, CheckpointStore) {
    let (out, store) = drive(program, cfg, None, true, None);
    (out, store.unwrap_or_default())
}

/// Run a program against a golden checkpoint store — the injection-run
/// fast path. Every launch the tool declines to instrument replays from the
/// store while the run is in sync with golden ([`Runtime::fast_forward`]);
/// `upto` is the target's global launch index. `out.prefix_instrs_skipped`
/// and `out.tail_instrs_replayed` report the avoided work before and after
/// the target.
pub fn run_program_fast_forward(
    program: &dyn Program,
    cfg: RuntimeConfig,
    tool: Option<Box<dyn Tool>>,
    store: Arc<CheckpointStore>,
    upto: u64,
) -> ProgramOutput {
    drive(program, cfg, tool, false, Some((store, upto))).0
}

fn drive(
    program: &dyn Program,
    cfg: RuntimeConfig,
    tool: Option<Box<dyn Tool>>,
    record_checkpoints: bool,
    fast_forward: Option<(Arc<CheckpointStore>, u64)>,
) -> (ProgramOutput, Option<CheckpointStore>) {
    let mut rt = Runtime::new(cfg);
    if let Some(t) = tool {
        rt.attach_tool(t);
    }
    if record_checkpoints {
        rt.record_checkpoints();
    }
    if let Some((store, upto)) = fast_forward {
        rt.fast_forward(store, upto);
    }
    let result = program.run(&mut rt);
    let summary = rt.finish();
    let termination = match &result {
        Ok(()) => Termination::Normal { exit_code: 0 },
        Err(RuntimeError::Hang(_)) => Termination::Hang,
        Err(RuntimeError::Deadline(_)) => Termination::DeadlineExceeded,
        Err(RuntimeError::DeviceAbort(_)) => Termination::Crash,
        // Governor kill: the sandbox terminates the victim like an OOM-kill,
        // which the OS (and thus Table V) records as a crash.
        Err(RuntimeError::ResourceLimit(_)) => Termination::Crash,
        Err(e) => {
            rt.println(format!("error: {e}"));
            Termination::Normal { exit_code: 1 }
        }
    };
    let checkpoints = rt.take_checkpoints();
    let prefix_instrs_skipped = rt.prefix_instrs_skipped();
    let tail_instrs_replayed = rt.tail_instrs_replayed();
    let converged_at = rt.converged_at();
    let (stdout, files, anomalies) = rt.into_output();
    let out = ProgramOutput {
        stdout,
        files,
        termination,
        anomalies,
        summary,
        prefix_instrs_skipped,
        tail_instrs_replayed,
        converged_at,
    };
    (out, checkpoints)
}
