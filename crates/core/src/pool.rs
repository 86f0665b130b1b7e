//! Supervisor half of the process-isolation protocol.
//!
//! Thread-mode campaigns isolate runs with `catch_unwind`, which contains
//! Rust panics but nothing stronger: a run that segfaults, aborts, or gets
//! OOM-killed takes the whole campaign process with it. Process mode
//! ([`IsolationMode::Process`]) restores the paper's deployment shape —
//! every injection executes in a disposable child process, so the blast
//! radius of the nastiest fault is one worker, never the campaign.
//!
//! Process slots ride the campaign's own fan-out: each slot thread owns one
//! child process ([`Slot`]) speaking the [`crate::worker`] protocol, and
//! watches the child's frame stream with a liveness timeout derived from
//! the heartbeat interval. A worker that dies — killed by a signal, crashed,
//! wedged past the liveness window, or emitting protocol garbage — is killed
//! for certain, and the campaign's retry loop re-dispatches the in-flight
//! site to a fresh worker under the existing `max_retries` budget. A site
//! whose attempts run out is recorded as [`InfraKind::WorkerDied`]: excluded
//! from the paper's outcome denominators, and re-run by `resume` like every
//! infrastructure verdict.

use crate::campaign::{retry, CampaignConfig, FaultHook, InjectionRun};
use crate::logfile::parse_outcome;
use crate::outcome::{InfraKind, Outcome};
use crate::params::TransientParams;
use crate::worker::{read_frame, write_frame, Msg, WorkerInit};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// How a campaign executes its injection runs.
#[derive(Debug, Clone, Default)]
pub enum IsolationMode {
    /// In-process worker threads with `catch_unwind` isolation (the
    /// default): fastest, but only panic-safe.
    #[default]
    Thread,
    /// One disposable child process per worker slot, supervised over the
    /// [`crate::worker`] frame protocol: survives segfaults, aborts,
    /// OOM-kills, and protocol corruption.
    Process(ProcessIsolation),
}

/// Configuration of the process-isolation backend.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// The worker command line — typically `[<current exe>, "worker"]`.
    pub command: Vec<String>,
    /// Workload scale name forwarded to the worker's suite lookup.
    pub scale: String,
    /// Worker heartbeat interval; the supervisor's liveness window is a
    /// multiple of it (see [`ProcessIsolation::liveness`]).
    pub heartbeat: Duration,
    /// How long a fresh worker may take to replay its golden run and
    /// answer [`Msg::Ready`].
    pub ready_timeout: Duration,
    /// Test-only harness-fault injector: called with `(site_index,
    /// attempt)` right after a site is dispatched; returning `true`
    /// SIGKILLs the worker mid-run. `None` (always, outside tests)
    /// disables it.
    pub kill_hook: Option<FaultHook>,
}

impl ProcessIsolation {
    /// A process-isolation config with default heartbeat and timeouts.
    pub fn new(command: Vec<String>, scale: impl Into<String>) -> ProcessIsolation {
        ProcessIsolation {
            command,
            scale: scale.into(),
            heartbeat: Duration::from_millis(100),
            ready_timeout: Duration::from_secs(120),
            kill_hook: None,
        }
    }

    /// The liveness window: a dispatched worker silent (no heartbeat, no
    /// verdict) for this long is declared dead. Generous — 20 heartbeat
    /// intervals, floored at one second — because a false positive costs a
    /// respawn and a retry, while detection latency costs nothing (real
    /// deaths close the pipe and are noticed immediately).
    pub fn liveness(&self) -> Duration {
        self.heartbeat.saturating_mul(20).max(Duration::from_secs(1))
    }
}

/// How long each shutdown step waits before escalating to the next.
const GRACE: Duration = Duration::from_millis(500);

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(pid) = i32::try_from(pid) {
        // Best effort: the worker may already be gone, which is fine.
        unsafe {
            kill(pid, sig);
        }
    }
}

#[cfg(not(unix))]
fn send_signal(_pid: u32, _sig: i32) {}

/// What the reader thread saw on the worker's stdout.
enum Event {
    Frame(Msg),
    /// A frame arrived but was not a protocol message.
    Corrupt,
    /// The stream ended (worker exit, kill, or torn frame).
    Eof,
}

/// One live child process plus the thread draining its stdout.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    events: Receiver<Event>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    /// Start `command` with piped stdin/stdout and a reader thread that
    /// turns its stdout into [`Event`]s. `None` if the command cannot start.
    fn spawn(command: &[String]) -> Option<Worker> {
        let (exe, args) = command.split_first()?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .ok()?;
        let stdin = child.stdin.take()?;
        let mut stdout = child.stdout.take()?;
        let (tx, events) = channel();
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Some(text)) => {
                    let ev = Msg::parse(&text).map_or(Event::Corrupt, Event::Frame);
                    let corrupt = matches!(ev, Event::Corrupt);
                    if tx.send(ev).is_err() || corrupt {
                        break;
                    }
                }
                // Clean EOF and a torn frame end the stream the same way: the
                // supervisor cannot tell a crash from corruption, and
                // respawning is the right answer to both.
                Ok(None) | Err(_) => {
                    let _ = tx.send(Event::Eof);
                    break;
                }
            }
        });
        Some(Worker { child, stdin, events, reader: Some(reader) })
    }

    /// Dispatch one site and wait for its verdict with `(injected, skipped
    /// instructions, worker-side wall time)`. `None` if the worker died
    /// trying: anything but heartbeats and the matching verdict — an Error
    /// frame, a mismatched id, corruption, EOF, or a liveness timeout.
    fn run(
        &mut self,
        iso: &ProcessIsolation,
        orig: usize,
        site: &str,
        attempt: u32,
    ) -> Option<(Outcome, (bool, u64, Duration))> {
        let id = orig as u64;
        write_frame(&mut self.stdin, &Msg::Run { id, site: site.to_string() }.to_json()).ok()?;
        if let Some(hook) = &iso.kill_hook {
            if (hook.0)(orig, attempt) {
                send_signal(self.child.id(), SIGKILL);
            }
        }
        loop {
            match self.events.recv_timeout(iso.liveness()).ok()? {
                Event::Frame(Msg::Heartbeat) => {}
                Event::Frame(Msg::Done { id: done, outcome, injected, wall_us, skip_instrs })
                    if done == id =>
                {
                    let wall = Duration::from_micros(wall_us);
                    return Some((parse_outcome(&outcome)?, (injected, skip_instrs, wall)));
                }
                _ => return None,
            }
        }
    }

    /// Hard-kill the worker and reap it — the path for a worker declared
    /// dead (it may in fact be wedged rather than gone).
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }

    /// Graceful drain at end of campaign: send the shutdown frame and wait
    /// for the reader's EOF, which a worker produces by exiting, then reap.
    /// A worker that keeps its stream open, or closes it but keeps running,
    /// gets SIGTERM and then SIGKILL, each after a grace window. Returns the
    /// last signal sent, `None` if the worker exited on its own.
    fn shutdown(mut self) -> Option<i32> {
        let _ = write_frame(&mut self.stdin, &Msg::Shutdown.to_json());
        let deadline = Instant::now() + GRACE;
        let closed = loop {
            match self.events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Event::Eof) => break true,
                Ok(_) => {}
                Err(_) => break false,
            }
        };
        let mut signal = None;
        if !(closed && wait_with_grace(&mut self.child)) {
            send_signal(self.child.id(), SIGTERM);
            signal = Some(SIGTERM);
            if !wait_with_grace(&mut self.child) {
                let _ = self.child.kill();
                signal = Some(SIGKILL);
            }
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        signal
    }
}

/// Reap `child` if it exits within [`GRACE`]: a worker past its EOF, which
/// is already exiting, or one sent SIGTERM.
fn wait_with_grace(child: &mut Child) -> bool {
    let deadline = Instant::now() + GRACE;
    let mut pause = Duration::from_micros(50);
    loop {
        match child.try_wait() {
            Ok(Some(_)) | Err(_) => return true,
            Ok(None) => {}
        }
        if Instant::now() >= deadline {
            return false;
        }
        // A child's exit raises no event this thread can wait on. Past its
        // EOF a worker exits within microseconds, so the first pauses are short.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(5));
    }
}

/// Spawn one worker, run the init handshake, and wait for [`Msg::Ready`].
/// Returns `None` on any failure (command missing, instant exit, handshake
/// timeout) — the caller treats it as a worker death.
fn spawn_worker(iso: &ProcessIsolation, init: &WorkerInit) -> Option<Worker> {
    let mut worker = Worker::spawn(&iso.command)?;
    let deadline = Instant::now() + iso.ready_timeout;
    let mut alive = write_frame(&mut worker.stdin, &Msg::Init(init.clone()).to_json()).is_ok();
    while alive {
        match worker.events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Event::Frame(Msg::Ready)) => return Some(worker),
            Ok(Event::Frame(Msg::Heartbeat)) => {}
            _ => alive = false,
        }
    }
    worker.kill();
    None
}

/// A process slot of the campaign's fan-out: its worker, spawned on the
/// slot's first dispatch (and again after a death) and shut down when the
/// slot is dropped at the end of the campaign.
#[derive(Default)]
pub(crate) struct Slot(Option<Worker>);

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(w) = self.0.take() {
            w.shutdown();
        }
    }
}

/// The init frame every worker of this campaign gets.
pub(crate) fn worker_init(
    iso: &ProcessIsolation,
    cfg: &CampaignConfig,
    program_name: &str,
) -> WorkerInit {
    WorkerInit {
        program: program_name.to_string(),
        scale: iso.scale.clone(),
        use_checkpoints: cfg.use_checkpoints,
        deadline_ms: cfg.run_deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        heartbeat_ms: u64::try_from(iso.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1),
    }
}

/// Drive one site to a verdict on `slot`'s worker, retrying through worker
/// deaths and worker-reported infra failures under the campaign's retry
/// budget. Infallible by design: every failure mode downgrades to an
/// [`InfraKind::WorkerDied`] verdict.
pub(crate) fn run_site(
    iso: &ProcessIsolation,
    cfg: &CampaignConfig,
    init: &WorkerInit,
    slot: &mut Slot,
    orig: usize,
    params: TransientParams,
) -> InjectionRun {
    let site = params.to_file();
    let run = retry(cfg.max_retries, cfg.retry_backoff, InfraKind::WorkerDied, |attempt| {
        let worker = match &mut slot.0 {
            Some(w) => w,
            None => slot.0.insert(spawn_worker(iso, init)?),
        };
        let verdict = worker.run(iso, orig, &site, attempt);
        if verdict.is_none() {
            // Dead or wedged: kill it for certain; the next attempt respawns.
            if let Some(w) = slot.0.take() {
                w.kill();
            }
        }
        verdict
    });
    let (injected, skipped, wall) = run.detail.unwrap_or((false, 0, run.wall));
    InjectionRun {
        params,
        outcome: run.outcome,
        injected,
        wall,
        prefix_instrs_skipped: skipped,
        pruned: false,
        attempts: run.attempts,
        resumed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use crate::campaign::{dispatch, NoHooks};
    use crate::igid::InstrGroup;
    use crate::outcome::OutcomeClass;

    /// Run `work` through the campaign's fan-out on process slots.
    fn run_pool(
        iso: &ProcessIsolation,
        cfg: &CampaignConfig,
        work: Vec<(usize, TransientParams)>,
    ) -> (Vec<(usize, InjectionRun)>, bool) {
        let init = worker_init(iso, cfg, "tiny");
        let work = work.into_iter().map(|(orig, params)| (orig, params, false)).collect();
        dispatch(cfg.workers, work, &NoHooks, |slot: &mut Slot, orig, params| {
            run_site(iso, cfg, &init, slot, orig, params)
        })
    }

    fn site(i: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "k".into(),
            kernel_count: 0,
            instruction_count: i,
            destination_register: 0.5,
            bit_pattern: 0.5,
        }
    }

    /// A worker command that exits immediately can never produce verdicts:
    /// every site must come back as InfraError(WorkerDied) with the full
    /// retry budget spent — and the pool itself must not error or hang.
    #[test]
    #[cfg(unix)]
    fn dead_worker_command_degrades_to_infra_verdicts() {
        let iso = ProcessIsolation::new(vec!["/bin/false".into()], "test");
        let cfg = CampaignConfig {
            workers: 2,
            max_retries: 1,
            retry_backoff: Duration::ZERO,
            ..CampaignConfig::default()
        };
        let work = vec![(0, site(0)), (1, site(1)), (2, site(2))];
        let (out, stopped) = run_pool(&iso, &cfg, work);
        assert!(!stopped);
        assert_eq!(out.len(), 3);
        for (_, run) in &out {
            assert_eq!(run.outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
            assert_eq!(run.attempts, 2, "retry budget spent before giving up");
            assert!(!run.injected);
        }
    }

    /// A missing worker binary is the same story via the spawn-failure path.
    #[test]
    fn missing_worker_binary_degrades_to_infra_verdicts() {
        let iso = ProcessIsolation::new(vec!["/nonexistent/nvbitfi-worker-binary".into()], "test");
        let cfg = CampaignConfig {
            workers: 1,
            max_retries: 0,
            retry_backoff: Duration::ZERO,
            ..CampaignConfig::default()
        };
        let (out, stopped) = run_pool(&iso, &cfg, vec![(0, site(0))]);
        assert!(!stopped);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
        assert_eq!(out[0].1.attempts, 1);
    }

    /// A stand-in worker: `script` run by `/bin/sh -c`.
    #[cfg(unix)]
    fn stand_in(script: &str) -> Worker {
        Worker::spawn(&["/bin/sh".into(), "-c".into(), script.into()]).expect("sh starts")
    }

    #[test]
    #[cfg(unix)]
    fn a_worker_that_exits_on_its_first_input_needs_no_signal() {
        assert_eq!(stand_in("head -c 1 >/dev/null").shutdown(), None);
    }

    #[test]
    #[cfg(unix)]
    fn a_worker_that_ignores_the_shutdown_frame_is_terminated() {
        assert_eq!(stand_in("exec sleep 30").shutdown(), Some(SIGTERM));
    }

    /// EOF is not exit: a worker that closes stdout but keeps running (and
    /// ignores SIGTERM) is killed after two grace windows, not waited on.
    #[test]
    #[cfg(unix)]
    fn a_worker_that_closes_stdout_and_keeps_running_is_killed() {
        let t = Instant::now();
        assert_eq!(stand_in("trap '' TERM; exec sleep 30 >&-").shutdown(), Some(SIGKILL));
        assert!(t.elapsed() < GRACE * 3, "shutdown took {:?}", t.elapsed());
    }

    #[test]
    fn liveness_window_scales_with_heartbeat() {
        let mut iso = ProcessIsolation::new(vec!["x".into()], "test");
        assert_eq!(iso.liveness(), Duration::from_secs(2), "20 × 100ms default");
        iso.heartbeat = Duration::from_millis(10);
        assert_eq!(iso.liveness(), Duration::from_secs(1), "floored at 1s");
    }
}
