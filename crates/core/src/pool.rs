//! Supervisor half of the process-isolation protocol.
//!
//! Thread-mode campaigns isolate runs with `catch_unwind`, which contains
//! Rust panics but nothing stronger: a run that segfaults, aborts, or gets
//! OOM-killed takes the whole campaign process with it. Process mode
//! ([`IsolationMode::Process`]) restores the paper's deployment shape —
//! every injection executes in a disposable child process, so the blast
//! radius of the nastiest fault is one worker, never the campaign.
//!
//! The supervisor runs one coordinator thread per worker slot. Each thread
//! owns one child process speaking the [`crate::worker`] protocol, pulls
//! sites from a shared queue, and watches the child's frame stream with a
//! liveness timeout derived from the heartbeat interval. A worker that
//! dies — killed by a signal, crashed, wedged past the liveness window, or
//! emitting protocol garbage — is killed for certain, respawned with the
//! campaign's deterministic backoff, and the in-flight site is re-dispatched
//! under the existing `max_retries` budget. A site whose attempts run out is
//! recorded as [`InfraKind::WorkerDied`]: excluded from the paper's outcome
//! denominators, and re-run by `resume` like every infrastructure verdict.

use crate::campaign::{CampaignConfig, CampaignHooks, FaultHook, InjectionRun};
use crate::logfile::parse_outcome;
use crate::outcome::{InfraKind, Outcome, OutcomeClass};
use crate::params::TransientParams;
use crate::worker::{read_frame, write_frame, Msg, WorkerInit};
use parking_lot::Mutex;
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

    fn dispatch(&mut self, id: u64, site: &str) -> bool {
        write_frame(&mut self.stdin, &Msg::Run { id, site: site.to_string() }.to_json()).is_ok()
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
    if write_frame(&mut worker.stdin, &Msg::Init(init.clone()).to_json()).is_err() {
        worker.kill();
        return None;
    }
    let deadline = Instant::now() + iso.ready_timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match worker.events.recv_timeout(left) {
            Ok(Event::Frame(Msg::Ready)) => return Some(worker),
            Ok(Event::Frame(Msg::Heartbeat)) => {}
            _ => {
                worker.kill();
                return None;
            }
        }
    }
}

fn declare_dead(worker: &mut Option<Worker>) {
    if let Some(w) = worker.take() {
        w.kill();
    }
}

/// One dispatch attempt against the (possibly respawned) worker. Returns
/// the worker's verdict, or `None` if the worker died trying — in which
/// case it has already been killed and cleared for respawn.
fn try_once(
    iso: &ProcessIsolation,
    init: &WorkerInit,
    worker: &mut Option<Worker>,
    orig: usize,
    site: &str,
    attempt: u32,
) -> Option<(Outcome, bool, u64, u64)> {
    if worker.is_none() {
        *worker = spawn_worker(iso, init);
    }
    let w = worker.as_mut()?;
    if !w.dispatch(orig as u64, site) {
        declare_dead(worker);
        return None;
    }
    if let Some(hook) = &iso.kill_hook {
        if (hook.0)(orig, attempt) {
            send_signal(w.child.id(), SIGKILL);
        }
    }
    let liveness = iso.liveness();
    loop {
        match w.events.recv_timeout(liveness) {
            Ok(Event::Frame(Msg::Heartbeat)) => {}
            Ok(Event::Frame(Msg::Done { id, outcome, injected, wall_us, skip_instrs }))
                if id == orig as u64 =>
            {
                return match parse_outcome(&outcome) {
                    Some(o) => Some((o, injected, wall_us, skip_instrs)),
                    None => {
                        declare_dead(worker);
                        None
                    }
                };
            }
            // Anything else — an Error frame, a mismatched verdict id,
            // corruption, EOF, or liveness timeout — is a dead worker.
            Ok(_) | Err(_) => {
                declare_dead(worker);
                return None;
            }
        }
    }
}

/// Drive one site to a verdict, retrying through worker deaths and
/// worker-reported infra failures under the campaign's retry budget.
fn run_site(
    iso: &ProcessIsolation,
    cfg: &CampaignConfig,
    init: &WorkerInit,
    worker: &mut Option<Worker>,
    orig: usize,
    params: TransientParams,
) -> InjectionRun {
    let max_attempts = cfg.max_retries.saturating_add(1);
    let site = params.to_file();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let t = Instant::now();
        let verdict = try_once(iso, init, worker, orig, &site, attempts);
        match verdict {
            Some((outcome, injected, wall_us, skip_instrs))
                if !outcome.is_infra() || attempts >= max_attempts =>
            {
                break InjectionRun {
                    params,
                    outcome,
                    injected,
                    wall: Duration::from_micros(wall_us),
                    prefix_instrs_skipped: skip_instrs,
                    pruned: false,
                    attempts,
                    resumed: false,
                };
            }
            None if attempts >= max_attempts => {
                break InjectionRun {
                    params,
                    outcome: Outcome {
                        class: OutcomeClass::InfraError(InfraKind::WorkerDied),
                        potential_due: false,
                    },
                    injected: false,
                    wall: t.elapsed(),
                    prefix_instrs_skipped: 0,
                    pruned: false,
                    attempts,
                    resumed: false,
                };
            }
            // Worker death or worker-reported infra failure with attempts
            // remaining: back off and retry (a death also means the next
            // attempt gets a fresh worker).
            Some(_) | None => {}
        }
        if !cfg.retry_backoff.is_zero() {
            // Deliberate: the retry backoff is a delay, not a wait for an event.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(cfg.retry_backoff * attempts);
        }
    }
}

/// Fan `work` out over a pool of supervised worker processes. Returns the
/// completed `(site index, run)` pairs (unordered) plus whether the pool
/// stopped early via `stop`. Infallible by design: every failure mode
/// downgrades to a per-site [`InfraKind::WorkerDied`] verdict.
pub(crate) fn run_pool(
    iso: &ProcessIsolation,
    cfg: &CampaignConfig,
    program_name: &str,
    work: Vec<(usize, TransientParams)>,
    stop: &(dyn Fn() -> bool + Sync),
    hooks: &dyn CampaignHooks,
) -> (Vec<(usize, InjectionRun)>, bool) {
    let init = WorkerInit {
        program: program_name.to_string(),
        scale: iso.scale.clone(),
        use_checkpoints: cfg.use_checkpoints,
        deadline_ms: cfg.run_deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        heartbeat_ms: u64::try_from(iso.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1),
    };
    let total = work.len();
    let slots = cfg.workers.max(1).min(total.max(1));
    let queue = Mutex::new(work.into_iter());
    let results: Mutex<Vec<(usize, InjectionRun)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..slots {
            s.spawn(|| {
                let mut worker: Option<Worker> = None;
                loop {
                    if stop() {
                        break;
                    }
                    let next = queue.lock().next();
                    let Some((orig, params)) = next else { break };
                    let run = run_site(iso, cfg, &init, &mut worker, orig, params);
                    hooks.on_run(&run);
                    results.lock().push((orig, run));
                }
                if let Some(w) = worker.take() {
                    w.shutdown();
                }
            });
        }
    });
    let out = results.into_inner();
    let stopped = out.len() < total;
    (out, stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use crate::campaign::NoHooks;
    use crate::igid::InstrGroup;

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
        let (out, stopped) = run_pool(&iso, &cfg, "tiny", work, &|| false, &NoHooks);
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
        let (out, stopped) = run_pool(&iso, &cfg, "tiny", vec![(0, site(0))], &|| false, &NoHooks);
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
