//! The traced run: a step-by-step replay of a workload's campaign pipeline
//! through the public functions of `gpu-runtime`, `nvbit` (via the
//! `nvbitfi` tools) and the `nvbitfi` core modules, with a span recorded
//! around each call. Spans live only in this file; the program under test
//! is not instrumented.
//!
//! Per program, every workload replays the transient pre-pass (golden,
//! exact profile, selection, static pruning) and runs three probes (bare
//! run, recording run, zero-simulation restore). Then it replays its own
//! injection phase:
//!
//! * `transient-suite` — checkpointed injection runs on [`WORKERS`] threads,
//!   each classified and journaled;
//! * `process-subset` — the same sites dispatched to real `nvbitfi worker`
//!   processes over the frame protocol, plus the in-process replay as a
//!   probe for the simulator-level counters;
//! * `permanent-suite` — golden, approximate profile and one
//!   [`PermanentInjector`] run per opcode experiment.
//!
//! Layers a workload's own phase does not touch are probed once per
//! program: one permanent-injector run, and one worker spawn to Ready.

use crate::stats::median;
use crate::workload::{
    transient_cfg, transient_verdict, Context, Iteration, Verdicts, Workload, INJECTIONS, WORKERS,
};
use gpu_runtime::{
    run_program, run_program_fast_forward, run_program_recording, CheckpointStore, RuntimeConfig,
};
use nvbitfi::logfile::{outcome_code, parse_outcome, results_log_header, results_log_row};
use nvbitfi::worker::{read_frame, write_frame};
use nvbitfi::{
    classify, golden_run, golden_run_recording, profile_program, prune_dead_sites, select_campaign,
    GoldenOutput, InjectionRun, IsolationMode, Journal, Msg, Outcome, OutcomeClass,
    PermanentInjector, PermanentParams, ProfilingMode, SdcCheck, TransientInjector,
    TransientParams, WorkerInit,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::BenchEntry;

/// One timed call: which layer, for which program, what caused it, and a
/// count of the work it did (instructions, sites, ...).
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    program: &'static str,
    start_ns: u128,
    dur_ns: u128,
    count: u64,
}

/// In-memory span store, written out once the benchmark ends.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty trace.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Time `f` as span `name`. `f` receives the span's id (the parent of
    /// any spans it opens) and returns its result plus a work count.
    fn span<R>(
        &self,
        name: &'static str,
        program: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> (R, u64),
    ) -> R {
        // Relaxed: the id is a unique label and publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (r, count) = f(id);
        let dur_ns = start.elapsed().as_nanos();
        let start_ns = start.duration_since(self.t0).as_nanos();
        let span = Span { id, parent, name, program, start_ns, dur_ns, count };
        self.spans.lock().expect("span store poisoned").push(span);
        r
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64).collect()
    }

    fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(d, c), s| (d + s.dur_ns as f64, c + s.count))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"program\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"count\":{}}}\n",
                s.id, s.parent, s.name, s.program, s.start_ns, s.dur_ns, s.count
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// What one traced pass over a workload produced besides its spans.
pub struct Pass {
    /// Host time of the replayed pipeline, probes excluded.
    pub elapsed: Duration,
    /// Per-program verdicts, comparable with an untraced [`Iteration`].
    pub verdicts: Vec<(String, Verdicts)>,
    golden_cycles: u64,
    tail_instrs: u64,
    skipped_instrs: u64,
}

type Result<T> = std::result::Result<T, String>;

/// Replay `w` once, traced.
pub fn traced_pass(
    tr: &Tracer,
    ctx: &Context,
    w: Workload,
    seed: u64,
    untraced: &Iteration,
) -> Result<Pass> {
    let mut pass = Pass {
        elapsed: Duration::ZERO,
        verdicts: Vec::new(),
        golden_cycles: 0,
        tail_instrs: 0,
        skipped_instrs: 0,
    };
    for (i, e) in w.programs().iter().enumerate() {
        let verdicts = replay_program(tr, ctx, w, e, seed, untraced, i, &mut pass)?;
        pass.verdicts.push((e.name.to_string(), verdicts));
    }
    Ok(pass)
}

#[allow(clippy::too_many_arguments)]
fn replay_program(
    tr: &Tracer,
    ctx: &Context,
    w: Workload,
    e: &BenchEntry,
    seed: u64,
    untraced: &Iteration,
    index: usize,
    pass: &mut Pass,
) -> Result<Verdicts> {
    let name = e.name;
    let prog = e.program.as_ref();
    let check = e.check.as_ref();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{name}: {what}: {e}");

    // The transient pre-pass, as `run_transient_campaign_with` runs it.
    let t_pre = Instant::now();
    let cfg = transient_cfg(seed, IsolationMode::Thread, true);
    let (golden, store) = tr
        .span("golden", name, 0, |_| {
            let r = golden_run_recording(prog, RuntimeConfig::default());
            let n = r.as_ref().map_or(0, |(g, _)| g.summary.dyn_instrs);
            (r, n)
        })
        .map_err(|e| err("golden run", &e))?;
    let store = store.into_shared();
    let run_cfg =
        RuntimeConfig { instr_budget: Some(golden.suggested_budget()), ..RuntimeConfig::default() };
    let profile = tr
        .span("profile", name, 0, |_| {
            (
                profile_program(prog, run_cfg.clone(), ProfilingMode::Exact),
                golden.summary.dyn_instrs,
            )
        })
        .map_err(|e| err("exact profile", &e))?;
    let sites = tr
        .span("select", name, 0, |_| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                select_campaign(&profile, cfg.group, cfg.bit_flip, INJECTIONS, &mut rng),
                INJECTIONS as u64,
            )
        })
        .map_err(|e| err("site selection", &e))?;
    let pruned = tr.span("prune", name, 0, |_| {
        let p = prune_dead_sites(prog, run_cfg.clone(), cfg.group, &sites);
        let n = p.iter().filter(|&&b| b).count() as u64;
        (p, n)
    });
    let pre_pass = t_pre.elapsed();
    pass.golden_cycles += golden.summary.cycles;
    ctx.check_golden(name, golden.summary.dyn_instrs, golden.summary.cycles)?;

    // Probes: the bare simulator, checkpoint recording, and a restore of
    // every launch with nothing left to simulate.
    tr.span("bare", name, 0, |_| {
        let out = run_program(prog, RuntimeConfig::default(), None);
        ((), out.summary.dyn_instrs)
    });
    tr.span("record", name, 0, |_| {
        let (out, _) = run_program_recording(prog, RuntimeConfig::default());
        ((), out.summary.dyn_instrs)
    });
    tr.span("restore", name, 0, |_| {
        let out = run_program_fast_forward(
            prog,
            run_cfg.clone(),
            None,
            Arc::clone(&store),
            store.len() as u64,
        );
        ((), out.prefix_instrs_skipped)
    });

    let journal = open_journal(ctx, w, name)?;
    let mut inj_cfg = run_cfg.clone();
    inj_cfg.wall_deadline = cfg.run_deadline;
    let replay = ThreadReplay {
        tr,
        name,
        prog,
        check,
        golden: &golden,
        store: &store,
        cfg: &inj_cfg,
        journal: &journal,
    };
    let verdicts = match w {
        Workload::TransientSuite => {
            let t = Instant::now();
            let (v, tail, skipped) = replay.run(&sites, &pruned)?;
            pass.elapsed += pre_pass + t.elapsed();
            pass.tail_instrs += tail;
            pass.skipped_instrs += skipped;
            permanent_probe(tr, e, &golden, &run_cfg, &profile)?;
            spawn_probe(tr, ctx, name)?;
            v
        }
        Workload::ProcessSubset => {
            let t = Instant::now();
            let v = worker_replay(tr, ctx, name, &sites, &pruned, &journal)?;
            pass.elapsed += pre_pass + t.elapsed();
            // The in-process probe journals to a file of its own.
            let probe_journal = open_journal(ctx, w, &format!("{name}.in-process"))?;
            let probe = ThreadReplay { journal: &probe_journal, ..replay };
            let (in_process, tail, skipped) = probe.run(&sites, &pruned)?;
            crate::workload::compare(name, "worker replay", &v, "in-process replay", &in_process)?;
            pass.tail_instrs += tail;
            pass.skipped_instrs += skipped;
            permanent_probe(tr, e, &golden, &run_cfg, &profile)?;
            v
        }
        Workload::PermanentSuite => {
            let params = &untraced.permanent_params[index];
            let (v, elapsed, tail) = permanent_replay(tr, e, params, &journal)?;
            pass.elapsed += elapsed;
            pass.tail_instrs += tail;
            spawn_probe(tr, ctx, name)?;
            v
        }
    };
    Ok(verdicts)
}

fn open_journal(ctx: &Context, w: Workload, name: &str) -> Result<Mutex<Journal>> {
    let header = results_log_header(name, &[("scale", "paper".to_string())]);
    ctx.create_journal(&format!("trace-{}", w.name()), name, &header).map(Mutex::new)
}

fn append(tr: &Tracer, name: &'static str, journal: &Mutex<Journal>, row: &str) -> Result<()> {
    tr.span("journal", name, 0, |_| (journal.lock().expect("journal lock poisoned").append(row), 1))
        .map_err(|e| format!("{name}: journal append: {e}"))
}

/// Round-trip a run and its verdict through the worker frame codec, as the
/// supervisor and worker exchange them.
fn codec(
    tr: &Tracer,
    name: &'static str,
    id: u64,
    site: String,
    outcome: &Outcome,
    wall: Duration,
) -> Result<()> {
    tr.span("codec", name, 0, |_| {
        let sent = [
            Msg::Run { id, site },
            Msg::Done {
                id,
                outcome: outcome_code(outcome),
                injected: true,
                wall_us: u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
                skip_instrs: 0,
            },
        ];
        let roundtrip = || -> std::io::Result<bool> {
            let mut buf = Vec::new();
            for m in &sent {
                write_frame(&mut buf, &m.to_json())?;
            }
            let mut r = buf.as_slice();
            for m in &sent {
                if read_frame(&mut r)?.and_then(|t| Msg::parse(&t)).as_ref() != Some(m) {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        (roundtrip(), 2)
    })
    .map_err(|e| format!("{name}: frame codec: {e}"))?
    .then_some(())
    .ok_or_else(|| format!("{name}: frame codec did not round-trip run {id}"))
}

/// Run `f(index)` for `0..n` on [`WORKERS`] threads; results in index order.
fn fan_out<R: Send>(n: usize, f: impl Fn(usize) -> Result<R> + Sync) -> Result<Vec<R>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<R>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                // Relaxed: a ticket counter; results publish through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                out.lock().expect("result store poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
}

/// A masked verdict synthesized for a statically pruned site.
fn pruned_run(params: TransientParams) -> InjectionRun {
    InjectionRun {
        params,
        outcome: Outcome { class: OutcomeClass::Masked, potential_due: false },
        injected: true,
        wall: Duration::ZERO,
        prefix_instrs_skipped: 0,
        pruned: true,
        attempts: 1,
        resumed: false,
    }
}

/// The thread-mode injection phase of one transient campaign.
struct ThreadReplay<'a> {
    tr: &'a Tracer,
    name: &'static str,
    prog: &'a dyn gpu_runtime::Program,
    check: &'a dyn SdcCheck,
    golden: &'a GoldenOutput,
    store: &'a Arc<CheckpointStore>,
    cfg: &'a RuntimeConfig,
    journal: &'a Mutex<Journal>,
}

impl ThreadReplay<'_> {
    /// Returns the verdicts plus the simulated-tail and skipped-prefix
    /// instruction counts.
    fn run(&self, sites: &[TransientParams], pruned: &[bool]) -> Result<(Verdicts, u64, u64)> {
        let (tr, name) = (self.tr, self.name);
        let runs = fan_out(sites.len(), |i| {
            let params = sites[i].clone();
            let (run, tail) = if pruned[i] {
                (pruned_run(params), 0)
            } else {
                tr.span("run", name, 0, |id| {
                    let t = Instant::now();
                    let upto = self
                        .store
                        .find_instance(&params.kernel_name, params.kernel_count)
                        .unwrap_or(self.store.len() as u64);
                    let (tool, handle) = TransientInjector::new(params.clone());
                    let (out, tail) = tr.span("inject", name, id, |_| {
                        let out = run_program_fast_forward(
                            self.prog,
                            self.cfg.clone(),
                            Some(Box::new(tool)),
                            Arc::clone(self.store),
                            upto,
                        );
                        let tail = out.summary.dyn_instrs.saturating_sub(out.prefix_instrs_skipped);
                        ((out, tail), tail)
                    });
                    let outcome = tr.span("classify", name, id, |_| {
                        (classify(self.golden, &out, self.check), 1)
                    });
                    let run = InjectionRun {
                        params,
                        outcome,
                        injected: handle.get().injected,
                        wall: t.elapsed(),
                        prefix_instrs_skipped: out.prefix_instrs_skipped,
                        pruned: false,
                        attempts: 1,
                        resumed: false,
                    };
                    ((run, tail), 1)
                })
            };
            append(tr, name, self.journal, &results_log_row(&run))?;
            codec(tr, name, i as u64, run.params.to_file(), &run.outcome, run.wall)?;
            Ok((transient_verdict(&run), tail, run.prefix_instrs_skipped))
        })?;
        let tail = runs.iter().map(|r| r.1).sum();
        let skipped = runs.iter().map(|r| r.2).sum();
        Ok((runs.into_iter().map(|r| r.0).collect(), tail, skipped))
    }
}

/// A live `nvbitfi worker` child, killed and reaped on drop.
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerProc {
    /// Spawn `nvbitfi worker` and wait for Ready after Init: the worker's
    /// golden replay and checkpoint recording.
    fn spawn(tr: &Tracer, ctx: &Context, name: &'static str) -> Result<WorkerProc> {
        let iso = ctx.process_isolation()?;
        let init = WorkerInit {
            program: name.to_string(),
            scale: iso.scale.clone(),
            use_checkpoints: true,
            deadline_ms: None,
            heartbeat_ms: u64::try_from(iso.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1),
        };
        tr.span("spawn_ready", name, 0, |_| {
            let r = (|| {
                let mut child = Command::new(&iso.command[0])
                    .args(&iso.command[1..])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| format!("{name}: spawn {}: {e}", iso.command[0]))?;
                let stdin = child.stdin.take().expect("stdin is piped");
                let stdout = child.stdout.take().expect("stdout is piped");
                let mut w = WorkerProc { child, stdin, stdout };
                write_frame(&mut w.stdin, &Msg::Init(init.clone()).to_json())
                    .map_err(|e| format!("{name}: worker init: {e}"))?;
                match w.recv()? {
                    Msg::Ready => Ok(w),
                    other => Err(format!("{name}: worker answered init with {other:?}")),
                }
            })();
            (r, 1)
        })
    }

    /// The next non-heartbeat message; a closed stream is a dead worker.
    fn recv(&mut self) -> Result<Msg> {
        loop {
            let frame = read_frame(&mut self.stdout).map_err(|e| format!("worker died: {e}"))?;
            match frame.map(|t| Msg::parse(&t)) {
                None => return Err("worker died: stream closed".into()),
                Some(None) => return Err("worker sent a corrupt frame".into()),
                Some(Some(Msg::Heartbeat)) => {}
                Some(Some(m)) => return Ok(m),
            }
        }
    }

    fn run(&mut self, id: u64, params: &TransientParams) -> Result<(String, Duration, u64)> {
        write_frame(&mut self.stdin, &Msg::Run { id, site: params.to_file() }.to_json())
            .map_err(|e| format!("worker died: {e}"))?;
        match self.recv()? {
            Msg::Done { id: got, outcome, wall_us, skip_instrs, .. } if got == id => {
                Ok((outcome, Duration::from_micros(wall_us), skip_instrs))
            }
            other => Err(format!("worker answered run {id} with {other:?}")),
        }
    }

    fn shutdown(mut self) -> Result<()> {
        write_frame(&mut self.stdin, &Msg::Shutdown.to_json())
            .map_err(|e| format!("worker shutdown: {e}"))?;
        self.stdin.flush().map_err(|e| format!("worker shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("worker wait: {e}"))?;
        status.success().then_some(()).ok_or_else(|| format!("worker exited with {status}"))
    }
}

/// The process-mode injection phase: [`WORKERS`] real worker processes,
/// each spawned lazily by its slot, fed sites over the frame protocol.
fn worker_replay(
    tr: &Tracer,
    ctx: &Context,
    name: &'static str,
    sites: &[TransientParams],
    pruned: &[bool],
    journal: &Mutex<Journal>,
) -> Result<Verdicts> {
    let next = AtomicUsize::new(0);
    let out: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    let slot = || -> Result<()> {
        let mut worker: Option<WorkerProc> = None;
        loop {
            // Relaxed: a ticket counter; results publish through the mutex.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sites.len() {
                break;
            }
            let params = &sites[i];
            let run = if pruned[i] {
                pruned_run(params.clone())
            } else {
                let w = match &mut worker {
                    Some(w) => w,
                    None => worker.insert(WorkerProc::spawn(tr, ctx, name)?),
                };
                let (code, wall, skipped) =
                    tr.span("dispatch", name, 0, |_| (w.run(i as u64, params), 1))?;
                let outcome =
                    parse_outcome(&code).ok_or_else(|| format!("{name}: bad outcome `{code}`"))?;
                InjectionRun {
                    params: params.clone(),
                    outcome,
                    injected: true,
                    wall,
                    prefix_instrs_skipped: skipped,
                    pruned: false,
                    attempts: 1,
                    resumed: false,
                }
            };
            append(tr, name, journal, &results_log_row(&run))?;
            out.lock().expect("result store poisoned").insert(i, transient_verdict(&run));
        }
        worker.map_or(Ok(()), WorkerProc::shutdown)
    };
    let results: Vec<Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS).map(|_| s.spawn(slot)).collect();
        handles.into_iter().map(|h| h.join().expect("worker slot panicked")).collect()
    });
    results.into_iter().collect::<Result<Vec<()>>>()?;
    Ok(out.into_inner().expect("result store poisoned").into_values().collect())
}

/// The permanent pipeline: golden, approximate profile, then each opcode
/// experiment the untraced campaign ran. Returns the verdicts, the
/// pipeline's host time and the instructions the experiments simulated.
fn permanent_replay(
    tr: &Tracer,
    e: &BenchEntry,
    params: &[PermanentParams],
    journal: &Mutex<Journal>,
) -> Result<(Verdicts, Duration, u64)> {
    let (name, prog, check) = (e.name, e.program.as_ref(), e.check.as_ref());
    let t0 = Instant::now();
    let golden = tr
        .span("perm_golden", name, 0, |_| (golden_run(prog, RuntimeConfig::default()), 1))
        .map_err(|e| format!("{name}: golden run: {e}"))?;
    let run_cfg =
        RuntimeConfig { instr_budget: Some(golden.suggested_budget()), ..RuntimeConfig::default() };
    tr.span("perm_profile", name, 0, |_| {
        (
            profile_program(prog, run_cfg.clone(), ProfilingMode::Approximate),
            golden.summary.dyn_instrs,
        )
    })
    .map_err(|e| format!("{name}: approximate profile: {e}"))?;
    let runs = fan_out(params.len(), |i| {
        let p = params[i];
        let t = Instant::now();
        let (outcome, instrs) = tr.span("run", name, 0, |id| {
            let (tool, _handle) = PermanentInjector::new(p);
            let out = tr.span("perm_inject", name, id, |_| {
                let out = run_program(prog, run_cfg.clone(), Some(Box::new(tool)));
                let n = out.summary.dyn_instrs;
                (out, n)
            });
            let outcome = tr.span("classify", name, id, |_| (classify(&golden, &out, check), 1));
            ((outcome, out.summary.dyn_instrs), 1)
        });
        let verdict = format!("{p}\t{}", outcome_code(&outcome));
        append(tr, name, journal, &format!("{verdict}\n"))?;
        codec(tr, name, i as u64, p.to_file(), &outcome, t.elapsed())?;
        Ok((verdict, instrs))
    })?;
    let instrs = runs.iter().map(|r| r.1).sum();
    Ok((runs.into_iter().map(|r| r.0).collect(), t0.elapsed(), instrs))
}

/// One permanent-injector run on the program's most executed opcode.
fn permanent_probe(
    tr: &Tracer,
    e: &BenchEntry,
    golden: &GoldenOutput,
    run_cfg: &RuntimeConfig,
    profile: &nvbitfi::Profile,
) -> Result<()> {
    let opcode = profile
        .executed_opcodes()
        .into_iter()
        .max_by_key(|op| profile.opcode_total(*op))
        .ok_or_else(|| format!("{}: empty profile", e.name))?;
    let params = PermanentParams { sm_id: 0, lane_id: 0, bit_mask: 1, opcode_id: opcode.encode() };
    tr.span("perm_inject", e.name, 0, |_| {
        let (tool, _handle) = PermanentInjector::new(params);
        let out = run_program(e.program.as_ref(), run_cfg.clone(), Some(Box::new(tool)));
        let _ = classify(golden, &out, e.check.as_ref());
        ((), out.summary.dyn_instrs)
    });
    Ok(())
}

/// Spawn one worker to Ready and shut it down.
fn spawn_probe(tr: &Tracer, ctx: &Context, name: &'static str) -> Result<()> {
    WorkerProc::spawn(tr, ctx, name)?.shutdown()
}

/// The per-layer metrics, from the spans and passes of a traced run. Host
/// times are scaled to the reference host speed: the untraced pass by its
/// own factor, the spans by the median factor of the traced passes.
pub fn per_layer(
    tr: &Tracer,
    passes: &[Pass],
    (untraced, untraced_scale): (&Iteration, f64),
    scale: f64,
    w: Workload,
) -> Vec<(String, f64, &'static str)> {
    let n = passes.len() as f64;
    let (bare_ns, bare_instrs) = tr.total("bare");
    let (record_ns, _) = tr.total("record");
    let (profile_ns, profile_instrs) = tr.total("profile");
    let (perm_ns, perm_instrs) = tr.total("perm_inject");
    let (golden_ns, _) = tr.total("golden");
    let (prune_ns, pruned) = tr.total("prune");
    let (_, selected) = tr.total("select");
    let first = &passes[0];
    let p50 = |name: &str| median(&tr.durations(name)) * scale;
    let busy: f64 = untraced.run_walls.iter().map(Duration::as_secs_f64).sum();
    let window = (untraced.elapsed.saturating_sub(untraced.setup)).as_secs_f64() * WORKERS as f64;
    let traced =
        median(&passes.iter().map(|p| p.elapsed.as_secs_f64()).collect::<Vec<_>>()) * scale;
    let respawns = if w == Workload::ProcessSubset { untraced.retries as f64 } else { 0.0 };
    vec![
        ("gpu-sim.bare_ns_per_instr".into(), bare_ns * scale / bare_instrs as f64, "ns"),
        ("gpu-sim.tail_instrs".into(), first.tail_instrs as f64, "count"),
        ("gpu-sim.golden_cycles".into(), first.golden_cycles as f64, "count"),
        ("nvbit.hooked_ns_per_instr".into(), profile_ns * scale / profile_instrs as f64, "ns"),
        ("nvbit.permanent_ns_per_instr".into(), perm_ns * scale / perm_instrs as f64, "ns"),
        ("nvbit.profile_overhead_x".into(), profile_ns / bare_ns, "x"),
        ("gpu-runtime.record_overhead_ms".into(), (record_ns - bare_ns) * scale / n / 1e6, "ms"),
        ("gpu-runtime.restore_ms".into(), p50("restore") / 1e6, "ms"),
        (
            "gpu-runtime.skip_frac".into(),
            first.skipped_instrs as f64 / (first.skipped_instrs + first.tail_instrs).max(1) as f64,
            "ratio",
        ),
        ("golden.ms".into(), golden_ns * scale / n / 1e6, "ms"),
        ("profile.ms".into(), profile_ns * scale / n / 1e6, "ms"),
        ("prune.ms".into(), prune_ns * scale / n / 1e6, "ms"),
        ("prune.pruned_frac".into(), pruned as f64 / selected.max(1) as f64, "ratio"),
        ("outcome.classify_us_p50".into(), p50("classify") / 1e3, "us"),
        ("journal.append_us_p50".into(), p50("journal") / 1e3, "us"),
        ("worker.codec_us_p50".into(), p50("codec") / 1e3, "us"),
        ("pool.spawn_ready_ms_p50".into(), p50("spawn_ready") / 1e6, "ms"),
        ("pool.respawns".into(), respawns, "count"),
        ("campaign.worker_idle_frac".into(), 1.0 - busy / window, "ratio"),
        (
            "trace.overhead_frac".into(),
            traced / (untraced.elapsed.as_secs_f64() * untraced_scale) - 1.0,
            "ratio",
        ),
    ]
}
