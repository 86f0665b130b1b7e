//! Campaign orchestration — Figure 1 end to end, many times over.
//!
//! A transient campaign runs: golden run → profile → select N faults →
//! N injection runs → classify each against golden. A permanent campaign
//! runs one experiment per *executed* opcode (the profile prunes unused
//! opcodes, as §IV-C describes) and weights outcomes by each opcode's
//! dynamic instruction share (Figure 3).
//!
//! Injection runs are independent processes in the paper; here they are
//! independent simulator instances, fanned out across worker slots: threads,
//! or threads that each supervise one worker process ([`crate::pool`]).
//! Either way a run goes through the same fan-out ([`fan_out_until`]), the
//! same retry loop ([`retry`]) and the same injection body ([`inject`]).

use crate::bitflip::BitFlipModel;
use crate::error::FiError;
use crate::golden::{golden_run, golden_setup, GoldenOutput};
use crate::igid::InstrGroup;
use crate::outcome::{classify, InfraKind, Outcome, OutcomeClass, OutcomeCounts, SdcCheck};
use crate::params::{PermanentParams, TransientParams};
use crate::permanent::PermanentInjector;
use crate::pool::{self, IsolationMode};
use crate::profile::{profile_program, Profile, ProfilingMode};
use crate::prune::{prune_dead_sites, prune_dead_sites_from_checkpoints};
use crate::select::select_campaign;
use crate::transient::TransientInjector;
use gpu_runtime::{
    run_program, run_program_fast_forward, CheckpointStore, Program, RuntimeConfig, Tool,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a transient-fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base runtime configuration for every run.
    pub runtime: RuntimeConfig,
    /// Number of injections (the paper uses 100 per program; 1000 tightens
    /// the confidence interval, see [`crate::stats`]).
    pub injections: usize,
    /// Instruction group to inject.
    pub group: InstrGroup,
    /// Bit-flip model.
    pub bit_flip: BitFlipModel,
    /// Exact or approximate profiling.
    pub profiling: ProfilingMode,
    /// RNG seed for fault selection (campaigns are reproducible).
    pub seed: u64,
    /// Worker threads for injection runs.
    pub workers: usize,
    /// When `true` (the default), the golden run records launch-boundary
    /// checkpoints and every injection run fast-forwards its pre-injection
    /// prefix from them instead of re-simulating it. `false` reproduces the
    /// paper's full-replay cost (the `--no-checkpoint` escape hatch).
    pub use_checkpoints: bool,
    /// When `true` (the default), sites whose corrupted destination is
    /// provably dead at the injection point (per `gpu-analysis` liveness)
    /// are classified Masked without simulation. Sound by construction —
    /// see [`crate::prune`] — and disabled by `--no-static-prune`.
    pub use_static_prune: bool,
    /// Extra execution attempts granted to a run whose worker panicked or
    /// whose wall-clock deadline expired, before the site is recorded as
    /// [`OutcomeClass::InfraError`]. `0` records the first failure.
    pub max_retries: u32,
    /// Pause between retry attempts, scaled linearly by the attempt number
    /// (deterministic backoff). `Duration::ZERO` retries immediately.
    pub retry_backoff: Duration,
    /// Per-run wall-clock deadline. A run that outlives it is killed by the
    /// simulator's deadline poll, retried per `max_retries`, and ultimately
    /// recorded as [`OutcomeClass::InfraError`] — the backstop against
    /// runaway runs the instruction budget cannot catch (e.g. host-side
    /// loops). `None` disables the deadline.
    pub run_deadline: Option<Duration>,
    /// Test-only fault injector for the harness itself: called before each
    /// execution attempt with `(site_index, attempt)`; returning `true`
    /// panics the worker at that point. `None` (always, outside tests)
    /// disables it. Honored by thread isolation only; process isolation has
    /// its own knob ([`crate::pool::ProcessIsolation::kill_hook`]).
    pub fault_hook: Option<FaultHook>,
    /// How injection runs execute: in-process worker threads (the default)
    /// or supervised disposable worker processes — see [`IsolationMode`].
    pub isolation: IsolationMode,
}

/// A harness-fault injector for testing worker isolation: `(site_index,
/// attempt)` → `true` panics the worker before that execution attempt.
#[derive(Clone)]
pub struct FaultHook(pub Arc<dyn Fn(usize, u32) -> bool + Send + Sync>);

impl FaultHook {
    /// Wrap a predicate as a hook.
    pub fn new(f: impl Fn(usize, u32) -> bool + Send + Sync + 'static) -> FaultHook {
        FaultHook(Arc::new(f))
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runtime: RuntimeConfig::default(),
            injections: 100,
            group: InstrGroup::GpPr,
            bit_flip: BitFlipModel::FlipSingleBit,
            profiling: ProfilingMode::Exact,
            seed: 0x5EED,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            use_checkpoints: true,
            use_static_prune: true,
            max_retries: 1,
            retry_backoff: Duration::from_millis(50),
            run_deadline: None,
            fault_hook: None,
            isolation: IsolationMode::Thread,
        }
    }
}

/// One classified injection run.
#[derive(Debug, Clone)]
pub struct InjectionRun {
    /// The fault parameters.
    pub params: TransientParams,
    /// The classified outcome.
    pub outcome: Outcome,
    /// `true` if the fault actually fired (with approximate profiling, a
    /// selected site may lie beyond the instance's real execution).
    pub injected: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Dynamic instructions skipped by checkpoint fast-forwarding (0 when
    /// checkpoints are disabled).
    pub prefix_instrs_skipped: u64,
    /// `true` if the outcome came from static dead-fault pruning rather
    /// than a simulated run (always Masked, `wall` is zero).
    pub pruned: bool,
    /// Execution attempts this verdict took (`1` for a clean first run;
    /// `> 1` means the worker panicked or overran its deadline and was
    /// retried).
    pub attempts: u32,
    /// `true` if this run's verdict was reloaded from a prior campaign's
    /// journal by `resume` rather than executed in this campaign.
    pub resumed: bool,
}

/// Wall-clock accounting for overhead analysis (Figures 4 and 5).
///
/// `setup` and `golden_and_profiling` are elapsed times. `golden` and
/// `profiling` are each run's own duration; with checkpoints under thread
/// isolation the two runs overlap, so their sum exceeds
/// `golden_and_profiling`. The injection durations are per run, so their
/// sum is serial-equivalent time, not elapsed time.
#[derive(Debug, Clone, Default)]
pub struct CampaignTiming {
    /// Elapsed time from the campaign's start to its first injection
    /// dispatch: golden, profiling, site selection and static analysis.
    pub setup: Duration,
    /// Elapsed time of the golden and profiling runs together.
    pub golden_and_profiling: Duration,
    /// Duration of the uninstrumented golden run.
    pub golden: Duration,
    /// Duration of the profiling run.
    pub profiling: Duration,
    /// Duration of the static-analysis pass (site resolution plus
    /// liveness), zero when pruning is disabled.
    pub analysis: Duration,
    /// Durations of the individual injection runs.
    pub injections: Vec<Duration>,
    /// Total dynamic instructions the injection runs skipped by
    /// fast-forwarding pre-injection prefixes from checkpoints.
    pub prefix_instrs_skipped: u64,
}

impl CampaignTiming {
    /// Median injection-run duration (the statistic Figure 4 reports).
    pub fn median_injection(&self) -> Duration {
        if self.injections.is_empty() {
            return Duration::ZERO;
        }
        let mut v = self.injections.clone();
        v.sort();
        v[v.len() / 2]
    }

    /// Serial-equivalent campaign time: profiling, static analysis, and the
    /// sum of all injection runs (Figure 5).
    pub fn total(&self) -> Duration {
        self.profiling + self.analysis + self.injections.iter().sum::<Duration>()
    }
}

/// Result of a transient campaign.
#[derive(Debug)]
pub struct TransientCampaign {
    /// Program name.
    pub program: String,
    /// The profile used for site selection.
    pub profile: Profile,
    /// Golden reference.
    pub golden: GoldenOutput,
    /// Aggregate outcome tally.
    pub counts: OutcomeCounts,
    /// Per-injection details, in selection order. After an interrupted
    /// campaign this holds only the sites that completed.
    pub runs: Vec<InjectionRun>,
    /// Timing for overhead analysis.
    pub timing: CampaignTiming,
    /// `true` if the campaign stopped early ([`CampaignHooks::should_stop`])
    /// with sites still unclassified; `counts` and `runs` cover only the
    /// completed portion.
    pub interrupted: bool,
}

impl TransientCampaign {
    /// Number of sites classified by static dead-fault pruning instead of
    /// simulation.
    pub fn statically_pruned(&self) -> usize {
        self.runs.iter().filter(|r| r.pruned).count()
    }

    /// Number of verdicts reloaded from a prior journal by `resume`.
    pub fn resumed_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.resumed).count()
    }

    /// Number of runs that needed more than one execution attempt.
    pub fn retried_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.attempts > 1).count()
    }

    /// Number of sites whose verdict is [`InfraKind::WorkerDied`] — a
    /// process-isolated worker vanished mid-run and the retry budget ran
    /// out (always 0 under thread isolation).
    pub fn worker_deaths(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.outcome.class == OutcomeClass::InfraError(InfraKind::WorkerDied))
            .count()
    }
}

/// Observation points a caller can attach to a running campaign.
///
/// Methods are invoked from worker threads, so implementations must be
/// `Sync` and use interior mutability.
pub trait CampaignHooks: Sync {
    /// Called once per completed run, as it completes (dispatch order, not
    /// selection order) — the durable journal's append point. Not called
    /// for verdicts reloaded from a prior journal.
    fn on_run(&self, run: &InjectionRun) {
        let _ = run;
    }

    /// Polled before each site is dispatched; returning `true` stops the
    /// campaign gracefully: in-flight runs finish (and reach
    /// [`CampaignHooks::on_run`]), undispatched sites are dropped, and the
    /// result is marked [`TransientCampaign::interrupted`].
    fn should_stop(&self) -> bool {
        false
    }
}

/// The no-op hooks [`run_transient_campaign`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl CampaignHooks for NoHooks {}

/// Fan `items` out over up to `slots` threads, polling `stop` before each
/// dispatch. Each thread keeps one `S` (a worker process, or nothing) for
/// every item it takes and drops it when the queue runs dry. Returns the
/// completed results in item order plus whether the run was cut short. A
/// stopped fan-out still waits for in-flight items.
pub(crate) fn fan_out_until<T: Send, R: Send, S: Default>(
    slots: usize,
    items: Vec<T>,
    stop: &(dyn Fn() -> bool + Sync),
    f: impl Fn(&mut S, T) -> R + Sync,
) -> (Vec<R>, bool) {
    let total = items.len();
    let input = Mutex::new(items.into_iter().enumerate());
    let output: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..slots.clamp(1, total.max(1)) {
            s.spawn(|| {
                let mut slot = S::default();
                loop {
                    if stop() {
                        break;
                    }
                    let next = input.lock().next();
                    let Some((idx, item)) = next else { break };
                    let r = f(&mut slot, item);
                    output.lock().push((idx, r));
                }
            });
        }
    });
    let mut out = output.into_inner();
    out.sort_by_key(|(i, _)| *i);
    let stopped = out.len() < total;
    (out.into_iter().map(|(_, r)| r).collect(), stopped)
}

/// Key identifying a fault site for resume matching: exactly the parameter
/// columns a results-log row serializes, so a reloaded row matches a
/// reselected site iff their log lines would be identical.
fn site_key(p: &TransientParams) -> String {
    p.to_file()
}

/// Run `f` and measure how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Run `f` with panic isolation: a panic unwinds to here and yields `None`
/// instead of taking down the fan-out scope (and with it every in-flight
/// run) or the worker session.
pub(crate) fn isolate<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// The verdict [`retry`] settled on.
pub(crate) struct Settled<T> {
    /// The last attempt's outcome, or `InfraError` if it gave none.
    pub(crate) outcome: Outcome,
    /// The last attempt's details; `None` if it gave no outcome.
    pub(crate) detail: Option<T>,
    /// Wall-clock time of the last attempt.
    pub(crate) wall: Duration,
    /// Attempts made, the last one included.
    pub(crate) attempts: u32,
}

/// Drive one run to a verdict: call `attempt` with the 1-based attempt
/// number until it returns a non-infrastructure outcome or `max_retries + 1`
/// attempts are spent, pausing `backoff × attempt` between tries. `None`
/// from `attempt` means it ended without an outcome (a panic, a dead
/// worker); if the last attempt does, the verdict is `InfraError(gave_up)`.
/// A runaway or crashing run thus costs one verdict, never the campaign.
pub(crate) fn retry<T>(
    max_retries: u32,
    backoff: Duration,
    gave_up: InfraKind,
    mut attempt: impl FnMut(u32) -> Option<(Outcome, T)>,
) -> Settled<T> {
    let max_attempts = max_retries.saturating_add(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let (result, wall) = timed(|| attempt(attempts));
        let last = attempts >= max_attempts;
        match result {
            Some((outcome, detail)) if last || !outcome.is_infra() => {
                return Settled { outcome, detail: Some(detail), wall, attempts };
            }
            None if last => {
                let outcome =
                    Outcome { class: OutcomeClass::InfraError(gave_up), potential_due: false };
                return Settled { outcome, detail: None, wall, attempts };
            }
            Some(_) | None => {}
        }
        if !backoff.is_zero() {
            // Deliberate: the retry backoff is a delay, not a wait for an event.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(backoff * attempts);
        }
    }
}

/// The global launch index of `params`' target kernel instance in `store`.
/// A site the golden run never reached (possible with approximate profiles)
/// can never fire, so its run fast-forwards through every recorded launch.
fn target_launch(store: &CheckpointStore, params: &TransientParams) -> u64 {
    store.find_instance(&params.kernel_name, params.kernel_count).unwrap_or(store.len() as u64)
}

/// One injection run: execute `program` under a [`TransientInjector`] for
/// `params`, fast-forwarding its prefix from `store` when there is one, and
/// classify it against `golden`. Returns the outcome, whether the fault
/// fired, and the prefix instructions skipped. Thread slots and process
/// workers both run exactly this.
pub(crate) fn inject(
    program: &dyn Program,
    check: &dyn SdcCheck,
    golden: &GoldenOutput,
    store: Option<&Arc<CheckpointStore>>,
    cfg: &RuntimeConfig,
    params: &TransientParams,
) -> (Outcome, bool, u64) {
    let (tool, handle) = TransientInjector::new(params.clone());
    let tool: Option<Box<dyn Tool>> = Some(Box::new(tool));
    let out = match store {
        Some(s) => run_program_fast_forward(
            program,
            cfg.clone(),
            tool,
            Arc::clone(s),
            target_launch(s, params),
        ),
        None => run_program(program, cfg.clone(), tool),
    };
    (classify(golden, &out, check), handle.get().injected, out.prefix_instrs_skipped)
}

/// Fan a campaign's sites `(selection index, params, pruned)` out over
/// `workers` slots of type `S`. A pruned site gets its Masked verdict here
/// without simulation; a live one goes to `run_live`. Every verdict reaches
/// [`CampaignHooks::on_run`] as it completes. Returns `(selection index,
/// run)` pairs plus whether `hooks` stopped the campaign early.
pub(crate) fn dispatch<S: Default>(
    workers: usize,
    work: Vec<(usize, TransientParams, bool)>,
    hooks: &dyn CampaignHooks,
    run_live: impl Fn(&mut S, usize, TransientParams) -> InjectionRun + Sync,
) -> (Vec<(usize, InjectionRun)>, bool) {
    fan_out_until(workers, work, &|| hooks.should_stop(), |slot, (orig, params, pruned)| {
        let run = if pruned {
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
        } else {
            run_live(slot, orig, params)
        };
        hooks.on_run(&run);
        (orig, run)
    })
}

/// Run a complete transient-fault campaign on one program.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails, or if the
/// selected instruction group has no dynamic instructions in the profile.
pub fn run_transient_campaign(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &CampaignConfig,
) -> Result<TransientCampaign, FiError> {
    run_transient_campaign_with(program, check, cfg, Vec::new(), &NoHooks)
}

/// Run a transient campaign, resuming past any `prior` verdicts and
/// reporting progress through `hooks`.
///
/// `prior` rows (reloaded from a crashed campaign's journal via
/// [`crate::logfile::recover_results_log`] and [`crate::logfile::to_runs`])
/// are matched against the freshly-selected sites by parameter equality;
/// matched sites keep their recorded verdict (marked
/// [`InjectionRun::resumed`]) and are not re-executed. Prior
/// [`OutcomeClass::InfraError`] verdicts are *not* honored — the harness
/// failed those runs, so a resume gives them a fresh chance. Because
/// selection is seed-deterministic, resuming an interrupted campaign with
/// its original configuration completes exactly the missing sites and
/// reproduces the uninterrupted campaign's outcome counts.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails, or if the
/// selected instruction group has no dynamic instructions in the profile.
pub fn run_transient_campaign_with(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &CampaignConfig,
    prior: Vec<InjectionRun>,
    hooks: &dyn CampaignHooks,
) -> Result<TransientCampaign, FiError> {
    // Workers run with the default runtime configuration (`WorkerInit`
    // carries none), so a custom one would select sites on one device and
    // execute them on another.
    if matches!(cfg.isolation, IsolationMode::Process(_)) && cfg.runtime != RuntimeConfig::default()
    {
        return Err(FiError::BadParam {
            name: "runtime",
            reason: "process isolation runs workers with the default runtime configuration".into(),
        });
    }

    // Steps 0-1: the golden run (also calibrates the hang monitor) and the
    // profile. With checkpoints enabled, golden also records the
    // launch-boundary state every later run fast-forwards from. Under
    // thread isolation the two runs then overlap on two threads: the
    // profile does not need golden's hang budget, because a clean program
    // never nears the device default. Under process isolation they stay in
    // sequence: the supervisor runs no injections, so a second simulator
    // thread there only adds its working set to the supervisor's peak
    // memory. Without checkpoints they run in sequence too (the reference
    // path).
    let t_setup = Instant::now();
    let overlap = cfg.use_checkpoints && matches!(cfg.isolation, IsolationMode::Thread);
    let golden_timed = || timed(|| golden_setup(program, cfg.runtime.clone(), cfg.use_checkpoints));
    let profile_timed = |rt: RuntimeConfig| timed(|| profile_program(program, rt, cfg.profiling));
    let ((recorded, golden_wall), overlapped) = if overlap {
        std::thread::scope(|s| {
            let profiling = s.spawn(|| profile_timed(cfg.runtime.clone()));
            let golden = golden_timed();
            (golden, Some(profiling.join().unwrap_or_else(|p| std::panic::resume_unwind(p))))
        })
    } else {
        (golden_timed(), None)
    };
    let (golden, checkpoints) = recorded?;
    let mut run_cfg = cfg.runtime.clone();
    run_cfg.instr_budget = Some(golden.suggested_budget());
    let (profile, profiling_wall) = overlapped.unwrap_or_else(|| profile_timed(run_cfg.clone()));
    let profile = profile?;
    let golden_and_profiling = t_setup.elapsed();

    // Step 2: select fault sites. Selection consumes the RNG before any
    // pruning happens, so a seed picks the same sites with pruning on or
    // off — the two configurations differ only in how sites are resolved.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sites = select_campaign(&profile, cfg.group, cfg.bit_flip, cfg.injections, &mut rng)?;

    // Step 2b: static dead-fault pruning. One extra resolver run maps
    // each site to its static pc; sites whose corrupted destination is
    // dead there are provably Masked and skip simulation entirely. With
    // checkpoints, that run simulates only the sites' target launches.
    let (pruned_flags, analysis_wall) = match (&checkpoints, cfg.use_static_prune) {
        (_, false) => (vec![false; sites.len()], Duration::ZERO),
        (Some(store), true) => timed(|| {
            prune_dead_sites_from_checkpoints(program, run_cfg.clone(), cfg.group, &sites, store)
        }),
        (None, true) => timed(|| prune_dead_sites(program, run_cfg.clone(), cfg.group, &sites)),
    };

    // Group sites by their target launch: runs sharing a target restore the
    // same checkpoint, so the store's pages stay warm across consecutive
    // work items.
    let mut work: Vec<(usize, TransientParams, bool)> = sites
        .into_iter()
        .zip(pruned_flags)
        .enumerate()
        .map(|(i, (p, pruned))| (i, p, pruned))
        .collect();
    if let Some(store) = &checkpoints {
        work.sort_by_cached_key(|(i, p, _)| (target_launch(store, p), *i));
    }

    // Resume: match prior verdicts to the freshly-selected sites by
    // parameter equality (multiset semantics — duplicate selections consume
    // one prior row each). Matched sites skip execution; prior InfraError
    // verdicts are discarded so the harness's own failures get re-run.
    let mut unused_prior: Vec<Option<InjectionRun>> =
        prior.into_iter().map(|r| if r.outcome.is_infra() { None } else { Some(r) }).collect();
    let mut reloaded: Vec<(usize, InjectionRun)> = Vec::new();
    work.retain(|(orig, params, _)| {
        let key = site_key(params);
        let hit = unused_prior
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|r| site_key(&r.params) == key));
        match hit {
            Some(slot) => {
                let mut run = slot.take().expect("slot checked above");
                run.resumed = true;
                reloaded.push((*orig, run));
                false
            }
            None => true,
        }
    });

    // The per-run deadline applies to injection runs only: the golden,
    // profiling, and resolver runs above are campaign prerequisites, not
    // experiments the harness may abandon.
    let mut inj_cfg = run_cfg.clone();
    inj_cfg.wall_deadline = cfg.run_deadline;
    let setup = t_setup.elapsed();

    // Steps 3-4: inject and classify, fanned out over worker slots sharing
    // the immutable checkpoint store. Each site executes behind an isolation
    // boundary: a panic, a dead worker or a deadline overrun costs (after
    // `max_retries` further attempts) only that site's verdict, recorded as
    // InfraError, never the campaign.
    let (mut tagged, interrupted) = match &cfg.isolation {
        IsolationMode::Thread => dispatch(cfg.workers, work, hooks, |_: &mut (), orig, params| {
            let run =
                retry(cfg.max_retries, cfg.retry_backoff, InfraKind::WorkerPanic, |attempt| {
                    isolate(|| {
                        if let Some(hook) = &cfg.fault_hook {
                            if (hook.0)(orig, attempt) {
                                panic!("fault-hook: injected worker panic");
                            }
                        }
                        let (outcome, injected, skipped) = inject(
                            program,
                            check,
                            &golden,
                            checkpoints.as_ref(),
                            &inj_cfg,
                            &params,
                        );
                        (outcome, (injected, skipped))
                    })
                });
            let (injected, skipped) = run.detail.unwrap_or_default();
            InjectionRun {
                params,
                outcome: run.outcome,
                injected,
                wall: run.wall,
                prefix_instrs_skipped: skipped,
                pruned: false,
                attempts: run.attempts,
                resumed: false,
            }
        }),
        // Live sites cross the process boundary to supervised workers.
        IsolationMode::Process(iso) => {
            let init = pool::worker_init(iso, cfg, program.name());
            dispatch(cfg.workers, work, hooks, |slot: &mut pool::Slot, orig, params| {
                pool::run_site(iso, cfg, &init, slot, orig, params)
            })
        }
    };
    // The fan-out preserved dispatch (grouped) order; report in selection order,
    // with reloaded prior verdicts merged back in.
    tagged.extend(reloaded);
    tagged.sort_by_key(|&(orig, _)| orig);
    let runs: Vec<InjectionRun> = tagged.into_iter().map(|(_, r)| r).collect();

    let mut counts = OutcomeCounts::default();
    for r in &runs {
        counts.add(&r.outcome);
    }
    let timing = CampaignTiming {
        setup,
        golden_and_profiling,
        golden: golden_wall,
        profiling: profiling_wall,
        analysis: analysis_wall,
        injections: runs.iter().map(|r| r.wall).collect(),
        prefix_instrs_skipped: runs.iter().map(|r| r.prefix_instrs_skipped).sum(),
    };
    Ok(TransientCampaign {
        program: program.name().to_string(),
        profile,
        golden,
        counts,
        runs,
        timing,
        interrupted,
    })
}

/// Configuration of a permanent-fault campaign.
#[derive(Debug, Clone)]
pub struct PermanentCampaignConfig {
    /// Base runtime configuration for every run.
    pub runtime: RuntimeConfig,
    /// RNG seed (SM, lane, and mask bit are drawn per opcode).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// When `true` (the default), opcodes with zero dynamic count are
    /// skipped, "further simplifying the campaign" (§IV-C). When `false`,
    /// all 171 opcodes run, as in the paper's Figure 3 experiment.
    pub skip_unused: bool,
    /// Extra attempts for a panicked or deadline-killed experiment before
    /// it is recorded as [`OutcomeClass::InfraError`].
    pub max_retries: u32,
    /// Pause between retry attempts, scaled by the attempt number.
    pub retry_backoff: Duration,
    /// Per-experiment wall-clock deadline (`None` disables it).
    pub run_deadline: Option<Duration>,
}

impl Default for PermanentCampaignConfig {
    fn default() -> Self {
        PermanentCampaignConfig {
            runtime: RuntimeConfig::default(),
            seed: 0x5EED,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            skip_unused: true,
            max_retries: 1,
            retry_backoff: Duration::from_millis(50),
            run_deadline: None,
        }
    }
}

/// One permanent-fault experiment (one opcode).
#[derive(Debug, Clone)]
pub struct PermanentRun {
    /// The fault parameters.
    pub params: PermanentParams,
    /// The classified outcome.
    pub outcome: Outcome,
    /// The opcode's dynamic instruction count in the profile — the
    /// outcome's weight in Figure 3's aggregation.
    pub weight: u64,
    /// Fault activations during the run.
    pub activations: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Execution attempts the verdict took (`> 1` means retries after a
    /// worker panic or deadline overrun).
    pub attempts: u32,
}

/// Dynamic-count-weighted outcome fractions (Figure 3's y-axis).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedOutcomes {
    /// Weighted SDC fraction.
    pub sdc: f64,
    /// Weighted DUE fraction.
    pub due: f64,
    /// Weighted Masked fraction.
    pub masked: f64,
}

/// Result of a permanent campaign.
#[derive(Debug)]
pub struct PermanentCampaign {
    /// Program name.
    pub program: String,
    /// The profile used for pruning and weighting.
    pub profile: Profile,
    /// Unweighted tally over the runs.
    pub counts: OutcomeCounts,
    /// Weighted fractions (Figure 3).
    pub weighted: WeightedOutcomes,
    /// Per-opcode runs.
    pub runs: Vec<PermanentRun>,
    /// Duration of the profiling step.
    pub profiling_wall: Duration,
}

impl PermanentCampaign {
    /// Total campaign time: profiling plus all per-opcode runs.
    pub fn total_time(&self) -> Duration {
        self.profiling_wall + self.runs.iter().map(|r| r.wall).sum::<Duration>()
    }
}

/// Run a complete permanent-fault campaign on one program: one experiment
/// per (executed) opcode, outcomes weighted by dynamic count.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails.
pub fn run_permanent_campaign(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &PermanentCampaignConfig,
) -> Result<PermanentCampaign, FiError> {
    let golden = golden_run(program, cfg.runtime.clone())?;
    let mut run_cfg = cfg.runtime.clone();
    run_cfg.instr_budget = Some(golden.suggested_budget());
    let mut exp_cfg = run_cfg.clone();
    exp_cfg.wall_deadline = cfg.run_deadline;

    let t0 = Instant::now();
    let profile = profile_program(program, run_cfg.clone(), ProfilingMode::Approximate)?;
    let profiling_wall = t0.elapsed();

    let executed = profile.executed_opcodes();
    let opcodes: Vec<gpu_isa::Opcode> = if cfg.skip_unused {
        executed.iter().copied().collect()
    } else {
        gpu_isa::Opcode::ALL.to_vec()
    };

    // Draw fault placement from the SMs and lanes the program actually
    // occupies. With the paper's full-scale workloads every SM and lane is
    // busy, so this coincides with Table III's full 0..N-1 ranges; with
    // simulator-scaled grids it avoids trivially-masked dead placements.
    let num_sms = run_cfg.gpu.num_sms;
    let max_blocks =
        golden.summary.launches.iter().map(|l| l.stats.blocks).max().unwrap_or(1).max(1);
    let used_sms = num_sms.min(max_blocks.min(u32::MAX as u64) as u32).max(1);
    let max_tpb =
        golden.summary.launches.iter().map(|l| l.stats.threads_per_block).max().unwrap_or(1).max(1);
    let used_lanes = (gpu_isa::WARP_SIZE as u64).min(max_tpb).max(1) as u32;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let experiments: Vec<(PermanentParams, u64)> = opcodes
        .iter()
        .map(|op| {
            let params = PermanentParams {
                sm_id: rng.gen_range(0..used_sms),
                lane_id: rng.gen_range(0..used_lanes),
                bit_mask: 1u32 << rng.gen_range(0..32),
                opcode_id: op.encode(),
            };
            (params, profile.opcode_total(*op))
        })
        .collect();

    // Same isolation contract as the transient campaign: a panicked or
    // deadline-killed experiment is retried, then recorded as InfraError.
    let experiment = |_: &mut (), (params, weight): (PermanentParams, u64)| {
        let run = retry(cfg.max_retries, cfg.retry_backoff, InfraKind::WorkerPanic, |_| {
            isolate(|| {
                let (tool, handle) = PermanentInjector::new(params);
                let out = run_program(program, exp_cfg.clone(), Some(Box::new(tool)));
                (classify(&golden, &out, check), handle.get().activations)
            })
        });
        PermanentRun {
            params,
            outcome: run.outcome,
            weight,
            activations: run.detail.unwrap_or(0),
            wall: run.wall,
            attempts: run.attempts,
        }
    };
    let (runs, _) = fan_out_until(cfg.workers, experiments, &|| false, experiment);

    let mut counts = OutcomeCounts::default();
    let mut w = WeightedOutcomes::default();
    // Infra errors carry no verdict: their weight leaves the denominator
    // entirely rather than biasing any class.
    let total_weight: u64 = runs.iter().filter(|r| !r.outcome.is_infra()).map(|r| r.weight).sum();
    for r in &runs {
        counts.add(&r.outcome);
        if total_weight > 0 && !r.outcome.is_infra() {
            let share = r.weight as f64 / total_weight as f64;
            if r.outcome.is_sdc() {
                w.sdc += share;
            } else if r.outcome.is_due() {
                w.due += share;
            } else {
                w.masked += share;
            }
        }
    }

    Ok(PermanentCampaign {
        program: program.name().to_string(),
        profile,
        counts,
        weighted: w,
        runs,
        profiling_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fan_out<T: Send, R: Send>(
        workers: usize,
        items: Vec<T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        fan_out_until(workers, items, &|| false, |_: &mut (), item| f(item)).0
    }

    #[test]
    fn fan_out_preserves_order_and_runs_everything() {
        let out = fan_out(4, (0..100).collect(), |item: i32| item * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_single_worker() {
        let out = fan_out(1, vec![1, 2, 3], |x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn fan_out_until_stops_between_items_and_keeps_completed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = AtomicUsize::new(0);
        // Single worker, stop after 3 completions: the 4th..10th items must
        // never run, and the completed prefix is returned in order.
        let (out, stopped) = fan_out_until(
            1,
            (0..10).collect(),
            &|| done.load(Ordering::SeqCst) >= 3,
            |_: &mut (), x: i32| {
                done.fetch_add(1, Ordering::SeqCst);
                x * 10
            },
        );
        assert_eq!(out, vec![0, 10, 20]);
        assert!(stopped);

        let (out, stopped) = fan_out_until(2, (0..5).collect(), &|| false, |_: &mut (), x: i32| x);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(!stopped);
    }

    /// Each slot's state lives across the items that slot takes and is
    /// dropped when the queue runs dry: a process slot's worker is shut
    /// down exactly once per slot.
    #[test]
    fn fan_out_keeps_one_state_per_slot_and_drops_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        #[derive(Default)]
        struct Slot(usize);
        impl Drop for Slot {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (out, _) = fan_out_until(1, vec![(); 4], &|| false, |slot: &mut Slot, ()| {
            slot.0 += 1;
            slot.0
        });
        assert_eq!(out, vec![1, 2, 3, 4], "one slot saw every item in turn");
        assert_eq!(DROPPED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn isolate_catches_panics() {
        assert_eq!(isolate(|| 7), Some(7));
        assert_eq!(isolate(|| -> i32 { panic!("boom") }), None);
    }

    fn masked() -> Outcome {
        Outcome { class: OutcomeClass::Masked, potential_due: false }
    }

    fn infra(kind: InfraKind) -> Outcome {
        Outcome { class: OutcomeClass::InfraError(kind), potential_due: false }
    }

    #[test]
    fn retry_stops_at_the_first_verdict() {
        let mut calls = Vec::new();
        let run = retry(3, Duration::ZERO, InfraKind::WorkerPanic, |attempt| {
            calls.push(attempt);
            (attempt == 2).then(|| (masked(), "ok"))
        });
        assert_eq!(calls, vec![1, 2], "a panic is retried, a verdict is kept");
        assert_eq!((run.outcome, run.detail, run.attempts), (masked(), Some("ok"), 2));
    }

    #[test]
    fn retry_records_the_give_up_kind_when_attempts_run_out() {
        let run = retry(1, Duration::ZERO, InfraKind::WorkerDied, |_| None::<(Outcome, ())>);
        assert_eq!(
            (run.outcome, run.detail, run.attempts),
            (infra(InfraKind::WorkerDied), None, 2)
        );
        // An infrastructure outcome is retried too, and kept when it is last.
        let run = retry(2, Duration::ZERO, InfraKind::WorkerPanic, |_| {
            Some((infra(InfraKind::Deadline), ()))
        });
        assert_eq!((run.outcome, run.attempts), (infra(InfraKind::Deadline), 3));
        let run = retry(u32::MAX, Duration::ZERO, InfraKind::WorkerPanic, |_| Some((masked(), ())));
        assert_eq!(run.attempts, 1, "no overflow at the largest budget");
    }

    /// Workers run with the default runtime, so process isolation refuses a
    /// custom one before the golden run, and so before any worker spawns.
    #[test]
    fn process_isolation_rejects_a_custom_runtime() {
        struct NeverRun;
        impl Program for NeverRun {
            fn name(&self) -> &str {
                "never-run"
            }
            fn run(&self, _: &mut gpu_runtime::Runtime) -> Result<(), gpu_runtime::RuntimeError> {
                unreachable!("rejected before the golden run")
            }
        }
        let iso = pool::ProcessIsolation::new(vec!["/nonexistent/worker".into()], "test");
        let mut cfg =
            CampaignConfig { isolation: IsolationMode::Process(iso), ..Default::default() };
        cfg.runtime.gpu.num_sms = 2;
        let err = run_transient_campaign(&NeverRun, &crate::outcome::ExactDiff, &cfg).unwrap_err();
        assert!(matches!(err, FiError::BadParam { name: "runtime", .. }), "{err}");
    }

    #[test]
    fn site_key_distinguishes_every_field() {
        let base = TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "k".into(),
            kernel_count: 1,
            instruction_count: 2,
            destination_register: 0.25,
            bit_pattern: 0.5,
        };
        let mut other = base.clone();
        other.instruction_count = 3;
        assert_eq!(site_key(&base), site_key(&base.clone()));
        assert_ne!(site_key(&base), site_key(&other));
    }

    #[test]
    fn timing_median_and_total() {
        let t = CampaignTiming {
            setup: Duration::from_millis(12),
            golden_and_profiling: Duration::from_millis(10),
            golden: Duration::from_millis(1),
            profiling: Duration::from_millis(10),
            analysis: Duration::from_millis(4),
            injections: vec![
                Duration::from_millis(3),
                Duration::from_millis(1),
                Duration::from_millis(2),
            ],
            prefix_instrs_skipped: 0,
        };
        assert_eq!(t.median_injection(), Duration::from_millis(2));
        assert_eq!(t.total(), Duration::from_millis(20));
        assert_eq!(CampaignTiming::default().median_injection(), Duration::ZERO);
    }
}
