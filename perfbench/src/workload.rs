//! The three benchmark workloads, run untraced through the public campaign
//! entry points, and the verdict reference every run is checked against.

use nvbitfi::logfile::{outcome_code, results_log_header, results_log_row};
use nvbitfi::{
    golden_run, run_permanent_campaign, run_transient_campaign_with, CampaignConfig, CampaignHooks,
    InjectionRun, IsolationMode, Journal, NoHooks, PermanentCampaignConfig, PermanentParams,
    ProcessIsolation, TransientCampaign,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use workloads::{BenchEntry, Scale};

/// Injections per program in both transient workloads: 600 runs on the
/// suite and 200 on the process subset, so p95 has at least ten samples
/// beyond it.
pub const INJECTIONS: usize = 40;
/// Campaign parallelism: threads, or worker processes in process mode.
/// Sized to a 2-core host.
pub const WORKERS: usize = 2;
/// The five shortest suite programs, run under process isolation.
pub const PROCESS_SUBSET: [&str; 5] = ["314.omriq", "370.bt", "359.miniGhost", "350.md", "352.ep"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One transient campaign per suite program, `nvbitfi campaign --log`
    /// defaults, thread isolation.
    TransientSuite,
    /// The per-opcode permanent campaign on every suite program.
    PermanentSuite,
    /// Journaled transient campaigns under process isolation on
    /// [`PROCESS_SUBSET`].
    ProcessSubset,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] =
        [Workload::TransientSuite, Workload::PermanentSuite, Workload::ProcessSubset];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TransientSuite => "transient-suite",
            Workload::PermanentSuite => "permanent-suite",
            Workload::ProcessSubset => "process-subset",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The suite programs the workload runs.
    pub fn programs(self) -> Vec<BenchEntry> {
        let suite = workloads::suite(Scale::Paper);
        match self {
            Workload::ProcessSubset => {
                suite.into_iter().filter(|e| PROCESS_SUBSET.contains(&e.name)).collect()
            }
            _ => suite,
        }
    }
}

/// Paths and settings shared by every run of the benchmark.
pub struct Context {
    /// Scratch directory for journals and trace output.
    pub work_dir: PathBuf,
    /// The `nvbitfi` binary process isolation spawns as `nvbitfi worker`.
    pub worker_bin: Option<PathBuf>,
    /// Golden `(dyn_instrs, cycles)` per program, from the committed table.
    pub golden: BTreeMap<String, (u64, u64)>,
}

impl Context {
    /// The process-isolation backend, failing loudly if the worker binary
    /// is missing instead of skipping the workload.
    pub fn process_isolation(&self) -> Result<ProcessIsolation, String> {
        let bin = self
            .worker_bin
            .as_ref()
            .ok_or("process-subset needs --worker-bin <path to the nvbitfi binary>")?;
        if !bin.is_file() {
            return Err(format!("nvbitfi worker binary `{}` is missing", bin.display()));
        }
        Ok(ProcessIsolation::new(
            vec![bin.to_string_lossy().into_owned(), "worker".to_string()],
            "paper",
        ))
    }

    /// Check one program's golden statistics against the committed table.
    pub fn check_golden(&self, program: &str, dyn_instrs: u64, cycles: u64) -> Result<(), String> {
        match self.golden.get(program) {
            Some(&expected) if expected == (dyn_instrs, cycles) => Ok(()),
            Some(&(d, c)) => Err(format!(
                "{program}: golden run executed {dyn_instrs} instructions in {cycles} cycles; \
                 the reference table says {d} in {c}"
            )),
            None => Err(format!("{program}: no row in the golden reference table")),
        }
    }

    /// Create the results journal `<work dir>/<dir>/<file>.log`.
    pub fn create_journal(&self, dir: &str, file: &str, header: &str) -> Result<Journal, String> {
        let dir = self.work_dir.join(dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{file}.log"));
        Journal::create(&path, header).map_err(|e| format!("create {}: {e}", path.display()))
    }
}

/// Parse the golden reference table: `program<TAB>dyn_instrs<TAB>cycles`.
pub fn read_golden_table(path: &Path) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut table = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}: malformed row `{line}`", path.display());
        if f.len() != 3 {
            return Err(bad());
        }
        let dyn_instrs = f[1].parse().map_err(|_| bad())?;
        let cycles = f[2].parse().map_err(|_| bad())?;
        table.insert(f[0].to_string(), (dyn_instrs, cycles));
    }
    Ok(table)
}

/// Render the golden reference table for every suite program.
pub fn golden_table() -> Result<String, String> {
    let mut out = String::from("# program\tdyn_instrs\tcycles\n");
    for e in workloads::suite(Scale::Paper) {
        let g = golden_run(e.program.as_ref(), Default::default()).map_err(|e| e.to_string())?;
        out.push_str(&format!("{}\t{}\t{}\n", e.name, g.summary.dyn_instrs, g.summary.cycles));
    }
    Ok(out)
}

/// One program's ordered verdict list: `site<TAB>outcome` per run.
pub type Verdicts = Vec<String>;

/// A transient verdict line.
pub fn transient_verdict(run: &InjectionRun) -> String {
    format!("{}\t{}", run.params, outcome_code(&run.outcome))
}

/// The campaign configuration of both transient workloads: the defaults of
/// `nvbitfi campaign --log`, sized to [`INJECTIONS`] and [`WORKERS`].
/// `fast_paths = false` is the reference configuration: no checkpoints,
/// no static pruning.
pub fn transient_cfg(seed: u64, isolation: IsolationMode, fast_paths: bool) -> CampaignConfig {
    CampaignConfig {
        injections: INJECTIONS,
        seed,
        workers: WORKERS,
        use_checkpoints: fast_paths,
        use_static_prune: fast_paths,
        isolation,
        ..CampaignConfig::default()
    }
}

/// The permanent workload's configuration (`PermanentCampaignConfig`
/// defaults, which skip unused opcodes).
pub fn permanent_cfg(seed: u64, workers: usize) -> PermanentCampaignConfig {
    PermanentCampaignConfig { seed, workers, ..PermanentCampaignConfig::default() }
}

/// Journal-and-timing hooks: one flushed results-log row per run, as
/// `nvbitfi campaign --log` writes, plus the instant of the first dispatch
/// poll, which ends the campaign's set-up.
struct BenchHooks {
    journal: Mutex<Journal>,
    first_poll: OnceLock<Instant>,
    error: Mutex<Option<String>>,
}

impl CampaignHooks for BenchHooks {
    fn on_run(&self, run: &InjectionRun) {
        let appended =
            self.journal.lock().expect("journal lock poisoned").append(&results_log_row(run));
        if let Err(err) = appended {
            self.error.lock().expect("error lock poisoned").get_or_insert(err.to_string());
        }
    }

    fn should_stop(&self) -> bool {
        self.first_poll.get_or_init(Instant::now);
        false
    }
}

/// The `# meta` pairs `nvbitfi campaign --log` records.
fn meta(cfg: &CampaignConfig) -> Vec<(&'static str, String)> {
    let isolation = match cfg.isolation {
        IsolationMode::Thread => "thread",
        IsolationMode::Process(_) => "process",
    };
    vec![
        ("scale", "paper".to_string()),
        ("igid", cfg.group.id().to_string()),
        ("bfm", cfg.bit_flip.id().to_string()),
        ("injections", cfg.injections.to_string()),
        ("seed", cfg.seed.to_string()),
        ("mode", "exact".to_string()),
        ("checkpoints", u8::from(cfg.use_checkpoints).to_string()),
        ("prune", u8::from(cfg.use_static_prune).to_string()),
        ("max_retries", cfg.max_retries.to_string()),
        ("deadline_ms", "-".to_string()),
        ("isolation", isolation.to_string()),
    ]
}

/// A journaled transient campaign and its set-up time (call to first
/// dispatch poll).
pub fn journaled_campaign(
    ctx: &Context,
    w: Workload,
    e: &BenchEntry,
    cfg: &CampaignConfig,
) -> Result<(TransientCampaign, Duration), String> {
    let journal = ctx.create_journal(w.name(), e.name, &results_log_header(e.name, &meta(cfg)))?;
    let path = journal.path().to_path_buf();
    let hooks = BenchHooks {
        journal: Mutex::new(journal),
        first_poll: OnceLock::new(),
        error: Mutex::new(None),
    };
    let t0 = Instant::now();
    let c =
        run_transient_campaign_with(e.program.as_ref(), e.check.as_ref(), cfg, Vec::new(), &hooks)
            .map_err(|err| format!("{}: {err}", e.name))?;
    let setup = hooks.first_poll.get().map_or_else(|| t0.elapsed(), |t| t.duration_since(t0));
    if let Some(err) = hooks.error.into_inner().expect("error lock poisoned") {
        return Err(format!("journal {}: {err}", path.display()));
    }
    Ok((c, setup))
}

/// What one untraced pass over a workload measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host time for the whole workload.
    pub elapsed: Duration,
    /// Σ campaign set-up (transient: call to first dispatch; permanent: the
    /// profiling pre-pass, the only pre-pass the permanent path times).
    pub setup: Duration,
    /// Fig. 5 serial-equivalent time.
    pub serial: Duration,
    /// Every run's wall time.
    pub run_walls: Vec<Duration>,
    /// Sites attempted.
    pub attempted: usize,
    /// Sites that ended `InfraError`.
    pub infra: usize,
    /// Extra execution attempts (Σ attempts − 1); in process mode each one
    /// is a worker death and respawn.
    pub retries: u64,
    /// Per-program verdict lists, in program order.
    pub verdicts: Vec<(String, Verdicts)>,
    /// Per-program opcode experiments of the permanent campaign, in run
    /// order (empty for transient workloads); the traced run replays them.
    pub permanent_params: Vec<Vec<PermanentParams>>,
}

impl Iteration {
    /// Tally runs given as `(wall, ended InfraError, attempts)`.
    fn add_runs(&mut self, runs: impl Iterator<Item = (Duration, bool, u32)>) {
        for (wall, infra, attempts) in runs {
            self.run_walls.push(wall);
            self.attempted += 1;
            self.infra += usize::from(infra);
            self.retries += u64::from(attempts.saturating_sub(1));
        }
    }
}

/// Run the workload once, untraced, and check every golden run against the
/// committed table.
pub fn run_iteration(ctx: &Context, w: Workload, seed: u64) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let isolation = match w {
        Workload::ProcessSubset => IsolationMode::Process(ctx.process_isolation()?),
        _ => IsolationMode::Thread,
    };
    let programs = w.programs();
    let t0 = Instant::now();
    for e in &programs {
        if w == Workload::PermanentSuite {
            let c = run_permanent_campaign(
                e.program.as_ref(),
                e.check.as_ref(),
                &permanent_cfg(seed, WORKERS),
            )
            .map_err(|err| format!("{}: {err}", e.name))?;
            it.setup += c.profiling_wall;
            it.serial += c.total_time();
            it.add_runs(c.runs.iter().map(|r| (r.wall, r.outcome.is_infra(), r.attempts)));
            let v = c.runs.iter().map(|r| format!("{}\t{}", r.params, outcome_code(&r.outcome)));
            it.verdicts.push((e.name.to_string(), v.collect()));
            it.permanent_params.push(c.runs.iter().map(|r| r.params).collect());
        } else {
            let cfg = transient_cfg(seed, isolation.clone(), true);
            let (c, setup) = journaled_campaign(ctx, w, e, &cfg)?;
            ctx.check_golden(e.name, c.golden.summary.dyn_instrs, c.golden.summary.cycles)?;
            it.setup += setup;
            it.serial += setup + c.runs.iter().map(|r| r.wall).sum::<Duration>();
            it.add_runs(c.runs.iter().map(|r| (r.wall, r.outcome.is_infra(), r.attempts)));
            it.verdicts.push((e.name.to_string(), c.runs.iter().map(transient_verdict).collect()));
        }
    }
    it.elapsed = t0.elapsed();
    if w == Workload::ProcessSubset && (it.retries > 0 || it.infra > 0) {
        return Err(format!(
            "process-subset: {} worker respawn(s) and {} infra verdict(s); workers must not die",
            it.retries, it.infra
        ));
    }
    Ok(it)
}

/// The verdict reference for a workload, recorded once per seed with every
/// fast path off: transient campaigns without checkpoints or pruning under
/// thread isolation; the permanent campaign (which has no fast paths) on a
/// single worker. For `process-subset` the suite's own thread-mode lists
/// for those programs must also equal the reference.
pub fn reference(ctx: &Context, w: Workload, seed: u64) -> Result<Vec<(String, Verdicts)>, String> {
    let mut out = Vec::new();
    for e in &w.programs() {
        let golden = golden_run(e.program.as_ref(), Default::default())
            .map_err(|err| format!("{}: {err}", e.name))?;
        ctx.check_golden(e.name, golden.summary.dyn_instrs, golden.summary.cycles)?;
        let verdicts: Verdicts = if w == Workload::PermanentSuite {
            let c = run_permanent_campaign(
                e.program.as_ref(),
                e.check.as_ref(),
                &permanent_cfg(seed, 1),
            )
            .map_err(|err| format!("{}: {err}", e.name))?;
            c.runs.iter().map(|r| format!("{}\t{}", r.params, outcome_code(&r.outcome))).collect()
        } else {
            let cfg = transient_cfg(seed, IsolationMode::Thread, false);
            let c = run_transient_campaign_with(
                e.program.as_ref(),
                e.check.as_ref(),
                &cfg,
                Vec::new(),
                &NoHooks,
            )
            .map_err(|err| format!("{}: {err}", e.name))?;
            c.runs.iter().map(transient_verdict).collect()
        };
        if w == Workload::ProcessSubset {
            let cfg = transient_cfg(seed, IsolationMode::Thread, true);
            let (suite, _) = journaled_campaign(ctx, Workload::TransientSuite, e, &cfg)?;
            let suite: Verdicts = suite.runs.iter().map(transient_verdict).collect();
            compare(e.name, "reference", &verdicts, "transient-suite", &suite)?;
        }
        out.push((e.name.to_string(), verdicts));
    }
    Ok(out)
}

/// Fail on the first difference between two ordered verdict lists.
pub fn compare(
    program: &str,
    a_name: &str,
    a: &Verdicts,
    b_name: &str,
    b: &Verdicts,
) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{program}: {a_name} has {} verdicts, {b_name} has {}",
            a.len(),
            b.len()
        ));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => {
            Err(format!("{program}: run {i} differs\n  {a_name}: {}\n  {b_name}: {}", a[i], b[i]))
        }
    }
}

/// Compare every program's verdicts against the reference.
pub fn compare_all(
    reference: &[(String, Verdicts)],
    got: &[(String, Verdicts)],
    got_name: &str,
) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{got_name} covers {} programs, the reference {}",
            got.len(),
            reference.len()
        ));
    }
    for ((name, r), (_, g)) in reference.iter().zip(got) {
        compare(name, "reference", r, got_name, g)?;
    }
    Ok(())
}
