//! Campaign benchmark for the NVBitFI reproduction.
//!
//! ```text
//! perfbench --workload <transient-suite|permanent-suite|process-subset|all>
//!           --seed N [--held-out-seed M] --seconds S --trace 0|1
//!           --worker-bin PATH --work-dir DIR --golden FILE
//! perfbench --record-golden FILE
//! ```
//!
//! Untraced (`--trace 0`), each workload's verdict reference is recorded
//! once with every fast path off, then the workload runs repeatedly for `S`
//! seconds; every pass must reproduce the reference, and the end-to-end
//! metrics are medians over passes. Traced (`--trace 1`), one untraced pass
//! is followed by step-by-step replays (see [`trace`]) that must reproduce
//! its verdicts before the per-layer metrics are reported. The last line of
//! standard output is one JSON object with the result.

mod stats;
mod trace;
mod workload;

use stats::{median, peak_rss_mib, quantile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Context, Workload};

/// The seed used when `--seed` is not given (the campaign default).
const DEFAULT_SEED: u64 = 0x5EED;

struct Args {
    workloads: Vec<Workload>,
    seeds: Vec<u64>,
    seconds: u64,
    trace: bool,
    worker_bin: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    golden: Option<PathBuf>,
    record_golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seeds: vec![DEFAULT_SEED],
        seconds: 10,
        trace: false,
        worker_bin: None,
        work_dir: None,
        golden: None,
        record_golden: None,
    };
    let mut held_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}` for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => args.seeds[0] = number(value()?)?,
            "--held-out-seed" => held_out = Some(number(value()?)?),
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0|1)")),
                }
            }
            "--worker-bin" => args.worker_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = Some(PathBuf::from(value()?)),
            "--golden" => args.golden = Some(PathBuf::from(value()?)),
            "--record-golden" => args.record_golden = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seeds.extend(held_out);
    Ok(args)
}

/// A metric as printed and as reported in the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One workload on one seed: its metrics and its tally.
struct Measured {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every requested workload on every seed; `Ok(false)` when a check
/// failed after the result line was printed.
fn run(args: &Args) -> Result<bool, String> {
    if let Some(path) = &args.record_golden {
        let table = workload::golden_table()?;
        std::fs::write(path, table).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(true);
    }
    let golden_path = args.golden.as_ref().ok_or("--golden <reference table> is required")?;
    let work_dir = args.work_dir.clone().ok_or("--work-dir <scratch directory> is required")?;
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let ctx = Context {
        work_dir,
        worker_bin: args.worker_bin.clone(),
        golden: workload::read_golden_table(golden_path)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: {} workers, available_parallelism {nproc}, {} s per workload{}",
        workload::WORKERS,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    let mut results = Vec::new();
    let mut correct = true;
    for &seed in &args.seeds {
        for &w in &args.workloads {
            let measured = if args.trace {
                traced(&ctx, w, seed, args.seconds)
            } else {
                untraced(&ctx, w, seed, args.seconds)
            };
            match measured {
                Ok(o) => results.push((w, seed, o)),
                Err(e) => {
                    eprintln!("perfbench: {} seed {seed}: {e}", w.name());
                    correct = false;
                    break;
                }
            }
        }
        if !correct {
            break;
        }
    }

    let single = results.len() == 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut fields = Vec::new();
    for (w, seed, o) in &results {
        attempted += o.attempted;
        failed += o.failed;
        for m in &o.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} seed {seed}: metric {} is not a number", w.name(), m.name));
            }
            let key =
                if single { m.name.clone() } else { format!("{}@{seed}/{}", w.name(), m.name) };
            fields.push(format!("\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit));
        }
    }
    correct &= failed == 0 && !results.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    Ok(correct)
}

/// The untraced measurement: reference, then passes for `seconds`.
fn untraced(ctx: &Context, w: Workload, seed: u64, seconds: u64) -> Result<Measured, String> {
    let t = Instant::now();
    let reference = workload::reference(ctx, w, seed)?;
    println!(
        "== {} seed {seed}: reference recorded in {:.1} s",
        w.name(),
        t.elapsed().as_secs_f64()
    );

    // Each pass is bracketed by host-speed calibrations and its times are
    // scaled to the reference host speed (see `stats::calibrate`).
    let mut iters = Vec::new();
    let t0 = Instant::now();
    while iters.is_empty() || t0.elapsed() < Duration::from_secs(seconds) {
        let (it, scale) =
            stats::at_reference_speed(workload::WORKERS, || workload::run_iteration(ctx, w, seed))?;
        workload::compare_all(&reference, &it.verdicts, w.name())?;
        iters.push((it, scale));
    }

    let per_iter = |f: &dyn Fn(&workload::Iteration) -> f64| {
        iters.iter().map(|(it, scale)| f(it) * scale).collect::<Vec<f64>>()
    };
    let series: [(&str, &'static str, Vec<f64>); 3] = [
        ("campaign_s", "s", per_iter(&|it| it.elapsed.as_secs_f64())),
        ("setup_s", "s", per_iter(&|it| it.setup.as_secs_f64())),
        ("serial_s", "s", per_iter(&|it| it.serial.as_secs_f64())),
    ];
    // Run times are pooled over every run of every pass, so the percentiles
    // rest on many samples even on the 200-run workload.
    let run_ms: Vec<f64> = iters
        .iter()
        .flat_map(|(it, scale)| it.run_walls.iter().map(move |w| w.as_secs_f64() * 1e3 * scale))
        .collect();
    let raw_elapsed: Vec<f64> = iters.iter().map(|(it, _)| it.elapsed.as_secs_f64()).collect();
    let scales: Vec<f64> = iters.iter().map(|(_, scale)| *scale).collect();
    let iters: Vec<workload::Iteration> = iters.into_iter().map(|(it, _)| it).collect();
    let runs = iters[0].run_walls.len();
    let attempted: usize = iters.iter().map(|it| it.attempted).sum();
    let failed: usize = iters.iter().map(|it| it.infra).sum();
    println!(
        "   {} passes of {runs} runs each, all verdicts equal to the reference ({})",
        iters.len(),
        if w == Workload::PermanentSuite {
            "single-worker permanent campaign"
        } else {
            "no checkpoints, no pruning, thread isolation"
        }
    );
    println!(
        "   host: campaign {:.4} s unscaled (median), speed factor {:.4} (median; q1 {:.4}, q3 {:.4})",
        median(&raw_elapsed),
        median(&scales),
        quantile(&scales, 0.25),
        quantile(&scales, 0.75)
    );
    let mut metrics = Vec::new();
    for (name, unit, values) in series {
        let m = median(&values);
        println!(
            "   {name:<14} {m:>12.4} {unit:<4} median over {} passes (q1 {:.4}, q3 {:.4})",
            values.len(),
            quantile(&values, 0.25),
            quantile(&values, 0.75),
        );
        metrics.push(Metric { name: name.to_string(), value: m, unit });
    }
    let p50 = quantile(&run_ms, 0.5);
    let p95 = quantile(&run_ms, 0.95);
    let count = format!("over all {} runs ({} passes x {runs})", run_ms.len(), iters.len());
    println!("   {:<14} {p50:>12.4} ms   {count}", "run_ms_p50");
    metrics.push(Metric { name: "run_ms_p50".into(), value: p50, unit: "ms" });
    // Printed but not reported: on a shared host, vCPU steal bursts inflate
    // the longest runs, and this tail varies by more than any allowed bound.
    println!("   {:<14} {p95:>12.4} ms   {count}; not gated", "run_ms_p95");
    let rss = peak_rss_mib();
    println!(
        "   {:<14} {rss:>12.4} MiB  peak of this process and its largest child",
        "peak_rss_mib"
    );
    metrics.push(Metric { name: "peak_rss_mib".into(), value: rss, unit: "MiB" });
    println!(
        "   {:<14} {:>12.4}       {failed} of {attempted} attempted sites ended InfraError",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Measured { metrics, attempted, failed })
}

/// The traced measurement: reference, one untraced pass, then traced
/// replays for `seconds` that must reproduce the untraced verdicts.
fn traced(ctx: &Context, w: Workload, seed: u64, seconds: u64) -> Result<Measured, String> {
    let reference = workload::reference(ctx, w, seed)?;
    let (untraced, untraced_scale) =
        stats::at_reference_speed(workload::WORKERS, || workload::run_iteration(ctx, w, seed))?;
    workload::compare_all(&reference, &untraced.verdicts, w.name())?;

    let tracer = trace::Tracer::new();
    let mut passes = Vec::new();
    let mut scales = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed() < Duration::from_secs(seconds) {
        let (pass, scale) = stats::at_reference_speed(workload::WORKERS, || {
            trace::traced_pass(&tracer, ctx, w, seed, &untraced)
        })?;
        workload::compare_all(&untraced.verdicts, &pass.verdicts, "traced replay")?;
        passes.push(pass);
        scales.push(scale);
    }
    let path = ctx.work_dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    tracer.write_jsonl(&path)?;
    println!(
        "== {} seed {seed}: {} traced replays reproduce the untraced verdicts; spans in {}",
        w.name(),
        passes.len(),
        path.display()
    );
    let metrics: Vec<Metric> =
        trace::per_layer(&tracer, &passes, (&untraced, untraced_scale), median(&scales), w)
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect();
    for m in &metrics {
        println!("   {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Measured { metrics, attempted: untraced.attempted, failed: untraced.infra })
}
