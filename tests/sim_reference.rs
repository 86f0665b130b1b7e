//! The simulator's observable behaviour on every suite program, frozen in
//! `tests/fixtures/sim_reference.tsv`.
//!
//! Per program the fixture holds, as tab-separated rows:
//!
//! * `golden.test` / `golden.paper` — the clean run's `dyn_instrs`,
//!   `cycles` and a digest of its stdout and files at each scale;
//! * `profile.test` / `profile.paper` — a digest of the exact profile's
//!   per-launch opcode counts (every pc hooked);
//! * `transient.test` — a digest of a fixed-seed 40-site transient
//!   campaign's ordered `(site, injected, verdict)` list;
//! * `permanent.test` — the run count and a digest of the permanent
//!   campaign's ordered `(site, activations, verdict)` list.
//!
//! The rows were recorded once and are never regenerated to make a
//! simulator change pass: any difference is a behaviour change of the
//! dispatch loop, the memory system or the hook surface.

use gpu_runtime::{run_program, RuntimeConfig};
use nvbitfi::logfile::outcome_code;
use nvbitfi::{
    profile_program, run_permanent_campaign, run_transient_campaign, CampaignConfig,
    PermanentCampaignConfig, ProfilingMode,
};
use std::collections::BTreeMap;
use workloads::{BenchEntry, Scale};

const FIXTURE: &str = include_str!("fixtures/sim_reference.tsv");

/// 64-bit FNV-1a, folding one value per step — the same function as the
/// `digest` helper of `crates/gpu-sim/tests/semantics.rs`. Unlike
/// `DefaultHasher` it is stable across Rust versions.
fn fnv(h: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(h, |h, v| (h ^ v).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a byte string, length-prefixed so adjacent strings cannot
/// run together.
fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    fnv(fnv(h, [bytes.len() as u64]), bytes.iter().map(|&b| b as u64))
}

fn output_digest(stdout: &str, files: &BTreeMap<String, Vec<u8>>) -> u64 {
    let mut h = fnv_bytes(FNV_OFFSET, stdout.as_bytes());
    for (name, data) in files {
        h = fnv_bytes(fnv_bytes(h, name.as_bytes()), data);
    }
    h
}

fn lines_digest(lines: impl IntoIterator<Item = String>) -> u64 {
    lines.into_iter().fold(FNV_OFFSET, |h, l| fnv_bytes(h, l.as_bytes()))
}

/// The `golden.<scale>` and `profile.<scale>` rows of one program.
fn golden_and_profile_rows(e: &BenchEntry, scale: &str) -> [String; 2] {
    let out = run_program(e.program.as_ref(), RuntimeConfig::default(), None);
    assert!(out.termination.is_clean(), "{}: golden run at {scale} scale", e.name);
    let golden = format!(
        "{}\tgolden.{scale}\t{}\t{}\t{:016x}",
        e.name,
        out.summary.dyn_instrs,
        out.summary.cycles,
        output_digest(&out.stdout, &out.files)
    );
    let profile =
        profile_program(e.program.as_ref(), RuntimeConfig::default(), ProfilingMode::Exact)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    let profile = lines_digest(profile.kernels.iter().map(|k| {
        let counts: Vec<String> = k.counts.iter().map(|(op, n)| format!("{op:?}={n}")).collect();
        format!("{}#{} {}", k.kernel, k.instance, counts.join(","))
    }));
    [golden, format!("{}\tprofile.{scale}\t{profile:016x}", e.name)]
}

/// The campaign rows of one program, at `Scale::Test`.
fn campaign_rows(e: &BenchEntry) -> [String; 2] {
    let cfg = CampaignConfig { injections: 40, seed: 0x51_4EF, workers: 2, ..Default::default() };
    let transient = run_transient_campaign(e.program.as_ref(), e.check.as_ref(), &cfg)
        .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    let transient = lines_digest(
        transient
            .runs
            .iter()
            .map(|r| format!("{}\t{}\t{}", r.params, r.injected, outcome_code(&r.outcome))),
    );

    let cfg = PermanentCampaignConfig { seed: 0x51_4EF, workers: 2, ..Default::default() };
    let permanent = run_permanent_campaign(e.program.as_ref(), e.check.as_ref(), &cfg)
        .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    let runs = permanent.runs.len();
    let permanent = lines_digest(
        permanent
            .runs
            .iter()
            .map(|r| format!("{}\t{}\t{}", r.params, r.activations, outcome_code(&r.outcome))),
    );

    [
        format!("{}\ttransient.test\t{transient:016x}", e.name),
        format!("{}\tpermanent.test\t{runs}\t{permanent:016x}", e.name),
    ]
}

/// Every fixture row, in fixture order, computed by the code under test.
/// The programs are split over two threads to keep the debug build fast.
fn render() -> Vec<String> {
    let test = workloads::suite(Scale::Test);
    let paper = workloads::suite(Scale::Paper);
    std::thread::scope(|s| {
        let half = test.len() / 2;
        let (a, b) = test.split_at(half);
        let (pa, pb) = paper.split_at(half);
        let job = |tests: &[BenchEntry], papers: &[BenchEntry]| {
            tests
                .iter()
                .zip(papers)
                .flat_map(|(t, p)| {
                    let mut rows = golden_and_profile_rows(t, "test").to_vec();
                    rows.extend(golden_and_profile_rows(p, "paper"));
                    rows.extend(campaign_rows(t));
                    rows
                })
                .collect::<Vec<_>>()
        };
        let first = s.spawn(move || job(a, pa));
        let second = job(b, pb);
        let mut all = first.join().expect("worker thread panicked");
        all.extend(second);
        all
    })
}

#[test]
fn simulator_reproduces_the_recorded_reference() {
    let got = render();
    let want: Vec<&str> =
        FIXTURE.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).collect();
    println!("{}", got.join("\n"));
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("  fixture: {w}\n  got:     {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} row(s) differ from the fixture:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
    assert_eq!(got.len(), want.len(), "row count differs from the fixture");
}
