//! Suite-wide equivalence of every campaign fast path with its reference.
//!
//! Each of the 15 suite programs runs one fixed-seed transient campaign per
//! configuration in {checkpoints on, off} × {static pruning on, off} under
//! thread isolation. Checkpoints cover the prefix replay, the convergence
//! exit at the target launch, target-only site resolution and the
//! overlapped golden and profiling runs; pruning covers dead-fault
//! classification. Every configuration must select the same sites and
//! reach the same verdict on each, run for run, as the configuration with
//! every fast path off.
//!
//! A later fast path adds a column here rather than a test of its own. The
//! process-isolation column is
//! `crates/cli/tests/process_isolation.rs::process_isolation_matches_thread_mode_on_every_program`:
//! only that test crate can spawn the `nvbitfi` binary as a worker.

use nvbitfi::{
    run_transient_campaign, BitFlipModel, CampaignConfig, InstrGroup, Outcome, ProfilingMode,
    TransientCampaign, TransientParams,
};
use workloads::Scale;

/// The part of a run every configuration must agree on.
fn verdicts(c: &TransientCampaign) -> Vec<(TransientParams, Outcome, bool)> {
    c.runs.iter().map(|r| (r.params.clone(), r.outcome.clone(), r.injected)).collect()
}

#[test]
fn every_fast_path_matches_the_reference_on_every_program() {
    for entry in workloads::suite(Scale::Test) {
        let campaign = |use_checkpoints: bool, use_static_prune: bool| {
            let cfg = CampaignConfig {
                injections: 40,
                group: InstrGroup::GpPr,
                bit_flip: BitFlipModel::FlipSingleBit,
                profiling: ProfilingMode::Exact,
                seed: 0xE0_1CA7,
                workers: 2,
                use_checkpoints,
                use_static_prune,
                ..CampaignConfig::default()
            };
            run_transient_campaign(entry.program.as_ref(), entry.check.as_ref(), &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name))
        };
        let reference = campaign(false, false);
        let expected = verdicts(&reference);
        assert_eq!(expected.len(), 40, "{}", entry.name);
        assert_eq!(reference.statically_pruned(), 0, "{}", entry.name);

        let full_resolved = campaign(false, true);
        let store_resolved = campaign(true, true);
        for (label, c) in [
            ("prune", &full_resolved),
            ("checkpoints", &campaign(true, false)),
            ("checkpoints+prune", &store_resolved),
        ] {
            for (i, (got, want)) in verdicts(c).iter().zip(&expected).enumerate() {
                assert_eq!(got, want, "{} run {i}: {label} differs from the reference", entry.name);
            }
            assert_eq!(c.runs.len(), expected.len(), "{}: {label}", entry.name);
        }

        // Site resolution on the checkpoint store flags exactly the sites
        // the full-program resolver flags.
        let flags = |c: &TransientCampaign| c.runs.iter().map(|r| r.pruned).collect::<Vec<_>>();
        assert_eq!(
            flags(&store_resolved),
            flags(&full_resolved),
            "{}: checkpoint-resolved prune flags",
            entry.name
        );
    }
}
