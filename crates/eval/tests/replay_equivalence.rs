//! The scalar replay path's thread-count contract: a campaign's archive
//! must be **byte-identical** whatever the worker count — same records
//! in the same order, same masked set.
//!
//! Shadow replay itself (faulty CPU vs the recorded golden port trace)
//! is checked against live fault-free golden twins by the in-crate
//! oracle tests (`crates/eval/src/campaign/replay_oracle.rs`); the twin
//! is a test oracle, not a campaign option.
//!
//! Archives are compared as serialized bytes with the stats block
//! normalized out: stats carry wall-clock timings, which are *supposed*
//! to differ between runs.

use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignStats, DEFAULT_CAPTURE_WINDOW,
};
use lockstep_workloads::Workload;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        faults_per_workload: 25,
        seed: 2024,
        threads: 4,
        capture_window: DEFAULT_CAPTURE_WINDOW,
        checkpoint_interval: Some(4096),
        events: None,
        trace_window: None,
        batch: None,
        core: lockstep_cpu::CoreKind::Lr5,
        redundancy: lockstep_core::RedundancyMode::Fixed,
    }
}

/// The archive bytes of a result with the throughput stats zeroed out:
/// everything an analysis consumes — records, injection counts, golden
/// data, trace blobs — byte-for-byte.
fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// Thread-count independence on the scalar path (the record stream is
/// re-sorted into campaign order after the shared queue drains), traced
/// and untraced, down to one worker.
#[test]
fn archives_byte_identical_across_thread_counts() {
    for trace_window in [None, Some(32)] {
        let mut cfg = base_config();
        cfg.trace_window = trace_window;
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let mut c = cfg.clone();
            c.threads = threads;
            let result = run_campaign(&c);
            assert!(!result.records.is_empty(), "campaign must manifest errors");
            let bytes = archive_bytes(&result);
            match &reference {
                Some(r) => assert_eq!(
                    &bytes, r,
                    "archive depends on thread count ({threads}, trace window {trace_window:?})"
                ),
                None => reference = Some(bytes),
            }
        }
    }
}
