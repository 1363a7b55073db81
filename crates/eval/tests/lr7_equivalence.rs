//! The LR7 out-of-order core's campaign contracts: behind the
//! [`CoreModel`] trait the injection engine must treat it exactly like
//! the LR5 — same archive whatever the thread count or batch layer
//! set, and the same shard/merge determinism. Shadow replay on
//! LR7 is checked against live golden twins by the in-crate oracle
//! (`crates/eval/src/campaign/replay_oracle.rs`). None
//! of these compare LR7 *against* LR5 (the cores diverge
//! microarchitecturally, that is the point); they pin down that every
//! execution strategy over the *same* core is byte-identical.
//!
//! Archives are compared as serialized bytes with the stats block
//! normalized out, the convention of the whole equivalence suite.

use std::sync::OnceLock;

use lockstep_cpu::{flops, CoreKind, CoreModel, FlopId, Lr7, Lr7State};
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::batch::{BatchConfig, CoreBatch};
use lockstep_eval::campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignStats, DEFAULT_CAPTURE_WINDOW,
};
use lockstep_eval::shard::{merge_shard_archives, plan_shards, run_shard};
use lockstep_fault::{Fault, FaultKind};
use lockstep_workloads::{GoldenCapture, Workload};
use proptest::prelude::*;

const ALL_LAYERS: [BatchConfig; 4] =
    [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL];

/// One LR7 golden capture of rspeed, shared by the group-level cases.
fn lr7_capture() -> &'static GoldenCapture<Lr7State> {
    static CAP: OnceLock<GoldenCapture<Lr7State>> = OnceLock::new();
    CAP.get_or_init(|| {
        Workload::find("rspeed").unwrap().golden_capture_for::<Lr7>(61, 400_000, 1024)
    })
}

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        faults_per_workload: 24,
        seed: 2024,
        threads: 4,
        capture_window: DEFAULT_CAPTURE_WINDOW,
        checkpoint_interval: Some(4096),
        events: None,
        trace_window: None,
        batch: None,
        core: CoreKind::Lr7,
        redundancy: lockstep_core::RedundancyMode::Fixed,
    }
}

/// The archive bytes of a result with the throughput stats zeroed out:
/// everything an analysis consumes, byte-for-byte.
fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// Thread-count independence on the out-of-order core: the record
/// stream is re-sorted into campaign order after the shared queue
/// drains, so worker count must not leak into the archive.
#[test]
fn lr7_archives_byte_identical_across_thread_counts() {
    let cfg = base_config();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let mut c = cfg.clone();
        c.threads = threads;
        let result = run_campaign(&c);
        assert_eq!(result.stats.core, "lr7");
        assert!(!result.records.is_empty(), "LR7 campaign must manifest errors");
        let bytes = archive_bytes(&result);
        match &reference {
            Some(r) => assert_eq!(&bytes, r, "LR7 archive depends on thread count ({threads})"),
            None => reference = Some(bytes),
        }
    }
}

/// Every batch layer set — fan-out, early-out, parked lanes, all three
/// — is byte-identical to scalar replay on the out-of-order core, for
/// checkpointing off, dense, and default spacing; the stats record the
/// layers requested, because LR7 runs every one of them.
#[test]
fn lr7_every_layer_set_byte_identical_to_scalar() {
    for interval in [None, Some(512), Some(4096)] {
        let mut cfg = base_config();
        cfg.checkpoint_interval = interval;
        let scalar = archive_bytes(&run_campaign(&cfg));
        for layers in ALL_LAYERS {
            cfg.batch = Some(layers);
            let batched = run_campaign(&cfg);
            assert_eq!(batched.stats.batch_mode, layers.label());
            assert_eq!(
                scalar,
                archive_bytes(&batched),
                "`{}` changed the LR7 archive at checkpoint interval {interval:?}",
                layers.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Group-level: on property-sampled LR7 fault sets (duplicates and
    /// past-end strikes included) every layer set gives the fan-out
    /// substrate's outcomes, which the campaign test above ties to
    /// scalar replay; disabled layers report no savings.
    #[test]
    fn lr7_batch_group_outcomes_do_not_depend_on_layers(
        picks in proptest::collection::vec((0usize..10_000, 0u8..3, 0u64..1100), 1..40),
        window in 1u32..=24,
        layers in proptest::sample::select(ALL_LAYERS.to_vec()),
    ) {
        let cap = lr7_capture();
        let all: Vec<FlopId> = flops::all_flops_in(Lr7::registry()).collect();
        let faults: Vec<Fault> = picks
            .iter()
            .map(|&(flop_pick, kind, cycle_frac)| {
                let kind = match kind {
                    0 => FaultKind::Transient,
                    1 => FaultKind::StuckAt0,
                    _ => FaultKind::StuckAt1,
                };
                Fault::new(all[flop_pick % all.len()], kind, cap.run.cycles * cycle_frac / 1000)
            })
            .collect();
        let run = |layers| {
            <Lr7 as CoreBatch>::run_batch_group(&cap.checkpoints, &cap.trace, &faults, window, layers)
        };
        let (reference, _) = run(BatchConfig::FAN_OUT);
        let (outcomes, cost) = run(layers);
        prop_assert_eq!(outcomes, reference, "`{}` changed LR7 outcomes", layers.label());
        if !layers.early_out {
            prop_assert_eq!(cost.masked_early_out, 0);
        }
        if !layers.parked_lanes {
            prop_assert_eq!(cost.parked_masked, 0);
        }
    }
}

/// The redundancy axis holds on the out-of-order core too: `dynamic`
/// is byte-identical to fixed DMR (same scalar detection, different
/// recovery story), and `dme` runs the retired-effect comparator
/// deterministically across thread counts.
#[test]
fn lr7_redundancy_modes_are_thread_deterministic() {
    use lockstep_core::RedundancyMode;

    let mut cfg = base_config();
    cfg.faults_per_workload = 18;

    let fixed = run_campaign(&cfg);
    cfg.redundancy = RedundancyMode::Dynamic;
    let dynamic = run_campaign(&cfg);
    assert_eq!(dynamic.stats.core, "lr7");
    assert_eq!(dynamic.stats.redundancy, "dynamic");
    assert_eq!(
        archive_bytes(&fixed),
        archive_bytes(&dynamic),
        "dynamic pairing changed the LR7 archive"
    );

    cfg.redundancy = RedundancyMode::Dme;
    let mut reference: Option<String> = None;
    for threads in [1usize, 4] {
        let mut c = cfg.clone();
        c.threads = threads;
        let result = run_campaign(&c);
        assert_eq!(result.stats.redundancy, "dme");
        let bytes = archive_bytes(&result);
        match &reference {
            Some(r) => {
                assert_eq!(&bytes, r, "LR7 dme archive depends on thread count ({threads})")
            }
            None => reference = Some(bytes),
        }
    }
}

/// Shards of one LR7 job must agree on the redundancy arrangement: a
/// `dme` shard is not mergeable with `fixed` siblings, mirroring the
/// mixed-core refusal below.
#[test]
fn lr7_mixed_redundancy_shards_refuse_to_merge() {
    use lockstep_core::RedundancyMode;

    let mut cfg = base_config();
    cfg.faults_per_workload = 18;
    let specs = plan_shards(&cfg, 3);
    let mut shards: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();

    let mut dme_cfg = cfg.clone();
    dme_cfg.redundancy = RedundancyMode::Dme;
    let foreign = run_shard(&dme_cfg, &specs[0]);
    assert_eq!(foreign.shard.as_ref().unwrap().redundancy, "dme");
    shards[0] = foreign;
    assert!(
        merge_shard_archives(&shards).is_err(),
        "shards from different redundancy modes must not merge"
    );
}

/// Sharded LR7 campaigns merge back byte-identical to the single-shot
/// run, shard provenance records the core, and shards from different
/// cores refuse to merge.
#[test]
fn lr7_shards_merge_byte_identical_and_refuse_foreign_cores() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 18;
    let single = CampaignArchive::from_result(&run_campaign(&cfg));

    let specs = plan_shards(&cfg, 3);
    let shards: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();
    for shard in &shards {
        assert_eq!(shard.shard.as_ref().unwrap().core, "lr7");
    }
    let mut merged = merge_shard_archives(&shards).expect("sibling shards merge");
    let mut single_norm = single;
    merged.stats = CampaignStats::default();
    single_norm.stats = CampaignStats::default();
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&single_norm).unwrap(),
        "merged LR7 shards must be byte-identical to the single-shot campaign"
    );

    // An LR5 shard of the otherwise-identical campaign is a different
    // job; merging must refuse, not silently mix cores.
    let mut lr5_cfg = cfg.clone();
    lr5_cfg.core = CoreKind::Lr5;
    let lr5_specs = plan_shards(&lr5_cfg, 3);
    let foreign = run_shard(&lr5_cfg, &lr5_specs[0]);
    let mixed = vec![foreign, shards[1].clone(), shards[2].clone()];
    assert!(
        merge_shard_archives(&mixed).is_err(),
        "shards from different core models must not merge"
    );
}
