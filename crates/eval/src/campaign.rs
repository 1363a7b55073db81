//! The fault-injection campaign engine.
//!
//! # Campaign performance model
//!
//! A from-reset injection experiment costs `inject_cycle + detection
//! latency` simulated cycles (plus a full kernel re-assembly for the
//! memory image). The checkpointed path restores the golden-run
//! snapshot nearest below the injection cycle instead, so the cost
//! drops to `hit_distance + detection latency + capture window`, where
//! `hit_distance < checkpoint_interval`. Correctness rests on two
//! facts, both covered by tests:
//!
//! * restore is exact — a core resumed from a snapshot is
//!   cycle-for-cycle identical to one that simulated its way there
//!   (`crates/cpu/tests/checkpoint.rs`), and
//! * every [`lockstep_fault::FaultKind`] overlay is the identity before
//!   `fault.cycle`, so the pre-fault prefix can neither be perturbed
//!   nor diverge, and the engine skips both the overlay and the
//!   golden-trace comparison until the injection cycle.
//!
//! # Shadow-golden replay
//!
//! Each replayed cycle compares the faulty CPU against the recorded
//! golden [`PortTrace`] from the single golden pass: one CPU and one
//! memory clone per injection. This is bit-identical to board-level
//! lockstep against live fault-free golden twins (the paper's Figure
//! 1a): a fault-free twin restored from the same snapshot over the same
//! memory image deterministically re-produces the recorded trace, so
//! comparing against the recording *is* comparing against the twin.
//! The twin survives only as a test oracle (`campaign/replay_oracle.rs`
//! runs every planned fault against the recording and against one and
//! two live twins); shadow replay simply skips re-simulating the machine
//! half whose behaviour is already known.
//!
//! # Batch mode
//!
//! [`CampaignConfig::batch`] swaps the per-fault scalar replay for the
//! batched engine of [`crate::batch`]: every fault restoring from the
//! same checkpoint shares one fault-free walker replay, transients
//! retire the moment their dirty set empties, and agreeing stuck-ats
//! wait in bit-parallel watch masks at zero simulation cost. Outcomes
//! are bit-identical to the scalar engine (`tests/batch_equivalence.rs`
//! asserts byte-identical archives), so batch mode is purely a
//! throughput knob.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lockstep_core::{Dsr, ErrorRecord, RedundancyMode};
use lockstep_cpu::{
    flops, CoreKind, CoreModel, Cpu, CpuState, Granularity, Lr7, PortSet, PortTrace,
};
use lockstep_fault::{CampaignPlan, ErrorKind, Fault, FaultKind, PlanConfig};
use lockstep_iss::{retired_of_ports, Retired};
use lockstep_mem::{shift_image, DmePort, DEFAULT_DME_OFFSET_WORDS};
use lockstep_obs::{DivergenceTrace, Event, EventSink, TraceRing, TraceSample};
use lockstep_workloads::{GoldenCapture, GoldenCheckpoints, GoldenRun, Workload};
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

use crate::batch::{total_cost, BatchConfig, BatchCost, CoreBatch};
use crate::dme::{retire_stream, retired_diff_mask, stream_skew_mask};

/// Default DSR capture window (cycles from first divergence until the
/// CPUs are architecturally stopped).
pub const DEFAULT_CAPTURE_WINDOW: u32 = 16;

/// Default pre-detection retention of the divergence trace recorder
/// (samples kept between injection and detection when tracing is on).
pub const DEFAULT_TRACE_WINDOW: u32 = 64;

/// Default golden-run checkpoint spacing (re-exported from the
/// workloads crate so campaign callers need only one import).
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = lockstep_workloads::DEFAULT_CHECKPOINT_INTERVAL;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workloads to run (defaults to the full suite).
    pub workloads: Vec<&'static Workload>,
    /// Fault injections per workload.
    pub faults_per_workload: usize,
    /// Master seed (stimulus, fault sampling, splits).
    pub seed: u64,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
    /// DSR capture window in cycles. In hardware the DSR keeps OR-ing
    /// per-SC divergences while the checker's error signal propagates
    /// and the CPUs are being stopped; sticky (hard) faults spread over
    /// more SCs in that window than one-shot transients, which is what
    /// makes the error *type* predictable (Section III-B).
    pub capture_window: u32,
    /// Golden-run checkpoint spacing in cycles. `None` disables
    /// checkpointing: every injection replays from reset and rebuilds
    /// its memory image (the pre-optimization behaviour, kept as the
    /// baseline the `campaign` benchmark compares against).
    pub checkpoint_interval: Option<u64>,
    /// Structured event sink. `None` (the default) skips event
    /// construction entirely, so an untraced campaign pays nothing for
    /// the observability layer (the `obs` benchmark proves it).
    pub events: Option<Arc<dyn EventSink>>,
    /// Divergence trace recording: `Some(pre_window)` records, for each
    /// manifested error, the last `pre_window` pre-detection cycles plus
    /// the whole capture window ([`DivergenceTrace`]). `None` (the
    /// default) records nothing. Tracing requires the checkpointed
    /// injection path (`checkpoint_interval` set); with checkpointing
    /// off the option is ignored.
    pub trace_window: Option<u32>,
    /// Batched fault simulation: `Some(layers)` runs the batched engine
    /// of [`crate::batch`] with the given layer combination instead of
    /// one scalar replay per fault; `None` (the default) keeps the
    /// scalar engines. Outcomes are bit-identical either way. Ignored
    /// when divergence tracing is on (see
    /// [`CampaignConfig::effective_batch`]).
    pub batch: Option<BatchConfig>,
    /// Core model under test (default [`CoreKind::Lr5`], the in-order
    /// pipeline). [`CoreKind::Lr7`] runs the out-of-order core behind
    /// the same [`CoreModel`] contracts, batched layers included (see
    /// [`CoreBatch`]).
    pub core: CoreKind,
    /// Redundancy arrangement under test (default
    /// [`RedundancyMode::Fixed`], the paper's permanently paired DMR).
    /// [`RedundancyMode::Dynamic`] detects identically to fixed — the
    /// axis changes only the recovery path, measured by the
    /// `dynamic_pairing` experiment — while [`RedundancyMode::Dme`]
    /// swaps the per-cycle port comparison for the retired-effect
    /// stream comparator over a shifted redundant address space. Both
    /// non-fixed modes run the scalar per-fault engine (see
    /// [`CampaignConfig::effective_batch`]).
    pub redundancy: RedundancyMode,
}

impl CampaignConfig {
    /// A campaign over the full suite with `faults_per_workload`
    /// injections per kernel.
    pub fn new(faults_per_workload: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            workloads: Workload::all().iter().collect(),
            faults_per_workload,
            seed,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            capture_window: DEFAULT_CAPTURE_WINDOW,
            checkpoint_interval: Some(DEFAULT_CHECKPOINT_INTERVAL),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::default(),
            redundancy: RedundancyMode::default(),
        }
    }

    /// The batch layers the engine will actually use: the configured
    /// ones, except that divergence tracing forces the scalar per-fault
    /// path (the trace recorder samples one dedicated faulty CPU per
    /// injection, which is exactly what batching shares away), and so
    /// do the non-fixed redundancy modes (the DME comparator follows
    /// one dedicated faulty copy's retire stream, and dynamic mode
    /// keeps the scalar path so its archives stay byte-comparable to
    /// fixed's). The fallback is recorded honestly: stats and shard
    /// provenance report the layers that really ran, `"off"` here.
    pub fn effective_batch(&self) -> Option<BatchConfig> {
        if self.trace_window.is_some() || self.redundancy != RedundancyMode::Fixed {
            None
        } else {
            self.batch
        }
    }
}

/// Throughput and cost accounting for one workload's injections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Workload name.
    pub workload: String,
    /// Faults injected into this workload.
    pub injected: u64,
    /// Injections that produced a detectable divergence.
    pub manifested: u64,
    /// Injections masked for the whole run (`injected - manifested`).
    pub masked: u64,
    /// Golden runtime in cycles (the per-injection cost ceiling).
    pub golden_cycles: u64,
    /// Cycles actually simulated across all injections.
    pub replayed_cycles: u64,
    /// Cycles skipped by resuming from checkpoints instead of reset.
    pub skipped_cycles: u64,
    /// Snapshots captured for this workload.
    pub checkpoint_count: u64,
    /// Approximate bytes held by those snapshots.
    pub checkpoint_bytes: u64,
    /// Sum over injections of (inject cycle − checkpoint cycle).
    pub hit_distance_sum: u64,
    /// Worst-case replay distance from a checkpoint to its injection.
    pub hit_distance_max: u64,
    /// Wall time spent injecting into this workload, summed over
    /// worker threads.
    pub wall_nanos: u64,
}

impl WorkloadStats {
    /// Mean cycles replayed between the restored checkpoint and the
    /// injection cycle (< checkpoint interval by construction).
    pub fn mean_hit_distance(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.hit_distance_sum as f64 / self.injected as f64
        }
    }
}

/// Whole-campaign throughput instrumentation.
///
/// `Deserialize` is written by hand so that fields added after archives
/// of this struct already existed are optional on read: the batch-mode
/// fields default to `"off"` / zero (files that predate them were
/// produced by the scalar per-fault engines). The `replay_mode` label
/// that v4–v10 files carry is ignored: every campaign replays against
/// the recorded golden trace now, and the label never changed a record.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignStats {
    /// Checkpoint spacing used, or 0 if checkpointing was disabled.
    pub checkpoint_interval: u64,
    /// Core model label of the producing run (`"lr5"` / `"lr7"`; see
    /// [`CoreKind::label`]).
    pub core: String,
    /// Redundancy mode label of the producing run (`"fixed"` /
    /// `"dynamic"` / `"dme"`; see [`RedundancyMode::label`]).
    pub redundancy: String,
    /// Total faults injected.
    pub injected: u64,
    /// Faults that manifested as detected errors.
    pub manifested: u64,
    /// Faults masked for the entire run.
    pub masked: u64,
    /// Wall time of the golden capture phase (reference runs +
    /// checkpointing), in nanoseconds.
    pub golden_nanos: u64,
    /// Wall time of the injection phase, in nanoseconds.
    pub injection_nanos: u64,
    /// End-to-end campaign wall time, in nanoseconds.
    pub wall_nanos: u64,
    /// Injection throughput over the injection phase.
    pub injections_per_sec: f64,
    /// Batch-mode label of the producing run (`"off"` for scalar
    /// per-fault replay; see [`BatchConfig::label`]), or `"mixed"` for
    /// a merge of shards that ran different layer sets.
    pub batch_mode: String,
    /// Transients the batched engine scored masked via the dirty-set
    /// early-out before the end of the golden run.
    pub masked_early_out: u64,
    /// Simulated cycles the early-out avoided, summed over early-out
    /// faults.
    pub early_out_cycles_saved: u64,
    /// Stuck-ats that sat parked in a bit-parallel watch to the end of
    /// the golden run — masked at zero simulation cost.
    pub parked_masked: u64,
    /// Scalar fault lanes the batched engine materialized (strike
    /// admissions plus watch wakes).
    pub lane_activations: u64,
    /// Per-workload breakdown, in campaign order.
    pub per_workload: Vec<WorkloadStats>,
}

impl Deserialize for CampaignStats {
    fn deserialize(value: &Value) -> Result<CampaignStats, JsonError> {
        Ok(CampaignStats {
            checkpoint_interval: Deserialize::deserialize(value.field("checkpoint_interval")?)?,
            // Archives that predate the core-model axis were produced
            // by the only core that existed, the in-order LR5.
            core: match value.field("core") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => CoreKind::Lr5.label().to_owned(),
            },
            // Archives that predate the redundancy axis were produced
            // by the only arrangement that existed, fixed lockstep.
            redundancy: match value.field("redundancy") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => RedundancyMode::Fixed.label().to_owned(),
            },
            injected: Deserialize::deserialize(value.field("injected")?)?,
            manifested: Deserialize::deserialize(value.field("manifested")?)?,
            masked: Deserialize::deserialize(value.field("masked")?)?,
            golden_nanos: Deserialize::deserialize(value.field("golden_nanos")?)?,
            injection_nanos: Deserialize::deserialize(value.field("injection_nanos")?)?,
            wall_nanos: Deserialize::deserialize(value.field("wall_nanos")?)?,
            injections_per_sec: Deserialize::deserialize(value.field("injections_per_sec")?)?,
            // Archives that predate batch mode were produced by the
            // scalar per-fault engines.
            batch_mode: match value.field("batch_mode") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => "off".to_owned(),
            },
            masked_early_out: match value.field("masked_early_out") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            early_out_cycles_saved: match value.field("early_out_cycles_saved") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            parked_masked: match value.field("parked_masked") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            lane_activations: match value.field("lane_activations") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            per_workload: Deserialize::deserialize(value.field("per_workload")?)?,
        })
    }
}

impl CampaignStats {
    /// Renders the throughput report `repro_all` prints: the phase
    /// split, injection rate, and per-workload replay/checkpoint cost.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Campaign throughput (core: {}, redundancy: {}, checkpoint interval: {}) ==\n\n\
             {} injections ({} manifested, {} masked) at {:.0} injections/sec\n\
             golden capture {:.1} ms, injection phase {:.1} ms, total {:.1} ms\n\n",
            if self.core.is_empty() { "lr5" } else { &self.core },
            if self.redundancy.is_empty() { "fixed" } else { &self.redundancy },
            if self.checkpoint_interval == 0 {
                "off".to_owned()
            } else {
                format!("{} cycles", self.checkpoint_interval)
            },
            self.injected,
            self.manifested,
            self.masked,
            self.injections_per_sec,
            self.golden_nanos as f64 / 1e6,
            self.injection_nanos as f64 / 1e6,
            self.wall_nanos as f64 / 1e6,
        );
        if !(self.batch_mode.is_empty() || self.batch_mode == "off") {
            out.push_str(&format!(
                "batch mode {}: {} early-out masked ({:.2} Mcyc saved), \
                 {} parked masked, {} lanes activated\n\n",
                self.batch_mode,
                self.masked_early_out,
                self.early_out_cycles_saved as f64 / 1e6,
                self.parked_masked,
                self.lane_activations,
            ));
        }
        let mut t = crate::render::Table::new(vec![
            "workload",
            "injected",
            "manifested",
            "golden cyc",
            "ckpts",
            "ckpt KiB",
            "mean hit",
            "max hit",
            "replayed Mcyc",
            "skipped Mcyc",
            "wall ms",
        ]);
        for w in &self.per_workload {
            t.row(vec![
                w.workload.clone(),
                w.injected.to_string(),
                w.manifested.to_string(),
                w.golden_cycles.to_string(),
                w.checkpoint_count.to_string(),
                format!("{:.0}", w.checkpoint_bytes as f64 / 1024.0),
                format!("{:.0}", w.mean_hit_distance()),
                w.hit_distance_max.to_string(),
                format!("{:.2}", w.replayed_cycles as f64 / 1e6),
                format!("{:.2}", w.skipped_cycles as f64 / 1e6),
                format!("{:.1}", w.wall_nanos as f64 / 1e6),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// One record per manifested error.
    pub records: Vec<ErrorRecord>,
    /// Total faults injected (manifested + masked).
    pub injected: usize,
    /// Injected fault counts per fine unit: `[unit][0]` soft,
    /// `[unit][1]` hard.
    pub injected_per_unit: Vec<[u64; 2]>,
    /// Per-workload golden run data (`name`, timing/outputs).
    pub golden: Vec<(&'static str, GoldenRun)>,
    /// Throughput instrumentation for the run that produced this.
    pub stats: CampaignStats,
    /// Divergence traces aligned 1:1 with `records` when the campaign
    /// ran with [`CampaignConfig::trace_window`] set; empty otherwise.
    pub traces: Vec<Option<DivergenceTrace>>,
    /// The event sink the campaign ran with, kept so post-campaign
    /// queries (e.g. [`CampaignResult::restart_cycles`]) log to the same
    /// stream.
    pub events: Option<Arc<dyn EventSink>>,
}

impl CampaignResult {
    /// Manifested errors per fine unit (soft, hard).
    pub fn manifested_per_unit(&self) -> Vec<[u64; 2]> {
        let mut out = vec![[0u64; 2]; 13];
        for r in &self.records {
            let k = usize::from(r.kind() == ErrorKind::Hard);
            out[r.unit_index as usize][k] += 1;
        }
        out
    }

    /// Per-unit manifestation rates under `granularity`, pooled over
    /// soft and hard faults — the input for the `base-manifest`
    /// ordering.
    pub fn manifestation_rates(&self, granularity: Granularity) -> Vec<f64> {
        let mut injected = vec![0u64; granularity.unit_count()];
        let mut manifested = vec![0u64; granularity.unit_count()];
        for (fine, counts) in self.injected_per_unit.iter().enumerate() {
            let idx = granularity.index_of(lockstep_cpu::UnitId::ALL[fine]);
            injected[idx] += counts[0] + counts[1];
        }
        for r in &self.records {
            let idx = granularity.index_of(r.unit());
            manifested[idx] += 1;
        }
        injected
            .iter()
            .zip(&manifested)
            .map(|(&i, &m)| if i == 0 { 0.0 } else { m as f64 / i as f64 })
            .collect()
    }

    /// The restart penalty of a workload: its measured golden runtime
    /// (the paper's restart latencies are "the actual execution times of
    /// the EEMBC AutoBench"). A workload this campaign never ran falls
    /// back to the mean measured golden runtime (logged), so the
    /// penalty stays tied to this campaign's workload population rather
    /// than a magic constant.
    pub fn restart_cycles(&self, workload: &str) -> u64 {
        if let Some((_, g)) = self.golden.iter().find(|(n, _)| *n == workload) {
            return g.cycles;
        }
        let total: u64 = self.golden.iter().map(|(_, g)| g.cycles).sum();
        let mean = total / self.golden.len().max(1) as u64;
        if let Some(sink) = &self.events {
            sink.emit(&Event::RestartFallback { workload: workload.to_owned(), mean_cycles: mean });
        } else {
            eprintln!(
                "restart_cycles: workload `{workload}` was not in this campaign; \
                 using mean golden runtime {mean} cycles"
            );
        }
        mean
    }
}

/// Per-workload atomic counters the injection workers update.
#[derive(Default)]
pub(crate) struct WorkCounters {
    manifested: AtomicU64,
    replayed_cycles: AtomicU64,
    skipped_cycles: AtomicU64,
    hit_distance_sum: AtomicU64,
    hit_distance_max: AtomicU64,
    wall_nanos: AtomicU64,
}

/// One produced record: workload index, the error record, and its
/// optional divergence trace.
pub(crate) type Produced = (usize, ErrorRecord, Option<DivergenceTrace>);

/// Canonicalizes worker output into the archive record order:
/// grouped by workload in campaign order, then sorted on every record
/// field, the fault kind last. Traces ride along under the same key so
/// `traces[i]` always describes `records[i]`. The order is a pure
/// function of the record set — records equal on the key are equal —
/// so any engine, thread count or partition of a campaign into shards
/// produces the identical sequence.
pub(crate) fn order_produced(
    workload_count: usize,
    produced: Vec<Produced>,
) -> (Vec<ErrorRecord>, Vec<Option<DivergenceTrace>>) {
    let mut grouped: Vec<Vec<(ErrorRecord, Option<DivergenceTrace>)>> =
        (0..workload_count).map(|_| Vec::new()).collect();
    for (wi, record, trace) in produced {
        grouped[wi].push((record, trace));
    }
    let mut records = Vec::new();
    let mut traces = Vec::new();
    for produced in &mut grouped {
        produced.sort_by_key(|(record, _)| record_order_key(record));
        for (record, trace) in produced.drain(..) {
            records.push(record);
            traces.push(trace);
        }
    }
    (records, traces)
}

/// The archive's within-workload record order: every record field, the
/// fault kind last. Shared by [`order_produced`] and the shard merge, so
/// both produce the same sequence.
pub(crate) fn record_order_key(r: &ErrorRecord) -> (u64, u64, u8, Dsr, u8) {
    (r.inject_cycle, r.detect_cycle, r.unit_index, r.dsr, r.fault as u8)
}

/// Builds the per-workload throughput stats from the worker counters.
/// `fault_counts[wi]` is the number of faults actually injected into
/// workload `wi` by this run (a shard injects a subrange of the plan).
pub(crate) fn collect_workload_stats<S>(
    config: &CampaignConfig,
    captures: &[GoldenCapture<S>],
    fault_counts: &[u64],
    counters: &[WorkCounters],
) -> Vec<WorkloadStats> {
    config
        .workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let c = &counters[wi];
            let injected = fault_counts[wi];
            let manifested = c.manifested.load(Ordering::Relaxed);
            WorkloadStats {
                workload: w.name.to_owned(),
                injected,
                manifested,
                masked: injected - manifested,
                golden_cycles: captures[wi].run.cycles,
                replayed_cycles: c.replayed_cycles.load(Ordering::Relaxed),
                skipped_cycles: c.skipped_cycles.load(Ordering::Relaxed),
                checkpoint_count: if config.checkpoint_interval.is_some() {
                    captures[wi].checkpoints.points.len() as u64
                } else {
                    0
                },
                checkpoint_bytes: if config.checkpoint_interval.is_some() {
                    captures[wi].checkpoints.approx_bytes() as u64
                } else {
                    0
                },
                hit_distance_sum: c.hit_distance_sum.load(Ordering::Relaxed),
                hit_distance_max: c.hit_distance_max.load(Ordering::Relaxed),
                wall_nanos: c.wall_nanos.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Runs a full campaign: one golden reference pass per workload
/// (statistics, port trace, and checkpoints captured together), then a
/// single flat queue of (workload, fault) injection experiments shared
/// by all worker threads. Dispatches on [`CampaignConfig::core`] to the
/// generic engine, monomorphized per core model.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    match config.core {
        CoreKind::Lr5 => run_campaign_for::<Cpu>(config),
        CoreKind::Lr7 => run_campaign_for::<Lr7>(config),
    }
}

/// [`run_campaign`] monomorphized for core model `C`. The engine is a
/// pure function of the [`CoreModel`] contracts — registry-driven fault
/// plans, snapshot/restore checkpoints, overlay stepping, and the
/// 62-SC port comparison — so the scalar engine and the fan-out batch
/// layer work identically on any conforming core.
pub fn run_campaign_for<C: CoreBatch>(config: &CampaignConfig) -> CampaignResult {
    let campaign_start = Instant::now();

    let stim_seeds: Vec<u64> =
        (0..config.workloads.len()).map(|wi| config.seed ^ (wi as u64) << 32).collect();
    let (captures, golden_nanos) = run_golden_phase::<C>(config, &stim_seeds);

    // ------------------------------------------------------------------
    // Fault plans and the flat work queue: injection i maps to the
    // workload whose [offset, offset + plan.len()) range contains it.
    // ------------------------------------------------------------------
    let mut injected_per_unit = vec![[0u64; 2]; 13];
    let mut plans = Vec::with_capacity(config.workloads.len());
    let mut offsets = Vec::with_capacity(config.workloads.len());
    let mut injected_total = 0usize;
    for (wi, cap) in captures.iter().enumerate() {
        let plan = CampaignPlan::sampled_for::<C>(
            PlanConfig::new(cap.run.cycles, config.seed.wrapping_add(wi as u64)),
            config.faults_per_workload,
        );
        for f in plan.faults() {
            let k = usize::from(f.kind.error_kind() == ErrorKind::Hard);
            injected_per_unit[f.unit_for::<C>().index()][k] += 1;
        }
        offsets.push(injected_total);
        injected_total += plan.len();
        plans.push(plan);
    }

    // ------------------------------------------------------------------
    // Phase 2: every (workload, fault) pair goes through one shared
    // queue, so a long-running workload no longer serializes the tail of
    // the campaign behind a per-workload thread barrier.
    // ------------------------------------------------------------------
    let injection_start = Instant::now();
    let counters: Vec<WorkCounters> =
        config.workloads.iter().map(|_| WorkCounters::default()).collect();
    let sink: Mutex<Vec<Produced>> = Mutex::new(Vec::new());
    let fault_sets: Vec<Vec<Fault>> = plans.iter().map(|p| p.faults().to_vec()).collect();
    let batch_cost =
        run_injection_phase::<C>(config, &captures, &stim_seeds, &fault_sets, &counters, &sink);
    let injection_nanos = elapsed_nanos(injection_start);
    if let Some(events) = &config.events {
        events.emit(&Event::Span { name: "injection".to_owned(), nanos: injection_nanos });
    }

    let (records, mut traces) =
        order_produced(config.workloads.len(), sink.into_inner().expect("no poisoned workers"));
    if config.trace_window.is_none() || config.checkpoint_interval.is_none() {
        traces.clear();
    }
    for (i, trace) in traces.iter_mut().enumerate() {
        if let Some(t) = trace {
            t.record = i as u64;
        }
    }

    let golden_info: Vec<(&'static str, GoldenRun)> =
        config.workloads.iter().zip(&captures).map(|(w, cap)| (w.name, cap.run)).collect();

    let fault_counts: Vec<u64> = plans.iter().map(|p| p.len() as u64).collect();
    let per_workload = collect_workload_stats(config, &captures, &fault_counts, &counters);

    let manifested_total = records.len() as u64;
    let injection_secs = injection_nanos as f64 / 1e9;
    let stats = CampaignStats {
        checkpoint_interval: config.checkpoint_interval.unwrap_or(0),
        core: C::NAME.to_owned(),
        redundancy: config.redundancy.label().to_owned(),
        injected: injected_total as u64,
        manifested: manifested_total,
        masked: injected_total as u64 - manifested_total,
        golden_nanos,
        injection_nanos,
        wall_nanos: elapsed_nanos(campaign_start),
        injections_per_sec: if injection_secs > 0.0 {
            injected_total as f64 / injection_secs
        } else {
            0.0
        },
        batch_mode: config.effective_batch().map_or("off", BatchConfig::label).to_owned(),
        masked_early_out: batch_cost.masked_early_out,
        early_out_cycles_saved: batch_cost.early_out_cycles_saved,
        parked_masked: batch_cost.parked_masked,
        lane_activations: batch_cost.lane_activations,
        per_workload,
    };

    CampaignResult {
        records,
        injected: injected_total,
        injected_per_unit,
        golden: golden_info,
        stats,
        traces,
        events: config.events.clone(),
    }
}

/// Phase 1 of a campaign or shard: golden captures, parallel over
/// workloads. One simulation per kernel yields the run stats, the
/// golden trace, and the checkpoints (the engine used to simulate each
/// kernel twice here). `stim_seeds[wi]` seeds `workloads[wi]`'s
/// stimulus; a shard passes the seeds of its covered global workload
/// indices so its captures are bit-identical to the full campaign's.
///
/// Returns the captures plus the phase's wall time in nanoseconds.
pub(crate) fn run_golden_phase<C: CoreModel>(
    config: &CampaignConfig,
    stim_seeds: &[u64],
) -> (Vec<GoldenCapture<C::State>>, u64) {
    let phase_start = Instant::now();
    let capture_interval = config.checkpoint_interval.unwrap_or(u64::MAX);
    let captures: Vec<GoldenCapture<C::State>> = {
        let slots: Vec<Mutex<Option<GoldenCapture<C::State>>>> =
            config.workloads.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..config.threads.max(1).min(config.workloads.len().max(1)) {
                scope.spawn(|| loop {
                    let wi = next.fetch_add(1, Ordering::Relaxed);
                    let Some(workload) = config.workloads.get(wi) else {
                        break;
                    };
                    let cap =
                        workload.golden_capture_for::<C>(stim_seeds[wi], 400_000, capture_interval);
                    *slots[wi].lock().expect("no poisoned capture slot") = Some(cap);
                });
            }
        });
        slots
            .into_iter()
            .zip(&config.workloads)
            .map(|(slot, w)| {
                slot.into_inner()
                    .expect("no poisoned capture slot")
                    .unwrap_or_else(|| panic!("golden capture for {} missing", w.name))
            })
            .collect()
    };
    for (workload, cap) in config.workloads.iter().zip(&captures) {
        assert!(cap.run.halted, "{} golden run did not halt", workload.name);
    }
    let golden_nanos = elapsed_nanos(phase_start);
    if let Some(sink) = &config.events {
        for (workload, cap) in config.workloads.iter().zip(&captures) {
            sink.emit(&Event::GoldenPass {
                workload: workload.name.to_owned(),
                cycles: cap.run.cycles,
                instructions: cap.run.instructions,
                checkpoints: if config.checkpoint_interval.is_some() {
                    cap.checkpoints.points.len() as u64
                } else {
                    0
                },
            });
        }
        sink.emit(&Event::Span { name: "golden_capture".to_owned(), nanos: golden_nanos });
    }
    (captures, golden_nanos)
}

pub(crate) fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Phase 2 in batch mode: each workload's faults are sorted by strike
/// cycle and partitioned into groups restoring from the same golden
/// checkpoint, and each (workload, span) group becomes one work item
/// sharing a single walker replay (see [`run_batch_group`]). Per-fault
/// checkpoint hits are not reported — the restore is shared — so the
/// hit-distance stats stay zero in batch mode.
fn run_batch_phase<C: CoreBatch>(
    config: &CampaignConfig,
    captures: &[GoldenCapture<C::State>],
    fault_sets: &[Vec<Fault>],
    counters: &[WorkCounters],
    sink: &Mutex<Vec<(usize, ErrorRecord, Option<DivergenceTrace>)>>,
    layers: BatchConfig,
    window: u32,
) -> BatchCost {
    struct Group {
        wi: usize,
        faults: Vec<Fault>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (wi, set) in fault_sets.iter().enumerate() {
        let cps = &captures[wi].checkpoints;
        let mut faults = set.clone();
        faults.sort_by_key(|f| f.cycle);
        let mut current_key = None;
        let mut current: Vec<Fault> = Vec::new();
        for f in faults {
            let key = cps
                .nearest_at(f.cycle)
                .expect("golden captures always include the cycle-0 checkpoint")
                .cycle;
            if current_key != Some(key) && !current.is_empty() {
                groups.push(Group { wi, faults: std::mem::take(&mut current) });
            }
            current_key = Some(key);
            current.push(f);
        }
        if !current.is_empty() {
            groups.push(Group { wi, faults: current });
        }
    }

    let next = AtomicUsize::new(0);
    let total = Mutex::new(BatchCost::default());
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| {
                let mut local: Vec<(usize, ErrorRecord, Option<DivergenceTrace>)> = Vec::new();
                let mut local_cost = BatchCost::default();
                loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else {
                        break;
                    };
                    let workload = config.workloads[group.wi];
                    let cap = &captures[group.wi];
                    let t0 = Instant::now();
                    let (outcomes, cost) = C::run_batch_group(
                        &cap.checkpoints,
                        &cap.trace,
                        &group.faults,
                        window,
                        layers,
                    );
                    let c = &counters[group.wi];
                    c.replayed_cycles.fetch_add(cost.replayed_cycles, Ordering::Relaxed);
                    c.skipped_cycles.fetch_add(cost.skipped_cycles, Ordering::Relaxed);
                    c.wall_nanos.fetch_add(elapsed_nanos(t0), Ordering::Relaxed);
                    local_cost = total_cost([local_cost, cost]);
                    if let Some(events) = &config.events {
                        for (fault, outcome) in group.faults.iter().zip(&outcomes) {
                            events.emit(&Event::Inject {
                                workload: workload.name.to_owned(),
                                unit: fault.unit_for::<C>().name().to_owned(),
                                fault: fault.describe_for::<C>(),
                                cycle: fault.cycle,
                            });
                            match outcome {
                                Some((detect_cycle, dsr)) => events.emit(&Event::Detect {
                                    workload: workload.name.to_owned(),
                                    inject_cycle: fault.cycle,
                                    detect_cycle: *detect_cycle,
                                    dsr_bits: dsr.bits(),
                                }),
                                None => events.emit(&Event::Masked {
                                    workload: workload.name.to_owned(),
                                    inject_cycle: fault.cycle,
                                }),
                            }
                        }
                    }
                    for (fault, outcome) in group.faults.iter().zip(&outcomes) {
                        if let Some((detect_cycle, dsr)) = *outcome {
                            c.manifested.fetch_add(1, Ordering::Relaxed);
                            local.push((
                                group.wi,
                                ErrorRecord {
                                    workload: workload.name.to_owned(),
                                    unit_index: fault.unit_for::<C>().index() as u8,
                                    fault: fault.kind.into(),
                                    inject_cycle: fault.cycle,
                                    detect_cycle,
                                    dsr,
                                },
                                None,
                            ));
                        }
                    }
                }
                sink.lock().expect("no poisoned workers").extend(local);
                let mut t = total.lock().expect("no poisoned workers");
                *t = total_cost([*t, local_cost]);
            });
        }
    });
    total.into_inner().expect("no poisoned workers")
}

/// Phase 2 of a campaign or shard: injects every fault of
/// `fault_sets[wi]` into `config.workloads[wi]`, pushing one
/// [`Produced`] entry per manifested error into `sink`. Dispatches to
/// the batched engine when [`CampaignConfig::effective_batch`] says so,
/// otherwise to the flat scalar work queue shared by all worker
/// threads, which replays each fault once against the recorded golden
/// trace (or, under [`RedundancyMode::Dme`], against the golden retire
/// stream). `stim_seeds[wi]` is only consulted by the from-reset path
/// (checkpointing off).
///
/// Outcomes are a pure per-fault function, so any partition of a
/// campaign's fault sets across calls — including the resumable shards
/// of [`crate::shard`] — produces the same records.
pub(crate) fn run_injection_phase<C: CoreBatch>(
    config: &CampaignConfig,
    captures: &[GoldenCapture<C::State>],
    stim_seeds: &[u64],
    fault_sets: &[Vec<Fault>],
    counters: &[WorkCounters],
    sink: &Mutex<Vec<Produced>>,
) -> BatchCost {
    let window = config.capture_window;
    if let Some(layers) = config.effective_batch() {
        return run_batch_phase::<C>(config, captures, fault_sets, counters, sink, layers, window);
    }
    let start = |wi: usize| match config.checkpoint_interval {
        Some(_) => ReplayStart::Checkpoint(&captures[wi].checkpoints),
        None => ReplayStart::Reset { workload: config.workloads[wi], stim_seed: stim_seeds[wi] },
    };
    if config.redundancy == RedundancyMode::Dme {
        // Each workload's golden retire stream is decoded from the
        // recorded port trace once; every fault then replays the faulty
        // copy over the shifted address space against it.
        let retires: Vec<Vec<(u64, Retired)>> =
            captures.iter().map(|cap| retire_stream(&cap.trace)).collect();
        return run_scalar_phase::<C>(config, captures, fault_sets, counters, sink, |wi, fault| {
            let trace_len = captures[wi].trace.len();
            let (outcome, cost) =
                run_injection_dme_for::<C>(start(wi), &retires[wi], trace_len, fault, window);
            (outcome, None, cost)
        });
    }
    // Tracing rides the checkpointed path only (see
    // [`CampaignConfig::trace_window`]).
    let trace_window = config.checkpoint_interval.and(config.trace_window);
    run_scalar_phase::<C>(config, captures, fault_sets, counters, sink, |wi, fault| {
        let trace = &captures[wi].trace;
        let golden = |_: &C::State, _: &lockstep_mem::Memory| RecordedGolden { trace };
        match trace_window {
            Some(pre) => {
                let mut observer = TraceObserver::<C>::new(pre);
                let (outcome, cost) = run_injection_engine::<C, _, _>(
                    start(wi),
                    trace.len(),
                    fault,
                    window,
                    &mut observer,
                    golden,
                );
                (outcome, outcome.map(|(cycle, _)| observer.finish(cycle, window)), cost)
            }
            None => {
                let (outcome, cost) = run_injection_engine::<C, _, _>(
                    start(wi),
                    trace.len(),
                    fault,
                    window,
                    &mut NoObserver,
                    golden,
                );
                (outcome, None, cost)
            }
        }
    })
}

/// The outcome of one scalar injection: detection cycle and DSR (or
/// `None` if masked), the divergence trace when tracing, and the replay
/// cost.
type ScalarOutcome = (Option<(u64, Dsr)>, Option<DivergenceTrace>, ReplayCost);

/// Phase 2 on the scalar per-fault engines: every (workload, fault)
/// pair goes through one flat queue shared by all worker threads, so a
/// long-running workload does not serialize the tail of the campaign
/// behind a per-workload barrier. `inject(wi, fault)` replays one fault
/// of workload `wi`; this function owns the counters, the event log and
/// the record sink.
fn run_scalar_phase<C: CoreModel>(
    config: &CampaignConfig,
    captures: &[GoldenCapture<C::State>],
    fault_sets: &[Vec<Fault>],
    counters: &[WorkCounters],
    sink: &Mutex<Vec<Produced>>,
    inject: impl Fn(usize, Fault) -> ScalarOutcome + Sync,
) -> BatchCost {
    let mut offsets = Vec::with_capacity(fault_sets.len());
    let mut injected_total = 0usize;
    for set in fault_sets {
        offsets.push(injected_total);
        injected_total += set.len();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= injected_total {
                        break;
                    }
                    let wi = match offsets.binary_search(&i) {
                        Ok(w) => w,
                        Err(w) => w - 1,
                    };
                    let workload = config.workloads[wi];
                    let fault = fault_sets[wi][i - offsets[wi]];
                    let t0 = Instant::now();
                    let (outcome, trace, cost) = inject(wi, fault);
                    let c = &counters[wi];
                    c.replayed_cycles.fetch_add(cost.replayed_cycles, Ordering::Relaxed);
                    c.skipped_cycles.fetch_add(cost.skipped_cycles, Ordering::Relaxed);
                    if config.checkpoint_interval.is_some() {
                        c.hit_distance_sum.fetch_add(cost.hit_distance, Ordering::Relaxed);
                        c.hit_distance_max.fetch_max(cost.hit_distance, Ordering::Relaxed);
                        if let Some(events) = &config.events {
                            // A fault past the golden runtime never restores
                            // a snapshot, so no hit to report for it.
                            if fault.cycle < captures[wi].run.cycles {
                                events.emit(&Event::CheckpointHit {
                                    workload: workload.name.to_owned(),
                                    inject_cycle: fault.cycle,
                                    checkpoint_cycle: cost.checkpoint_cycle,
                                    hit_distance: cost.hit_distance,
                                });
                            }
                        }
                    }
                    c.wall_nanos.fetch_add(elapsed_nanos(t0), Ordering::Relaxed);
                    if let Some(events) = &config.events {
                        events.emit(&Event::Inject {
                            workload: workload.name.to_owned(),
                            unit: fault.unit_for::<C>().name().to_owned(),
                            fault: fault.describe_for::<C>(),
                            cycle: fault.cycle,
                        });
                        match outcome {
                            Some((detect_cycle, dsr)) => events.emit(&Event::Detect {
                                workload: workload.name.to_owned(),
                                inject_cycle: fault.cycle,
                                detect_cycle,
                                dsr_bits: dsr.bits(),
                            }),
                            None => events.emit(&Event::Masked {
                                workload: workload.name.to_owned(),
                                inject_cycle: fault.cycle,
                            }),
                        }
                    }
                    if let Some((detect_cycle, dsr)) = outcome {
                        c.manifested.fetch_add(1, Ordering::Relaxed);
                        local.push((
                            wi,
                            ErrorRecord {
                                workload: workload.name.to_owned(),
                                unit_index: fault.unit_for::<C>().index() as u8,
                                fault: fault.kind.into(),
                                inject_cycle: fault.cycle,
                                detect_cycle,
                                dsr,
                            },
                            trace,
                        ));
                    }
                }
                sink.lock().expect("no poisoned workers").extend(local);
            });
        }
    });
    BatchCost::default()
}

/// One DME-mode injection: resolve the start (reset or nearest
/// checkpoint), build the **shifted** memory image for it, fast-forward
/// fault-free behind the DME translation (virtually identical to the
/// golden run — the `lockstep-mem` soundness anchor — so neither
/// comparison nor a separate golden capture is needed), then
/// overlay-step. Each retirement of the faulty copy is checked against
/// the next golden retire-stream entry; the first differing effect is
/// the detection, and further mismatch bits accumulate over the capture
/// window exactly like port-diff DSR bits do.
///
/// Divergences that never reach the retire interface are masked here
/// even if the per-cycle port comparison would catch them: DME only
/// observes architectural effects, which is the coverage trade the mode
/// makes in exchange for tolerating address-space diversity.
fn run_injection_dme_for<C: CoreModel>(
    start: ReplayStart<'_, C::State>,
    golden_retires: &[(u64, Retired)],
    trace_len: u64,
    fault: Fault,
    window: u32,
) -> (Option<(u64, Dsr)>, ReplayCost) {
    if fault.cycle >= trace_len {
        let cost = ReplayCost { skipped_cycles: trace_len, ..ReplayCost::default() };
        return (None, cost);
    }
    let (mut cpu, mut mem, start_cycle) = match start {
        ReplayStart::Reset { workload, stim_seed } => {
            (C::new(0), shift_image(&workload.memory(stim_seed), DEFAULT_DME_OFFSET_WORDS), 0)
        }
        ReplayStart::Checkpoint(checkpoints) => {
            let cp = checkpoints
                .nearest_at(fault.cycle)
                .expect("golden captures always include the cycle-0 checkpoint");
            (
                C::from_state(cp.cpu.clone()),
                shift_image(&cp.mem, DEFAULT_DME_OFFSET_WORDS),
                cp.cycle,
            )
        }
    };
    let mut ports = PortSet::new();
    let mut cost = ReplayCost {
        checkpoint_cycle: start_cycle,
        hit_distance: fault.cycle - start_cycle,
        replayed_cycles: 0,
        skipped_cycles: start_cycle,
    };

    let mut cycle = start_cycle;
    while cycle < fault.cycle {
        cpu.step(&mut DmePort::new(&mut mem, DEFAULT_DME_OFFSET_WORDS), &mut ports);
        cycle += 1;
        cost.replayed_cycles += 1;
    }

    // Retire-stream cursor as of the fault cycle: the fault-free prefix
    // retired exactly the golden entries below it.
    let mut idx = golden_retires.partition_point(|(c, _)| *c < fault.cycle);
    let mut compare = move |ports: &PortSet| -> u64 {
        let Some(r) = retired_of_ports(ports) else {
            return 0;
        };
        let diff = match golden_retires.get(idx) {
            Some((_, golden)) => retired_diff_mask(&r, golden),
            // The faulty copy retired past the end of the golden stream.
            None => stream_skew_mask(),
        };
        idx += 1;
        diff
    };

    let (detect_cycle, mut dsr_bits) = loop {
        if cycle >= trace_len {
            return (None, cost);
        }
        let at = cycle;
        let mut port = DmePort::new(&mut mem, DEFAULT_DME_OFFSET_WORDS);
        cpu.step_with_overlay(&mut port, &mut ports, |st| fault.overlay_for::<C>(st, at));
        cost.replayed_cycles += 1;
        cycle += 1;
        let diff = compare(&ports);
        if diff != 0 {
            break (at, diff);
        }
    };
    for _ in 1..window {
        if cycle >= trace_len {
            break;
        }
        let at = cycle;
        let mut port = DmePort::new(&mut mem, DEFAULT_DME_OFFSET_WORDS);
        cpu.step_with_overlay(&mut port, &mut ports, |st| fault.overlay_for::<C>(st, at));
        cost.replayed_cycles += 1;
        cycle += 1;
        dsr_bits |= compare(&ports);
    }
    (Some((detect_cycle, Dsr::from_bits(dsr_bits))), cost)
}

/// One injection experiment with an explicit DSR capture window: after
/// the first divergent cycle, per-SC divergences keep accumulating for
/// up to `window - 1` further cycles (clamped to the golden trace).
///
/// This is the from-reset reference path: it rebuilds the memory image
/// and replays every cycle from cycle 0 (pre-fault cycles without
/// comparison — the overlay is the identity there, and a deterministic
/// CPU from reset over the same image cannot diverge from its own
/// recording). Campaigns use [`run_injection_from_checkpoint`] instead,
/// which produces bit-identical results starting from a golden-run
/// snapshot.
pub fn run_injection_windowed(
    workload: &Workload,
    stim_seed: u64,
    golden_trace: &PortTrace,
    fault: Fault,
    window: u32,
) -> Option<(u64, Dsr)> {
    run_injection_engine::<Cpu, _, _>(
        ReplayStart::Reset { workload, stim_seed },
        golden_trace.len(),
        fault,
        window,
        &mut NoObserver,
        |_, _| RecordedGolden { trace: golden_trace },
    )
    .0
}

/// Replay-cost accounting for one checkpointed injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCost {
    /// Cycle of the checkpoint the replay resumed from.
    pub checkpoint_cycle: u64,
    /// Cycles replayed between the checkpoint and the injection cycle.
    pub hit_distance: u64,
    /// Faulty-CPU cycles actually simulated for this injection.
    pub replayed_cycles: u64,
    /// Cycles a from-reset replay would have simulated but this one
    /// did not.
    pub skipped_cycles: u64,
}

/// The golden reference an injection replay compares the faulty CPU
/// against each cycle. Campaigns use [`RecordedGolden`], the recorded
/// trace; the unit tests substitute live fault-free twin CPUs through
/// this seam (`campaign/replay_oracle.rs`). Monomorphized into the
/// engine, so shadow replay pays nothing for the abstraction.
trait GoldenRef {
    /// Advances the reference through one pre-fault cycle (no
    /// comparison needed: an exactly restored faulty core cannot
    /// diverge before the fault lands).
    fn advance(&mut self);
    /// Advances the reference through `cycle` and returns the faulty
    /// CPU's per-SC diff mask against it.
    fn diff_against(&mut self, cycle: u64, ports: &PortSet) -> u64;
}

/// The campaign's golden reference: the recorded golden port trace.
struct RecordedGolden<'a> {
    trace: &'a PortTrace,
}

impl GoldenRef for RecordedGolden<'_> {
    fn advance(&mut self) {}

    fn diff_against(&mut self, cycle: u64, ports: &PortSet) -> u64 {
        ports.diff_mask(self.trace.get(cycle).expect("cycle within golden trace"))
    }
}

/// Where an injection replay starts: from reset with a freshly built
/// memory image, or from the golden checkpoint nearest the fault.
enum ReplayStart<'a, S = CpuState> {
    /// Rebuild the workload's memory image and replay from cycle 0.
    Reset {
        /// The workload whose image to rebuild.
        workload: &'a Workload,
        /// Stimulus seed the golden trace was captured with.
        stim_seed: u64,
    },
    /// Restore the checkpoint at or below the fault cycle.
    Checkpoint(&'a GoldenCheckpoints<S>),
}

/// Hooks the consolidated injection engine calls as it steps the faulty
/// CPU. Monomorphized: an untraced replay instantiates [`NoObserver`]
/// and pays nothing for the abstraction.
trait ReplayObserver<C: CoreModel> {
    /// Called once with the faulty CPU as of the fault cycle, before
    /// the first compared step.
    fn begin(&mut self, cpu: &C);
    /// Called after every compared cycle `at` with its per-SC diff.
    fn observe(&mut self, at: u64, diff: u64, fault: Fault, cpu: &C);
}

/// The observer of a plain (untraced) replay: does nothing.
struct NoObserver;

impl<C: CoreModel> ReplayObserver<C> for NoObserver {
    fn begin(&mut self, _: &C) {}
    fn observe(&mut self, _: u64, _: u64, _: Fault, _: &C) {}
}

/// The divergence trace recorder as an engine observer: keeps the last
/// `pre_window` pre-detection samples in a ring, then every sample from
/// detection through the capture window. Each sample costs one
/// [`lockstep_cpu::CpuState`] diff (for the per-unit flip deltas),
/// which is why tracing is opt-in per campaign rather than always on.
struct TraceObserver<C: CoreModel = Cpu> {
    ring: TraceRing,
    samples: Vec<TraceSample>,
    prev: C::State,
    detected: bool,
    pre_window: u32,
}

impl<C: CoreModel> TraceObserver<C> {
    fn new(pre_window: u32) -> TraceObserver<C> {
        TraceObserver {
            ring: TraceRing::new(pre_window as usize),
            samples: Vec::new(),
            prev: C::reset_state(0),
            detected: false,
            pre_window,
        }
    }

    fn finish(self, detect_cycle: u64, window: u32) -> DivergenceTrace {
        DivergenceTrace {
            record: 0, // renumbered by `run_campaign` once the order is fixed
            pre_window: self.pre_window,
            capture_window: window,
            detect_cycle,
            samples: self.samples,
        }
    }
}

impl<C: CoreModel> ReplayObserver<C> for TraceObserver<C> {
    fn begin(&mut self, cpu: &C) {
        self.prev.clone_from(cpu.state());
    }

    fn observe(&mut self, at: u64, diff: u64, fault: Fault, cpu: &C) {
        let sample = TraceSample {
            cycle: at,
            diverged: diff,
            fault_active: fault_active(fault, at),
            unit_flips: flops::unit_flip_deltas_in(C::registry(), &self.prev, cpu.state()),
        };
        self.prev.clone_from(cpu.state());
        if self.detected {
            self.samples.push(sample);
        } else if diff != 0 {
            self.detected = true;
            self.samples = std::mem::replace(&mut self.ring, TraceRing::new(0)).into_samples();
            self.samples.push(sample);
        } else {
            self.ring.push(sample);
        }
    }
}

/// The single scalar injection engine behind the campaign's scalar path
/// and both `run_injection*` wrappers: resolve the start (reset or
/// nearest checkpoint),
/// fast-forward fault-free to the injection cycle, then overlay-step
/// against the golden reference until detection plus the capture
/// window, or the end of the replay domain.
///
/// Pre-fault cycles are replayed without comparison: the fault overlay is the identity before `fault.cycle`, and a
/// deterministic CPU resumed exactly (or reset over the same memory
/// image) cannot diverge from its own recording. A fault landing after
/// the benchmark halts is masked by construction and skips the replay
/// entirely.
fn run_injection_engine<C: CoreModel, G: GoldenRef, O: ReplayObserver<C>>(
    start: ReplayStart<'_, C::State>,
    trace_len: u64,
    fault: Fault,
    window: u32,
    observer: &mut O,
    make_golden: impl FnOnce(&C::State, &lockstep_mem::Memory) -> G,
) -> (Option<(u64, Dsr)>, ReplayCost) {
    if fault.cycle >= trace_len {
        let cost = ReplayCost { skipped_cycles: trace_len, ..ReplayCost::default() };
        return (None, cost);
    }
    let (mut cpu, mut mem, start_cycle) = match start {
        ReplayStart::Reset { workload, stim_seed } => (C::new(0), workload.memory(stim_seed), 0),
        ReplayStart::Checkpoint(checkpoints) => {
            let cp = checkpoints
                .nearest_at(fault.cycle)
                .expect("golden captures always include the cycle-0 checkpoint");
            (C::from_state(cp.cpu.clone()), cp.mem.clone(), cp.cycle)
        }
    };
    let mut golden = make_golden(cpu.state(), &mem);
    let mut ports = PortSet::new();
    let mut cost = ReplayCost {
        checkpoint_cycle: start_cycle,
        hit_distance: fault.cycle - start_cycle,
        replayed_cycles: 0,
        skipped_cycles: start_cycle,
    };

    let mut cycle = start_cycle;
    while cycle < fault.cycle {
        cpu.step(&mut mem, &mut ports);
        golden.advance();
        cycle += 1;
        cost.replayed_cycles += 1;
    }

    observer.begin(&cpu);
    let (detect_cycle, mut dsr_bits) = loop {
        if cycle >= trace_len {
            return (None, cost);
        }
        let at = cycle;
        cpu.step_with_overlay(&mut mem, &mut ports, |st| fault.overlay_for::<C>(st, at));
        cost.replayed_cycles += 1;
        cycle += 1;
        let diff = golden.diff_against(at, &ports);
        observer.observe(at, diff, fault, &cpu);
        if diff != 0 {
            break (at, diff);
        }
    };
    for _ in 1..window {
        if cycle >= trace_len {
            break;
        }
        let at = cycle;
        cpu.step_with_overlay(&mut mem, &mut ports, |st| fault.overlay_for::<C>(st, at));
        cost.replayed_cycles += 1;
        cycle += 1;
        let diff = golden.diff_against(at, &ports);
        dsr_bits |= diff;
        observer.observe(at, diff, fault, &cpu);
    }
    (Some((detect_cycle, Dsr::from_bits(dsr_bits))), cost)
}

/// One injection experiment resumed from the nearest golden checkpoint
/// at or before the injection cycle. Bit-identical to
/// [`run_injection_windowed`] (see the campaign equivalence property
/// test) at a cost proportional to `hit distance + detection latency +
/// capture window` instead of `inject cycle + detection latency`.
///
/// Pre-fault cycles are replayed without the fault overlay (it is the
/// identity there) and without golden-trace comparison (an exactly
/// restored core cannot diverge before the fault lands).
pub fn run_injection_from_checkpoint(
    checkpoints: &GoldenCheckpoints,
    golden_trace: &PortTrace,
    fault: Fault,
    window: u32,
) -> (Option<(u64, Dsr)>, ReplayCost) {
    run_injection_engine::<Cpu, _, _>(
        ReplayStart::Checkpoint(checkpoints),
        golden_trace.len(),
        fault,
        window,
        &mut NoObserver,
        |_, _| RecordedGolden { trace: golden_trace },
    )
}

/// Whether `fault`'s overlay is non-identity at `cycle`: a transient
/// only on its strike cycle, a stuck-at from its strike cycle onwards.
fn fault_active(fault: Fault, cycle: u64) -> bool {
    match fault.kind {
        FaultKind::Transient => cycle == fault.cycle,
        FaultKind::StuckAt0 | FaultKind::StuckAt1 => cycle >= fault.cycle,
    }
}

#[cfg(test)]
mod replay_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_fault::FaultKind;

    #[test]
    fn record_order_does_not_depend_on_production_order() {
        // Two records equal on everything but the fault kind: engines
        // and thread counts produce them in either order, and the
        // archive order must not follow.
        let record = |fault| ErrorRecord {
            workload: "rspeed".to_owned(),
            unit_index: 3,
            fault,
            inject_cycle: 1117,
            detect_cycle: 1127,
            dsr: Dsr::from_bits(41_975_808),
        };
        let a = record(lockstep_core::log::FaultKindRepr::Transient);
        let b = record(lockstep_core::log::FaultKindRepr::StuckAt1);
        let (forward, _) = order_produced(1, vec![(0, a.clone(), None), (0, b.clone(), None)]);
        let (backward, _) = order_produced(1, vec![(0, b, None), (0, a, None)]);
        assert_eq!(forward, backward);
    }

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
            faults_per_workload: 150,
            seed: 2024,
            threads: 4,
            capture_window: DEFAULT_CAPTURE_WINDOW,
            checkpoint_interval: Some(DEFAULT_CHECKPOINT_INTERVAL),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        }
    }

    #[test]
    fn campaign_produces_manifested_errors() {
        let res = run_campaign(&tiny_config());
        assert_eq!(res.injected, 300);
        assert!(!res.records.is_empty(), "some faults must manifest");
        assert!(res.records.len() < res.injected, "some faults must be masked");
        for r in &res.records {
            assert!(r.detect_cycle >= r.inject_cycle);
            assert!(!r.dsr.is_empty());
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&tiny_config());
        let b = run_campaign(&tiny_config());
        assert_eq!(a.records, b.records);
        assert_eq!(a.injected_per_unit, b.injected_per_unit);
    }

    #[test]
    fn hard_faults_manifest_more_than_soft() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 400;
        let res = run_campaign(&cfg);
        let manifested = res.manifested_per_unit();
        let injected = &res.injected_per_unit;
        let (mut soft_m, mut soft_i, mut hard_m, mut hard_i) = (0u64, 0u64, 0u64, 0u64);
        for u in 0..13 {
            soft_m += manifested[u][0];
            hard_m += manifested[u][1];
            soft_i += injected[u][0];
            hard_i += injected[u][1];
        }
        let soft_rate = soft_m as f64 / soft_i.max(1) as f64;
        let hard_rate = hard_m as f64 / hard_i.max(1) as f64;
        // Paper: 40% hard vs 5% soft. Our mini-CPU's state is a far
        // larger fraction architecturally hot than the R5's (which has
        // big cold buffer structures), so soft rates sit higher; the
        // invariant that drives the phenomenon is hard >> soft.
        assert!(
            hard_rate > 1.4 * soft_rate,
            "hard {hard_rate:.3} must clearly exceed soft {soft_rate:.3} (paper: 40% vs 5%)"
        );
    }

    #[test]
    fn manifestation_rates_have_unit_count_entries() {
        let res = run_campaign(&tiny_config());
        assert_eq!(res.manifestation_rates(Granularity::Coarse).len(), 7);
        assert_eq!(res.manifestation_rates(Granularity::Fine).len(), 13);
        let rates = res.manifestation_rates(Granularity::Coarse);
        assert!(rates.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn injection_agrees_with_live_harness() {
        // Cross-check: the golden-trace fast path and the live DMR
        // harness must detect the same fault at the same cycle.
        let w = Workload::find("rspeed").unwrap();
        let seed = 99;
        let trace = w.golden_trace(seed, 400_000);
        let flop = flops::all_flops().find(|f| flops::label_of(*f) == "PFU.pc.4").unwrap();
        let fault = Fault::new(flop, FaultKind::Transient, 500);

        // The first divergent cycle is bit-identical between the golden-
        // trace fast path and the live DMR harness. (Inside the capture
        // window the two models legitimately differ: the live redundant
        // CPU consumes the *faulted* main's bus responses, while the fast
        // path compares against the fault-free trace.)
        let fast = run_injection_windowed(w, seed, &trace, fault, 1).expect("must manifest");
        let windowed = run_injection_windowed(w, seed, &trace, fault, 8).expect("must manifest");
        assert_eq!(fast.0, windowed.0, "window must not change the detection cycle");
        assert_eq!(
            windowed.1.bits() & fast.1.bits(),
            fast.1.bits(),
            "windowed DSR accumulates on top of the first-cycle DSR"
        );

        let mut sys = lockstep_core::LockstepSystem::dmr(w.memory(seed));
        sys.set_capture_window(1);
        sys.inject(0, fault);
        match sys.run(400_000) {
            lockstep_core::LockstepEvent::ErrorDetected { dsr, cycle, .. } => {
                assert_eq!((cycle, dsr), fast, "fast path must match live lockstep");
            }
            other => panic!("live harness saw {other:?}"),
        }
    }

    #[test]
    fn restart_cycles_looked_up_per_workload() {
        let res = run_campaign(&tiny_config());
        assert!(res.restart_cycles("rspeed") > 1000);
        // Unknown workloads get the mean measured golden runtime, not a
        // magic constant.
        let mean = res.golden.iter().map(|(_, g)| g.cycles).sum::<u64>() / res.golden.len() as u64;
        assert_eq!(res.restart_cycles("missing"), mean);
    }

    #[test]
    fn stats_account_for_every_injection() {
        let res = run_campaign(&tiny_config());
        let s = &res.stats;
        assert_eq!(s.injected, 300);
        assert_eq!(s.manifested as usize, res.records.len());
        assert_eq!(s.injected, s.manifested + s.masked);
        assert_eq!(s.checkpoint_interval, DEFAULT_CHECKPOINT_INTERVAL);
        assert!(s.injections_per_sec > 0.0);
        assert!(s.wall_nanos >= s.injection_nanos);
        assert_eq!(s.per_workload.len(), 2);
        for w in &s.per_workload {
            assert_eq!(w.injected, 150);
            assert_eq!(w.injected, w.manifested + w.masked);
            assert!(w.checkpoint_count >= 1);
            assert!(w.checkpoint_bytes > 0);
            assert!(
                w.hit_distance_max
                    < DEFAULT_CHECKPOINT_INTERVAL + u64::from(DEFAULT_CAPTURE_WINDOW)
            );
            assert!(w.mean_hit_distance() <= w.hit_distance_max as f64);
            assert!(w.replayed_cycles > 0);
        }
        let manifested_sum: u64 = s.per_workload.iter().map(|w| w.manifested).sum();
        assert_eq!(manifested_sum, s.manifested);
    }

    #[test]
    fn tracing_preserves_records_and_reproduces_the_dsr() {
        let mut plain = tiny_config();
        plain.faults_per_workload = 60;
        let mut traced = plain.clone();
        traced.trace_window = Some(32);
        let a = run_campaign(&plain);
        let b = run_campaign(&traced);
        assert_eq!(a.records, b.records, "tracing must not perturb campaign results");
        assert!(a.traces.is_empty(), "untraced campaigns carry no trace blobs");
        assert_eq!(b.traces.len(), b.records.len(), "one trace slot per record");
        assert!(!b.records.is_empty(), "fixture must manifest errors");
        for (i, (r, t)) in b.records.iter().zip(&b.traces).enumerate() {
            let t = t.as_ref().expect("checkpointed tracing records every manifestation");
            assert_eq!(t.record, i as u64, "trace must be renumbered to its record");
            assert_eq!(t.detect_cycle, r.detect_cycle);
            assert_eq!(t.pre_window, 32);
            assert_eq!(t.capture_window, DEFAULT_CAPTURE_WINDOW);
            assert_eq!(
                t.final_dsr_bits(),
                r.dsr.bits(),
                "per-cycle DSR evolution must end in the record's DSR"
            );
            assert!(t.samples.iter().all(|s| s.cycle >= r.inject_cycle));
            assert!(t.capture_phase().count() <= DEFAULT_CAPTURE_WINDOW as usize);
            assert!(t.pre_detection().count() <= 32);
            // The detection-cycle sample must exist and diverge.
            let det = t.samples.iter().find(|s| s.cycle == r.detect_cycle).unwrap();
            assert_ne!(det.diverged, 0);
        }
    }

    #[test]
    fn campaign_emits_structured_events() {
        use lockstep_obs::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 40;
        cfg.events = Some(sink.clone());
        let res = run_campaign(&cfg);
        let events = sink.take();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("golden_pass"), 2, "one golden pass per workload");
        assert_eq!(count("inject"), res.injected);
        assert_eq!(count("detect"), res.records.len());
        assert_eq!(count("masked"), res.injected - res.records.len());
        assert_eq!(count("span"), 2, "golden_capture and injection phases");
        assert!(count("checkpoint_hit") <= res.injected);
        assert!(count("checkpoint_hit") > 0);
        for e in &events {
            if let Event::CheckpointHit { inject_cycle, checkpoint_cycle, hit_distance, .. } = e {
                assert_eq!(inject_cycle - checkpoint_cycle, *hit_distance);
                assert!(*hit_distance < DEFAULT_CHECKPOINT_INTERVAL);
            }
        }
    }

    #[test]
    fn restart_fallback_goes_through_the_event_log() {
        use lockstep_obs::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 10;
        cfg.events = Some(sink.clone());
        let res = run_campaign(&cfg);
        sink.take(); // discard campaign events; watch only the query below
        let mean = res.restart_cycles("missing");
        let events = sink.take();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::RestartFallback { workload, mean_cycles } => {
                assert_eq!(workload, "missing");
                assert_eq!(*mean_cycles, mean);
            }
            other => panic!("expected restart_fallback, got {other:?}"),
        }
        // Known workloads emit nothing.
        res.restart_cycles("rspeed");
        assert!(sink.take().is_empty());
    }

    #[test]
    fn batch_mode_reproduces_scalar_outcomes() {
        let scalar = run_campaign(&tiny_config());
        for layers in
            [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL]
        {
            let mut cfg = tiny_config();
            cfg.batch = Some(layers);
            let batched = run_campaign(&cfg);
            assert_eq!(scalar.records, batched.records, "`{}` records differ", layers.label());
            assert_eq!(scalar.injected_per_unit, batched.injected_per_unit);
            assert_eq!(batched.stats.batch_mode, layers.label());
        }
    }

    #[test]
    fn batch_counters_surface_the_savings() {
        let mut cfg = tiny_config();
        cfg.batch = Some(BatchConfig::FULL);
        let res = run_campaign(&cfg);
        let s = &res.stats;
        assert_eq!(s.batch_mode, "full");
        assert!(
            s.masked_early_out + s.parked_masked > 0,
            "a tiny campaign must retire some fault early"
        );
        assert!(s.lane_activations > 0, "manifesting faults need scalar lanes");
        assert!(s.render().contains("batch mode full"));
        // Scalar campaigns report no batch activity at all.
        let scalar = run_campaign(&tiny_config());
        assert_eq!(scalar.stats.batch_mode, "off");
        assert_eq!(scalar.stats.masked_early_out, 0);
        assert_eq!(scalar.stats.lane_activations, 0);
        assert!(!scalar.stats.render().contains("batch mode"));
    }

    #[test]
    fn tracing_downgrades_batch_to_scalar() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 60;
        cfg.batch = Some(BatchConfig::FULL);
        cfg.trace_window = Some(32);
        assert_eq!(cfg.effective_batch(), None);
        let res = run_campaign(&cfg);
        assert_eq!(res.stats.batch_mode, "off");
        assert_eq!(res.traces.len(), res.records.len(), "tracing must still work");
    }

    #[test]
    fn dynamic_mode_detects_identically_to_fixed() {
        // Dynamic lockstep changes only the recovery path; its
        // injection phase is the fixed scalar engine, so records match
        // bit-for-bit — and a requested batch engine is honestly
        // clamped off rather than silently diverging the provenance.
        let mut fixed = tiny_config();
        fixed.faults_per_workload = 60;
        let mut dynamic = fixed.clone();
        dynamic.redundancy = RedundancyMode::Dynamic;
        dynamic.batch = Some(BatchConfig::FULL);
        assert_eq!(dynamic.effective_batch(), None);
        let a = run_campaign(&fixed);
        let b = run_campaign(&dynamic);
        assert_eq!(a.records, b.records);
        assert_eq!(a.stats.redundancy, "fixed");
        assert_eq!(b.stats.redundancy, "dynamic");
        assert_eq!(b.stats.batch_mode, "off");
        assert!(b.stats.render().contains("redundancy: dynamic"));
    }

    #[test]
    fn dme_mode_is_deterministic_and_architectural() {
        use lockstep_cpu::retire_effect_mask;

        let mut cfg = tiny_config();
        cfg.faults_per_workload = 60;
        cfg.redundancy = RedundancyMode::Dme;
        let a = run_campaign(&cfg);
        assert!(!a.records.is_empty(), "some faults must reach the retire interface");
        for r in &a.records {
            assert!(r.detect_cycle >= r.inject_cycle);
            assert_eq!(
                r.dsr.bits() & !retire_effect_mask(),
                0,
                "DME DSRs live entirely in the retire-effect SC subset"
            );
        }
        assert_eq!(a.stats.redundancy, "dme");
        // Pure per-fault outcomes: thread count cannot perturb records.
        let mut serial = cfg.clone();
        serial.threads = 1;
        let b = run_campaign(&serial);
        assert_eq!(a.records, b.records);

        // DME observes only architectural (retired) effects, so it can
        // only ever detect a subset of what the per-cycle port compare
        // sees — never more, and never earlier.
        let mut port_cfg = cfg.clone();
        port_cfg.redundancy = RedundancyMode::Fixed;
        let ports = run_campaign(&port_cfg);
        assert!(a.records.len() <= ports.records.len());
        for r in &a.records {
            let twin = ports
                .records
                .iter()
                .find(|p| p.workload == r.workload && p.inject_cycle == r.inject_cycle)
                .expect("every DME detection manifests under port compare too");
            assert!(r.detect_cycle >= twin.detect_cycle);
        }
    }

    #[test]
    fn dme_mode_survives_checkpointing_off() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 30;
        cfg.redundancy = RedundancyMode::Dme;
        let on = run_campaign(&cfg);
        cfg.checkpoint_interval = None;
        let off = run_campaign(&cfg);
        assert_eq!(on.records, off.records, "checkpointing is a cost knob in DME mode too");
    }

    #[test]
    fn disabling_checkpoints_changes_cost_not_results() {
        let mut off = tiny_config();
        off.faults_per_workload = 40;
        off.checkpoint_interval = None;
        let mut on = off.clone();
        on.checkpoint_interval = Some(512);
        let res_off = run_campaign(&off);
        let res_on = run_campaign(&on);
        assert_eq!(res_off.records, res_on.records);
        assert_eq!(res_off.stats.checkpoint_interval, 0);
        assert_eq!(res_on.stats.checkpoint_interval, 512);
        assert!(res_off.stats.per_workload.iter().all(|w| w.checkpoint_count == 0));
        // The checkpointed run skips the pre-fault prefix.
        let skipped: u64 = res_on.stats.per_workload.iter().map(|w| w.skipped_cycles).sum();
        assert!(skipped > 0, "checkpointing must skip replay work");
    }
}
