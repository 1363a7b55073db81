//! The two campaign workloads.
//!
//! * `campaign_lr5` — the `repro_all` pipeline: an LR5 fixed-DMR
//!   campaign on the default batched engine over the 12 hand-written
//!   kernels, then every paper table and figure pass.
//! * `campaign_dme_lc` — an LR5 campaign with diverse-memory execution
//!   over the 8 compiled LC kernels: the scalar per-fault path with a
//!   checkpoint restore per fault, the shifted memory port and the
//!   retired-effect comparator; the batched engine never runs.
//!
//! Set-up (kernel assembly or compilation plus golden capture) is
//! repeated [`SETUP_REPS`] times and reported as a median. The measured
//! phase repeats campaign + passes until `--seconds` have elapsed (at
//! least [`MIN_REPS`] times) and reports means over repetitions: the
//! host's speed switches between a fast and a slow state every few
//! seconds, and a median over repetitions jumps from one state to the
//! other when the two are about equally common, while a mean moves only
//! with the share of time spent in each.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use lockstep_core::log::FaultKindRepr;
use lockstep_core::{Checker, Dsr, ErrorRecord, Predictor, PredictorConfig, RedundancyMode};
use lockstep_cpu::{Cpu, Granularity, PortSet};
use lockstep_eval::batch::run_batch_group;
use lockstep_eval::campaign::{run_injection_from_checkpoint, DEFAULT_CAPTURE_WINDOW};
use lockstep_eval::dataset::Dataset;
use lockstep_eval::experiments as exp;
use lockstep_eval::{run_campaign, BatchConfig, CampaignConfig, CampaignResult};
use lockstep_fault::{CampaignPlan, ErrorKind, Fault, PlanConfig};
use lockstep_workloads::{lc, GoldenCapture, Workload, DEFAULT_CHECKPOINT_INTERVAL};

use crate::trace;
use crate::util::{digest, mean, median, nproc, quantile, Report, Rng};
use crate::{Opts, DEFAULT_SEED, HELD_OUT_SEED};

/// Injections per kernel: 12 000 per repetition on `campaign_lr5`
/// (a quarter of the 48k reference plan, so a run holds several
/// repetitions), 800 on `campaign_dme_lc`.
const FAULTS_LR5: usize = 1000;
const FAULTS_DME: usize = 100;
const SETUP_REPS: usize = 15;
const MIN_REPS: usize = 3;
/// Table lookups per repetition for the predict latency metrics, timed
/// in batches: one lookup takes less time than reading the clock, and a
/// short batch's tail is set by whether a timer interrupt lands in it,
/// so a sample is the mean of [`LOOKUP_BATCH`] consecutive lookups.
const LOOKUPS_PER_REP: usize = 256_000;
const LOOKUP_BATCH: usize = 1024;
/// Faults re-run through the scalar oracle on `campaign_lr5`.
const ORACLE_SAMPLE: usize = 300;
/// Golden runs stop here (the campaign engine's bound).
const MAX_CYCLES: u64 = 400_000;

/// `(workload, seed, injected, manifested, record digest)` measured on
/// this benchmark's plan; any change to the physics changes them.
const REFERENCE: &[(&str, u64, usize, usize, u64)] = &[
    ("campaign_lr5", DEFAULT_SEED, 12000, 3696, 0x693a_5d53_0d44_bcb9),
    ("campaign_lr5", HELD_OUT_SEED, 12000, 3639, 0x8e5e_b51f_e9f4_8c63),
    ("campaign_dme_lc", DEFAULT_SEED, 800, 225, 0xc554_880f_6608_ff4b),
    ("campaign_dme_lc", HELD_OUT_SEED, 800, 224, 0x7737_3c8e_1cdb_76e8),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lr5,
    DmeLc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Lr5 => "campaign_lr5",
            Kind::DmeLc => "campaign_dme_lc",
        }
    }

    fn workloads(self) -> Vec<&'static Workload> {
        match self {
            Kind::Lr5 => Workload::all().iter().collect(),
            Kind::DmeLc => lc::all(),
        }
    }

    fn config(self, seed: u64, threads: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(
            match self {
                Kind::Lr5 => FAULTS_LR5,
                Kind::DmeLc => FAULTS_DME,
            },
            seed,
        );
        cfg.workloads = self.workloads();
        cfg.threads = threads;
        cfg.batch = Some(BatchConfig::FULL);
        if self == Kind::DmeLc {
            cfg.redundancy = RedundancyMode::Dme;
        }
        cfg
    }
}

/// The stimulus seed the campaign engine gives workload `wi`.
fn stim_seed(seed: u64, wi: usize) -> u64 {
    seed ^ ((wi as u64) << 32)
}

/// Runs `f` inside a span and returns its result with its wall time in
/// seconds.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::enter(name, None);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What one set-up cost: the work the campaign needs before its first
/// injection, per layer.
struct SetupCost {
    assemble_s: f64,
    compile_s: f64,
    capture_s: f64,
    retire_s: f64,
    total_s: f64,
    compiled_sources_match: bool,
}

fn setup_once(
    kind: Kind,
    workloads: &[&'static Workload],
    seed: u64,
    rep: usize,
) -> (Vec<GoldenCapture>, SetupCost) {
    let _span = trace::enter("setup", Some(rep as u64));
    let start = Instant::now();
    let (mut assemble_s, mut compile_s, mut capture_s, mut retire_s) = (0.0, 0.0, 0.0, 0.0);
    let mut compiled_sources_match = true;
    for w in workloads {
        if kind == Kind::DmeLc {
            let kernel = lc::parse_name(w.name).expect("lc workload names parse");
            let source = lc::source(kernel).expect("lc kernels have sources");
            let (asm, s) = timed("cc.compile", || lockstep_cc::compile(source));
            compile_s += s;
            let asm = asm.unwrap_or_else(|e| panic!("{kernel} failed to compile: {e}"));
            compiled_sources_match &= asm == w.source;
            let (program, s) = timed("asm.assemble", || lockstep_asm::assemble(&asm));
            assemble_s += s;
            program.unwrap_or_else(|e| panic!("{kernel} failed to assemble: {e}"));
        } else {
            let (_, s) = timed("asm.assemble", || w.assemble());
            assemble_s += s;
        }
    }
    let mut captures = Vec::with_capacity(workloads.len());
    for (wi, w) in workloads.iter().enumerate() {
        let (cap, s) = timed("workloads.golden_capture", || {
            w.golden_capture_for::<Cpu>(
                stim_seed(seed, wi),
                MAX_CYCLES,
                DEFAULT_CHECKPOINT_INTERVAL,
            )
        });
        capture_s += s;
        if kind == Kind::DmeLc {
            let (stream, s) =
                timed("dme.retire_stream", || lockstep_eval::dme::retire_stream(&cap.trace));
            retire_s += s;
            std::hint::black_box(stream);
        }
        captures.push(cap);
    }
    let cost = SetupCost {
        assemble_s,
        compile_s,
        capture_s,
        retire_s,
        total_s: start.elapsed().as_secs_f64(),
        compiled_sources_match,
    };
    (captures, cost)
}

/// Every paper table and figure pass, in `repro_all` order, each in its
/// own span. Returns the coarse Figure 10 predictor and per-pass times.
fn paper_passes(result: &CampaignResult, seed: u64) -> (Predictor, Vec<(&'static str, f64)>) {
    let c = Granularity::Coarse;
    let f = Granularity::Fine;
    let mut times = Vec::new();
    let mut keep = |name: &'static str, s: f64| times.push((name, s));
    let (_, s) = timed("exp.tab1", || exp::tab1::run(result));
    keep("exp.tab1_ms", s);
    let (_, s) = timed("exp.tab2", || exp::tab2::run(result, c));
    keep("exp.tab2_ms", s);
    let (_, s) = timed("exp.fig45", || {
        exp::fig45::run_signatures(result, c, ErrorKind::Hard);
        exp::fig45::run_signatures(result, c, ErrorKind::Soft);
        exp::fig45::run_type_evidence(result, c)
    });
    keep("exp.fig45_ms", s);
    let ((predictor, _), s) = timed("exp.fig10", || exp::fig10::run(result, c, 12));
    keep("exp.fig10_ms", s);
    let (_, s) = timed("exp.fig11", || {
        exp::fig11::run(result, c, seed);
        exp::fig11::run(result, f, seed)
    });
    keep("exp.fig11_ms", s);
    let (_, s) = timed("exp.tab3", || exp::tab3::run(result, seed));
    keep("exp.tab3_ms", s);
    let (_, s) = timed("exp.sec5b", || exp::sec5b::run(result, seed));
    keep("exp.sec5b_ms", s);
    let (_, s) = timed("exp.topk", || {
        let coarse = exp::topk::sweep(result, c, seed);
        let fine = exp::topk::sweep(result, f, seed);
        (
            exp::topk::render_accuracy(&coarse, c),
            exp::topk::render_lert(&coarse, c),
            exp::topk::render_accuracy(&fine, f),
            exp::topk::render_lert(&fine, f),
        )
    });
    keep("exp.topk_ms", s);
    let (_, s) = timed("exp.tab4", || exp::tab4::run(11));
    keep("exp.tab4_ms", s);
    let (_, s) = timed("exp.ablation", || {
        exp::ablation::run_dynamic(result, seed);
        exp::ablation::run_lbist(result, c, 64, seed)
    });
    keep("exp.ablation_ms", s);
    (predictor, times)
}

/// DSRs to diagnose: half drawn from the campaign's own records (table
/// hits), half random signatures (mostly misses).
fn query_dsrs(records: &[ErrorRecord], rng: &mut Rng, n: usize) -> Vec<Dsr> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 && !records.is_empty() {
                records[rng.below(records.len())].dsr
            } else {
                Dsr::from_bits(rng.dsr())
            }
        })
        .collect()
}

/// Per-repetition measurements.
struct Rep {
    faults_per_s: f64,
    injection_s: f64,
    job_s: f64,
    /// Median over this repetition's lookup batches.
    lookup_p50_ms: f64,
    repro_s: f64,
    digest: u64,
    manifested: usize,
    injected: usize,
    ns_per_cycle: f64,
    passes: Vec<(&'static str, f64)>,
}

/// Injections per second of injection phase over all repetitions.
fn run_rate(reps: &[Rep]) -> f64 {
    let injected: usize = reps.iter().map(|r| r.injected).sum();
    injected as f64 / reps.iter().map(|r| r.injection_s).sum::<f64>()
}

pub fn run(kind: Kind, opts: Opts) -> Report {
    let mut report = Report::default();
    let seed = opts.seed;
    let workloads = kind.workloads();
    let threads = nproc();

    // ---- set-up -------------------------------------------------------
    // Each repetition's captures are dropped before the next is built;
    // the last ones serve the checks and probes.
    let mut costs = Vec::with_capacity(SETUP_REPS);
    let mut captures = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(std::mem::take(&mut captures));
        let (c, cost) = setup_once(kind, &workloads, seed, rep);
        captures = c;
        costs.push(cost);
    }
    let setup_s = median(&costs.iter().map(|c| c.total_s).collect::<Vec<_>>());
    report.check(costs.iter().all(|c| c.compiled_sources_match), || {
        "compiled LC sources differ from the interned workloads".to_owned()
    });

    // ---- measured phase -----------------------------------------------
    let cfg = kind.config(seed, threads);
    let mut rng = Rng::new(seed, 1);
    let mut reps: Vec<Rep> = Vec::new();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut first: Option<CampaignResult> = None;
    let phase = Instant::now();
    while reps.len() < MIN_REPS || phase.elapsed() < opts.seconds {
        let _rep_span = trace::enter("repro", Some(reps.len() as u64));
        let start = Instant::now();
        let (result, job_s) = timed("campaign", || run_campaign(&cfg));
        let (predictor, passes) = paper_passes(&result, seed);
        let repro_s = start.elapsed().as_secs_f64();
        drop(_rep_span);

        let queries = query_dsrs(&result.records, &mut rng, LOOKUPS_PER_REP);
        let batches = latencies_ms.len();
        for batch in queries.chunks(LOOKUP_BATCH) {
            let t = Instant::now();
            for &dsr in batch {
                std::hint::black_box(predictor.predict(dsr));
            }
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64);
        }
        let replayed: u64 = result.stats.per_workload.iter().map(|w| w.replayed_cycles).sum();
        reps.push(Rep {
            faults_per_s: result.stats.injections_per_sec,
            injection_s: result.stats.injection_nanos as f64 / 1e9,
            job_s,
            lookup_p50_ms: median(&latencies_ms[batches..]),
            repro_s,
            digest: digest(&result.records),
            manifested: result.records.len(),
            injected: result.injected,
            ns_per_cycle: result.stats.injection_nanos as f64 / replayed.max(1) as f64,
            passes,
        });
        if first.is_none() {
            first = Some(result);
        }
    }
    let result = first.expect("at least one repetition");
    report.attempted = reps.iter().map(|r| r.injected as u64).sum();
    report.notes.push(format!(
        "{}: {} repetitions of {} injections over {} kernels, {} threads; {} lookup batches timed",
        kind.name(),
        reps.len(),
        result.injected,
        workloads.len(),
        threads,
        latencies_ms.len()
    ));

    report.notes.push(format!(
        "faults/s per repetition: {:?}",
        reps.iter().map(|r| r.faults_per_s.round()).collect::<Vec<_>>()
    ));

    let peak_heap_mb = crate::heap::peak_mb();

    // ---- output checks --------------------------------------------------
    check_outputs(kind, seed, &workloads, &captures, &result, &reps, &mut report);

    // ---- metrics --------------------------------------------------------
    let avg = |f: fn(&Rep) -> f64| mean(&reps.iter().map(f).collect::<Vec<_>>());
    report.end_to_end(
        opts.traced,
        &[
            ("peak_heap_mb", peak_heap_mb),
            ("faults_per_s", run_rate(&reps)),
            ("repro_s", avg(|r| r.repro_s)),
            ("job_s", avg(|r| r.job_s)),
            ("predict_p50_ms", avg(|r| r.lookup_p50_ms)),
            ("setup_s", setup_s),
        ],
    );
    if !opts.traced {
        return report;
    }
    report.metric("predict.p90_ms", quantile(&latencies_ms, 0.90));
    report.metric("predict.p99_ms", quantile(&latencies_ms, 0.99));
    layer_probes(kind, seed, &workloads, &captures, &costs, &result, &reps, &mut report);
    report
}

fn check_outputs(
    kind: Kind,
    seed: u64,
    workloads: &[&'static Workload],
    captures: &[GoldenCapture],
    result: &CampaignResult,
    reps: &[Rep],
    report: &mut Report,
) {
    let first = &reps[0];
    report.check(reps.iter().all(|r| r.digest == first.digest), || {
        "record streams differ between repetitions of the same campaign".to_owned()
    });
    report.note_reference(kind.name(), seed, first);

    // The benchmark's own golden captures must be the campaign's.
    for ((name, run), cap) in result.golden.iter().zip(captures) {
        report.check(*run == cap.run, || {
            format!("{name}: golden run differs from the set-up capture")
        });
    }

    // Every record belongs to a planned fault of its workload.
    let plans = plan_all(kind, seed, captures);
    let mut planned: HashMap<(&str, u8, u8, u64), usize> = HashMap::new();
    for (w, plan) in workloads.iter().zip(&plans) {
        for f in plan.faults() {
            *planned.entry(fault_key(w.name, f)).or_default() += 1;
        }
    }
    let strays = result
        .records
        .iter()
        .filter(|r| {
            r.detect_cycle < r.inject_cycle
                || !planned.contains_key(&(
                    r.workload.as_str(),
                    r.unit_index,
                    r.fault as u8,
                    r.inject_cycle,
                ))
        })
        .count();
    report.check(strays == 0, || format!("{strays} records match no planned fault"));
    report.check(result.injected == plans.iter().map(CampaignPlan::len).sum::<usize>(), || {
        "injection count differs from the plan".to_owned()
    });

    match kind {
        Kind::Lr5 => scalar_oracle(seed, workloads, captures, result, &plans, &planned, report),
        Kind::DmeLc => {
            // The LC ports of two hand-written kernels must publish the
            // same outputs as the originals under this run's stimulus.
            for kernel in ["rspeed", "canrdr"] {
                let port = lc::compiled(kernel).expect("anchor kernel");
                let hand = Workload::find(kernel).expect("hand-written kernel");
                let a = port.golden_run(seed, MAX_CYCLES);
                let b = hand.golden_run(seed, MAX_CYCLES);
                report.check(
                    a.output_checksum == b.output_checksum && a.outputs == b.outputs,
                    || format!("lc_{kernel} output checksum differs from {kernel} at seed {seed}"),
                );
            }
        }
    }
}

fn fault_key<'a>(workload: &'a str, f: &Fault) -> (&'a str, u8, u8, u64) {
    (workload, f.unit_for::<Cpu>().index() as u8, FaultKindRepr::from(f.kind) as u8, f.cycle)
}

fn plan_all(kind: Kind, seed: u64, captures: &[GoldenCapture]) -> Vec<CampaignPlan> {
    let faults = kind.config(seed, 1).faults_per_workload;
    captures
        .iter()
        .enumerate()
        .map(|(wi, cap)| {
            CampaignPlan::sampled_for::<Cpu>(
                PlanConfig::new(cap.run.cycles, seed.wrapping_add(wi as u64)),
                faults,
            )
        })
        .collect()
}

/// Re-runs a seeded sample of the plan through the scalar per-fault
/// engine and requires the batched campaign to agree on each outcome.
fn scalar_oracle(
    seed: u64,
    workloads: &[&'static Workload],
    captures: &[GoldenCapture],
    result: &CampaignResult,
    plans: &[CampaignPlan],
    planned: &HashMap<(&str, u8, u8, u64), usize>,
    report: &mut Report,
) {
    let recorded: HashSet<(&str, u8, u8, u64, u64, u64)> = result
        .records
        .iter()
        .map(|r| {
            (
                r.workload.as_str(),
                r.unit_index,
                r.fault as u8,
                r.inject_cycle,
                r.detect_cycle,
                r.dsr.bits(),
            )
        })
        .collect();
    let recorded_key: HashSet<(&str, u8, u8, u64)> =
        recorded.iter().map(|&(w, u, k, c, _, _)| (w, u, k, c)).collect();
    let mut rng = Rng::new(seed, 2);
    let mut mismatches = 0;
    for _ in 0..ORACLE_SAMPLE {
        let wi = rng.below(workloads.len());
        let plan = plans[wi].faults();
        let fault = plan[rng.below(plan.len())];
        let cap = &captures[wi];
        let (outcome, _) = run_injection_from_checkpoint(
            &cap.checkpoints,
            &cap.trace,
            fault,
            DEFAULT_CAPTURE_WINDOW,
        );
        let key = fault_key(workloads[wi].name, &fault);
        let agrees = match outcome {
            Some((detect, dsr)) => {
                recorded.contains(&(key.0, key.1, key.2, key.3, detect, dsr.bits()))
            }
            // A masked fault leaves no record, unless another planned
            // fault shares its unit, kind and cycle.
            None => !recorded_key.contains(&key) || planned[&key] > 1,
        };
        if !agrees {
            mismatches += 1;
        }
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} of {ORACLE_SAMPLE} sampled faults disagree with the scalar oracle")
    });
}

impl Report {
    /// Checks the stored reference digest when the seed has one, and
    /// records the measured values either way.
    fn note_reference(&mut self, workload: &str, seed: u64, rep: &Rep) {
        self.notes.push(format!(
            "reference: (\"{workload}\", {seed}, {}, {}, {:#018x})",
            rep.injected, rep.manifested, rep.digest
        ));
        if let Some(&(_, _, injected, manifested, digest)) =
            REFERENCE.iter().find(|r| r.0 == workload && r.1 == seed)
        {
            self.check(
                injected == rep.injected && manifested == rep.manifested && digest == rep.digest,
                || {
                    format!(
                        "seed {seed}: {} injected / {} manifested / digest {:#018x}, \
                         reference {injected} / {manifested} / {digest:#018x}",
                        rep.injected, rep.manifested, rep.digest
                    )
                },
            );
        }
    }
}

/// Per-layer measurements of the traced run, each timed around one
/// public call.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    kind: Kind,
    seed: u64,
    workloads: &[&'static Workload],
    captures: &[GoldenCapture],
    costs: &[SetupCost],
    result: &CampaignResult,
    reps: &[Rep],
    report: &mut Report,
) {
    let setup_med = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("asm.assemble_ms", setup_med(|s| s.assemble_s) * 1e3);
    m.insert("cc.compile_ms", setup_med(|s| s.compile_s) * 1e3);
    m.insert("workloads.golden_capture_ms", setup_med(|s| s.capture_s) * 1e3);
    m.insert("dme.retire_stream_ms", setup_med(|s| s.retire_s) * 1e3);
    if kind == Kind::Lr5 {
        // `campaign_dme_lc` is not among the benchmark's workloads, so
        // the LC compiler and the retire-stream builder are probed here,
        // on `campaign_dme_lc`'s set-up.
        let _span = trace::enter("probe.lc_setup", None);
        let lc = Kind::DmeLc.workloads();
        let lc_costs: Vec<SetupCost> =
            (0..5).map(|rep| setup_once(Kind::DmeLc, &lc, seed, rep).1).collect();
        let lc_med = |f: fn(&SetupCost) -> f64| median(&lc_costs.iter().map(f).collect::<Vec<_>>());
        m.insert("cc.compile_ms", lc_med(|s| s.compile_s) * 1e3);
        m.insert("dme.retire_stream_ms", lc_med(|s| s.retire_s) * 1e3);
        report.check(lc_costs.iter().all(|c| c.compiled_sources_match), || {
            "compiled LC sources differ from the interned workloads".to_owned()
        });
    }
    let checkpoint_bytes: usize = captures.iter().map(|c| c.checkpoints.approx_bytes()).sum();
    m.insert("workloads.checkpoint_kib", checkpoint_bytes as f64 / 1024.0);

    let plan_ms: Vec<f64> =
        (0..5).map(|_| timed("fault.plan", || plan_all(kind, seed, captures)).1 * 1e3).collect();
    m.insert("fault.plan_ms", median(&plan_ms));

    // Per-cycle cost of the pipeline: fault-free golden runs.
    let step_ns: Vec<f64> = (0..3)
        .map(|_| {
            let _span = trace::enter("cpu.golden_run", None);
            let t = Instant::now();
            let cycles: u64 = workloads
                .iter()
                .enumerate()
                .map(|(wi, w)| w.golden_run_for::<Cpu>(stim_seed(seed, wi), MAX_CYCLES).cycles)
                .sum();
            t.elapsed().as_nanos() as f64 / cycles as f64
        })
        .collect();
    m.insert("cpu.lr5_step_ns", median(&step_ns));

    // Checkpoint image clones (one per restore).
    let mut clone_us = Vec::new();
    for cap in captures {
        for point in &cap.checkpoints.points {
            let _span = trace::enter("mem.image_clone", None);
            for _ in 0..5 {
                let t = Instant::now();
                let image = point.mem.clone();
                clone_us.push(t.elapsed().as_secs_f64() * 1e6);
                drop(std::hint::black_box(image));
            }
        }
    }
    m.insert("mem.image_clone_us", median(&clone_us));

    // Port compare on golden port sets: equal (the common case) and
    // differing (adjacent cycles), timed in batches.
    if kind == Kind::Lr5 {
        let sets: Vec<PortSet> = captures[0].trace.iter().take(20_001).cloned().collect();
        let _span = trace::enter("core.compare", None);
        let mut per_ns = Vec::new();
        for chunk in sets.windows(2).collect::<Vec<_>>().chunks(1000) {
            let t = Instant::now();
            let mut diverged = 0u32;
            for pair in chunk {
                diverged += u32::from(Checker::compare(&pair[0], &pair[0]).is_some());
                diverged += u32::from(Checker::compare(&pair[0], &pair[1]).is_some());
            }
            std::hint::black_box(diverged);
            per_ns.push(t.elapsed().as_nanos() as f64 / (2 * chunk.len()) as f64);
        }
        m.insert("core.compare_ns", median(&per_ns));
    }

    // Table training and lookup on this campaign's records.
    let records: Vec<&ErrorRecord> = result.records.iter().collect();
    let train = Dataset::to_train_records(&records, Granularity::Coarse);
    let mut train_ms = Vec::new();
    let mut predictor = None;
    for _ in 0..5 {
        let (p, s) = timed("core.train", || {
            Predictor::train(&train, PredictorConfig::new(Granularity::Coarse))
        });
        train_ms.push(s * 1e3);
        predictor = Some(p);
    }
    m.insert("core.train_ms", median(&train_ms));
    let predictor = predictor.expect("trained");
    let dsrs = query_dsrs(&result.records, &mut Rng::new(seed, 3), 10_000);
    let lookup_ns: Vec<f64> = (0..9)
        .map(|_| {
            let _span = trace::enter("core.lookup", None);
            let t = Instant::now();
            for &d in &dsrs {
                std::hint::black_box(predictor.predict(d));
            }
            t.elapsed().as_nanos() as f64 / dsrs.len() as f64
        })
        .collect();
    m.insert("core.lookup_ns", median(&lookup_ns));

    // Campaign engine counters (identical on every repetition).
    let stats = &result.stats;
    let replayed: u64 = stats.per_workload.iter().map(|w| w.replayed_cycles).sum();
    m.insert("campaign.replayed_mcycles", replayed as f64 / 1e6);
    m.insert(
        "campaign.ns_per_cycle",
        median(&reps.iter().map(|r| r.ns_per_cycle).collect::<Vec<_>>()),
    );
    m.insert("campaign.manifested", result.records.len() as f64);
    let at_nproc = run_rate(&reps);
    let (single, _) = timed("campaign.one_thread", || run_campaign(&kind.config(seed, 1)));
    m.insert("campaign.thread_scaling", at_nproc / single.stats.injections_per_sec);
    report.check(digest(&single.records) == reps[0].digest, || {
        "one-thread campaign records differ from the multi-thread ones".to_owned()
    });

    // The batch-mode ladder: same campaign, one layer set at a time.
    let ladder = [
        ("batch.off_ms", None),
        ("batch.fanout_ms", Some(BatchConfig::FAN_OUT)),
        ("batch.earlyout_ms", Some(BatchConfig::EARLY_OUT)),
        ("batch.lanes_ms", Some(BatchConfig::LANES)),
        ("batch.full_ms", Some(BatchConfig::FULL)),
    ];
    for (name, layers) in ladder {
        let mut cfg = kind.config(seed, nproc());
        cfg.batch = layers;
        let (r, _) = timed("campaign.ladder", || run_campaign(&cfg));
        m.insert(name, r.stats.injection_nanos as f64 / 1e6);
        report.check(digest(&r.records) == reps[0].digest, || {
            format!("{name}: batch layers changed the record stream")
        });
    }
    m.insert("batch.lane_activations", stats.lane_activations as f64);
    m.insert("batch.masked_early_out", stats.masked_early_out as f64);
    m.insert("batch.parked_masked", stats.parked_masked as f64);
    m.insert(
        "batch.useful_lane_ratio",
        if stats.lane_activations > 0 {
            result.records.len() as f64 / stats.lane_activations as f64
        } else {
            0.0
        },
    );

    // One batched group per checkpoint span, as the engine cuts them.
    if kind == Kind::Lr5 {
        let plans = plan_all(kind, seed, captures);
        let mut group_ms = Vec::new();
        for (cap, plan) in captures.iter().zip(&plans) {
            let mut groups: BTreeMap<u64, Vec<Fault>> = BTreeMap::new();
            for f in plan.faults() {
                let at = cap.checkpoints.nearest_at(f.cycle).map_or(0, |p| p.cycle);
                groups.entry(at).or_default().push(*f);
            }
            for faults in groups.values() {
                let (_, s) = timed("batch.group", || {
                    run_batch_group(
                        &cap.checkpoints,
                        &cap.trace,
                        faults,
                        DEFAULT_CAPTURE_WINDOW,
                        BatchConfig::FULL,
                    )
                });
                group_ms.push(s * 1e3);
            }
        }
        m.insert("batch.group_ms_p99", quantile(&group_ms, 0.99));
    }

    for name in [
        "exp.tab1_ms",
        "exp.tab2_ms",
        "exp.fig45_ms",
        "exp.fig10_ms",
        "exp.fig11_ms",
        "exp.tab3_ms",
        "exp.sec5b_ms",
        "exp.topk_ms",
        "exp.tab4_ms",
        "exp.ablation_ms",
    ] {
        let per_rep: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.passes.iter().find(|(n, _)| *n == name).map(|(_, s)| s * 1e3))
            .collect();
        m.insert(name, median(&per_rep));
    }

    for (name, value) in m {
        report.metric(name, value);
    }
}
