//! The live golden twin, kept as the test oracle for shadow replay.
//!
//! Campaigns compare each faulty CPU against the recorded golden port
//! trace ([`RecordedGolden`]). The paper's checker compares it against
//! fault-free CPUs running in lockstep beside it (Figure 1a). The two
//! are identical by construction: a fault-free twin restored from the
//! same snapshot over its own copy of the same memory re-produces the
//! recorded trace cycle for cycle. These tests keep that argument
//! honest. Every planned fault is replayed through the one engine
//! against the recording and against one and two live twins (DMR and
//! TMR), untraced and traced, from checkpoints 512 and 4096 cycles
//! apart and from the cycle-0 snapshot alone, on both cores. Outcomes
//! and divergence traces must be identical.

use lockstep_mem::Memory;

use super::*;

/// Live fault-free golden twins, each driving its own clone of the
/// start memory (board-level lockstep, Figure 1a).
struct TwinGolden<C: CoreModel> {
    twins: Vec<(C, Memory)>,
}

impl<C: CoreModel> TwinGolden<C> {
    fn new(state: &C::State, mem: &Memory, count: usize) -> TwinGolden<C> {
        TwinGolden {
            twins: (0..count).map(|_| (C::from_state(state.clone()), mem.clone())).collect(),
        }
    }
}

impl<C: CoreModel> GoldenRef for TwinGolden<C> {
    fn advance(&mut self) {
        let mut ports = PortSet::new();
        for (cpu, mem) in &mut self.twins {
            cpu.step(mem, &mut ports);
        }
    }

    fn diff_against(&mut self, cycle: u64, ports: &PortSet) -> u64 {
        // Every twin is fault-free, drives a private memory and resumed
        // from the same snapshot, so all agree cycle for cycle: the
        // majority compare against the faulty CPU degenerates to a
        // pairwise diff with any one twin.
        let mut first: Option<PortSet> = None;
        for (cpu, mem) in &mut self.twins {
            let mut tp = PortSet::new();
            cpu.step(mem, &mut tp);
            match &first {
                Some(f) => assert_eq!(tp.diff_mask(f), 0, "fault-free twins diverged at {cycle}"),
                None => first = Some(tp),
            }
        }
        ports.diff_mask(&first.expect("at least one twin"))
    }
}

const SEED: u64 = 2024;
const WINDOW: u32 = DEFAULT_CAPTURE_WINDOW;
const PRE_WINDOW: u32 = 32;

/// One fault's outcome and divergence trace (`None` untraced) against
/// the golden reference `golden` builds.
type Replay = (Option<(u64, Dsr)>, Option<DivergenceTrace>);

fn replay<C: CoreModel, G: GoldenRef>(
    cap: &GoldenCapture<C::State>,
    fault: Fault,
    pre_window: Option<u32>,
    golden: impl FnOnce(&C::State, &Memory) -> G,
) -> Replay {
    let start = ReplayStart::Checkpoint(&cap.checkpoints);
    let len = cap.trace.len();
    match pre_window {
        Some(pre) => {
            let mut observer = TraceObserver::<C>::new(pre);
            let (out, _) =
                run_injection_engine::<C, _, _>(start, len, fault, WINDOW, &mut observer, golden);
            (out, out.map(|(cycle, _)| observer.finish(cycle, WINDOW)))
        }
        None => {
            let (out, _) =
                run_injection_engine::<C, _, _>(start, len, fault, WINDOW, &mut NoObserver, golden);
            (out, None)
        }
    }
}

/// Replays `faults` planned faults per workload at every checkpoint
/// spacing in `intervals` against the recording and against one and two
/// live twins, untraced and traced, and requires identical results.
fn shadow_matches_live_twins<C: CoreModel>(
    workloads: &[&'static Workload],
    intervals: &[u64],
    faults: usize,
) {
    let mut manifested = 0;
    for (wi, workload) in workloads.iter().enumerate() {
        let name = workload.name;
        let stim_seed = SEED ^ (wi as u64) << 32;
        for &interval in intervals {
            let cap = workload.golden_capture_for::<C>(stim_seed, 400_000, interval);
            let plan = CampaignPlan::sampled_for::<C>(
                PlanConfig::new(cap.run.cycles, SEED + wi as u64),
                faults,
            );
            for &fault in plan.faults() {
                for pre_window in [None, Some(PRE_WINDOW)] {
                    let shadow = replay::<C, _>(&cap, fault, pre_window, |_, _| RecordedGolden {
                        trace: &cap.trace,
                    });
                    for twins in [1, 2] {
                        let live = replay::<C, _>(&cap, fault, pre_window, |state, mem| {
                            TwinGolden::<C>::new(state, mem, twins)
                        });
                        assert_eq!(
                            shadow,
                            live,
                            "{} {name}: {} (checkpoint interval {interval}, {twins} twin(s), \
                             trace window {pre_window:?})",
                            C::NAME,
                            fault.describe_for::<C>(),
                        );
                    }
                    manifested += usize::from(shadow.0.is_some());
                }
            }
        }
    }
    assert!(manifested > 0, "the oracle must see manifested faults");
}

/// Checkpoints 512 and 4096 cycles apart, and the cycle-0 snapshot alone
/// (`u64::MAX` spacing, so every fault replays its whole prefix).
const ANCHOR_INTERVALS: [u64; 3] = [512, 4096, u64::MAX];

fn anchor_pair() -> Vec<&'static Workload> {
    ["rspeed", "idctrn"].map(|n| Workload::find(n).unwrap()).to_vec()
}

#[test]
fn lr5_shadow_replay_matches_live_twins() {
    shadow_matches_live_twins::<Cpu>(&anchor_pair(), &ANCHOR_INTERVALS, 40);
}

#[test]
fn lr7_shadow_replay_matches_live_twins() {
    shadow_matches_live_twins::<Lr7>(&anchor_pair(), &ANCHOR_INTERVALS, 40);
}

/// Full-suite sweep, tier-2 only: every hand-written kernel on the LR5
/// at the default checkpoint spacing.
#[cfg(feature = "slow-tests")]
#[test]
#[ignore = "full-suite sweep; run with --features slow-tests -- --ignored"]
fn full_suite_shadow_replay_matches_live_twins() {
    let workloads: Vec<&'static Workload> = Workload::all().iter().collect();
    shadow_matches_live_twins::<Cpu>(&workloads, &[DEFAULT_CHECKPOINT_INTERVAL], 100);
}
