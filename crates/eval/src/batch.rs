//! The batched fault-simulation engine: many faults per golden replay.
//!
//! The scalar engines in [`campaign`](crate::campaign) pay one full
//! replay — checkpoint restore, fast-forward, overlay-step to detection
//! or trace end — per injection. But every experiment in a campaign is a
//! tiny perturbation of the *same* golden execution, which this engine
//! exploits with three cooperating layers (each independently togglable
//! via [`BatchConfig`]):
//!
//! 1. **Fan-out from checkpoint** — the fault list is sorted by strike
//!    cycle and grouped by the checkpoint span it restores from. One
//!    fault-free *walker* CPU replays each span once; every fault forks
//!    a faulty machine (a *lane*) off the walker's committed state at
//!    its strike cycle, so the group shares a single restore and a
//!    single pre-fault fast-forward instead of one per injection.
//!    Lanes are *memoryless*: while a lane's port activity still
//!    matches golden its memory image is provably identical to the
//!    walker's, so it executes against the walker's image through a
//!    side-effect-free [`TrialView`] and only forks a private copy at
//!    the moment it first diverges (to run its DSR capture window).
//! 2. **Dirty-set early-out** — after a transient strikes, its lane is
//!    compared against the walker's state with a witnessed scan
//!    ([`lockstep_cpu::dirty::converged`]) every cycle. The moment the
//!    dirty set is seen empty the fault is provably masked for the
//!    rest of the run (see the soundness argument in DESIGN.md §10)
//!    and the lane is retired instead of simulating to the end of the
//!    trace. A lane whose residue is *confined to the quiet set* — the
//!    register file, the return-address stack, the software-visible
//!    CSRs and the two counters ([`lockstep_cpu::dirty::quiet_confined`])
//!    — goes one step further: every read and write of that state is
//!    decodable from golden's pre-cycle state, so the lane is parked at
//!    zero simulation cost — golden's WB writes clean its dirty
//!    registers (both machines would write the same value), counter
//!    residue rides along as an additive offset, and the lane wakes only
//!    the cycle one of its dirty pairs lands in the decoded touch set
//!    ([`lockstep_cpu::exec::quiet_touch`]). Dead residue, the dominant
//!    fate of masked faults, parks to the end of the trace without a
//!    single simulated cycle.
//! 3. **Bit-parallel parked lanes** — a stuck-at whose forced value
//!    currently equals golden's bit is not simulated at all: it is
//!    *parked* in a [`LaneWatch`], which packs up to 64 stuck-at-0 and
//!    64 stuck-at-1 faults per (register, lane) pair into two `u64`
//!    masks checked against the walker's committed state with two ALU
//!    ops per cycle. The cycle golden's bit first disagrees, the fault
//!    wakes into a scalar lane (the fallback rule); a woken lane that
//!    re-converges with golden is re-parked, up to a small cap.
//!    Stuck-ats *on register-file flops* use the quiet parking of
//!    layer 2 instead of a watch: even while golden's bit disagrees
//!    with the stuck value the whole divergence is one known register
//!    value, so the fault stays parked until that register is read
//!    rather than waking on every bit flip.
//!
//! The walker doubles as the live golden twin: it re-produces the
//! recorded [`PortTrace`] (debug-asserted every cycle), so it *is* the
//! fault-free twin the lanes are compared against, and the batched
//! engine produces archives byte-identical to the scalar engine
//! (`tests/batch_equivalence.rs`).

use lockstep_core::Dsr;
use lockstep_cpu::dirty::{
    converged, quiet_bit, quiet_confined, rf_registry_index, DirtyWitness, LaneWatch, QuietResidue,
    QUIET_COUNTERS, QUIET_RF,
};
use lockstep_cpu::exec::{quiet_touch, rf_write_of};
use lockstep_cpu::{flops, CoreModel, Cpu, CpuState, Lr7, PortSet, PortTrace, Sc};
use lockstep_fault::{Fault, FaultKind};
use lockstep_mem::{Memory, TrialLog, TrialView};
use lockstep_workloads::GoldenCheckpoints;

/// How many times one stuck-at fault may be re-parked after waking. A
/// fault that keeps oscillating between parked and live costs a watch
/// rebuild per transition; past the cap it simply stays a scalar lane.
const REPARK_CAP: u32 = 4;

/// Which layers of the batched engine are enabled. Fan-out from a
/// shared walker is the substrate and is always on; the two accelerator
/// layers on top are independently togglable so the benchmark can
/// measure the throughput trajectory layer by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Retire a transient's lane the moment its state re-converges with
    /// the walker (dirty-set early-out) instead of stepping it to the
    /// end of the trace.
    pub early_out: bool,
    /// Park agreeing stuck-ats in bit-parallel [`LaneWatch`] masks
    /// instead of stepping a scalar lane for each.
    pub parked_lanes: bool,
}

impl BatchConfig {
    /// Fan-out only: shared restore and walker, every fault a scalar
    /// lane to detection or trace end.
    pub const FAN_OUT: BatchConfig = BatchConfig { early_out: false, parked_lanes: false };
    /// Fan-out plus the dirty-set early-out for transients.
    pub const EARLY_OUT: BatchConfig = BatchConfig { early_out: true, parked_lanes: false };
    /// Fan-out plus bit-parallel parked stuck-at lanes.
    pub const LANES: BatchConfig = BatchConfig { early_out: false, parked_lanes: true };
    /// All three layers (the `--batch-mode` default).
    pub const FULL: BatchConfig = BatchConfig { early_out: true, parked_lanes: true };

    /// Canonical flag/stat spelling of this layer combination.
    pub fn label(self) -> &'static str {
        match (self.early_out, self.parked_lanes) {
            (false, false) => "fanout",
            (true, false) => "earlyout",
            (false, true) => "lanes",
            (true, true) => "full",
        }
    }

    /// Parses a `--batch-mode` flag value: `Some(None)` for `"off"`
    /// (scalar per-fault replay), `Some(Some(_))` for a layer
    /// combination, `None` for an unknown spelling.
    pub fn from_flag(s: &str) -> Option<Option<BatchConfig>> {
        match s {
            "off" => Some(None),
            "fanout" => Some(Some(BatchConfig::FAN_OUT)),
            "earlyout" => Some(Some(BatchConfig::EARLY_OUT)),
            "lanes" => Some(Some(BatchConfig::LANES)),
            "full" => Some(Some(BatchConfig::FULL)),
            _ => None,
        }
    }
}

/// Cost and savings accounting for one batched group.
///
/// Unlike the scalar [`ReplayCost`](crate::campaign::ReplayCost),
/// `replayed_cycles` counts machines actually stepped — walker, lanes,
/// and capture-window steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCost {
    /// CPU-cycles actually simulated (walker + lanes + capture).
    pub replayed_cycles: u64,
    /// Cycles skipped by checkpoint restores/jumps and by faults whose
    /// strike lies past the end of the golden run.
    pub skipped_cycles: u64,
    /// Transients scored masked by the dirty-set early-out before the
    /// end of the trace.
    pub masked_early_out: u64,
    /// Simulated cycles the early-out avoided (trace cycles remaining
    /// at retirement, summed over early-out faults).
    pub early_out_cycles_saved: u64,
    /// Stuck-ats that sat parked in a watch to the end of the trace and
    /// were scored masked without simulating a single cycle.
    pub parked_masked: u64,
    /// Scalar lanes materialized (strike admissions, watch wakes, and
    /// re-activations).
    pub lane_activations: u64,
}

impl BatchCost {
    fn absorb(&mut self, other: BatchCost) {
        self.replayed_cycles += other.replayed_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.masked_early_out += other.masked_early_out;
        self.early_out_cycles_saved += other.early_out_cycles_saved;
        self.parked_masked += other.parked_masked;
        self.lane_activations += other.lane_activations;
    }
}

/// One faulty machine forked off the walker, stepped in lockstep with
/// it until detection, early-out, or re-park. `outs` indexes every
/// fault sharing this lane (exact duplicates in the plan collapse into
/// one machine). Note what is *not* here: a memory image. A live lane
/// has, by definition, matched golden's ports so far, so its memory is
/// bit-identical to the walker's — it reads the walker's image through
/// a [`TrialView`] and owns ~a `CpuState` of private data, which is
/// what lets thousands of lanes stay cache-resident at once.
struct Lane {
    cpu: Cpu,
    fault: Fault,
    outs: Vec<usize>,
    witness: DirtyWitness,
    reparks: u32,
}

/// A stuck-at waiting in a watch: zero simulation until golden's bit
/// disagrees with the stuck value.
struct Parked {
    fault: Fault,
    outs: Vec<usize>,
    reparks: u32,
}

/// All parked faults of one (register, lane) pair, with their packed
/// trigger masks.
struct WatchGroup {
    watch: LaneWatch,
    parked: Vec<Parked>,
}

/// A fault parked because its entire divergence from golden is confined
/// to the quiet set. Costs zero simulation per cycle: the register
/// file's single write site cleans dirty registers as golden retires
/// writes (both machines would write the identical value, which is
/// computed from non-dirty latches), counters carry their residue as an
/// offset, and every other read or write of a quiet pair — decoded from
/// golden's pre-cycle state — tells us the exact cycle a dirty pair
/// might be observed, which is when the entry wakes into a scalar
/// [`Lane`].
struct QuietParked {
    fault: Fault,
    outs: Vec<usize>,
    reparks: u32,
    /// The faulty machine's difference from golden's live state.
    residue: QuietResidue,
    /// Walker cycle at which the entry parked, for savings accounting.
    park_cycle: u64,
}

/// The quiet pair a stuck-at holds at its forced value: its own pair
/// when that is a RAS entry or a CSR, as a quiet mask (0 otherwise).
/// Between touches nothing writes the pair, so the overlay is the
/// identity and the faulty value stays put; the entry wakes when the
/// pair is touched, clean or not, because a write may re-dirty it.
/// Register-file stuck-ats are tracked through golden's writes instead;
/// counter and non-quiet stuck-ats carry the watch condition (phase 4b).
fn held_pair(f: Fault, rf: u16) -> u64 {
    if f.kind == FaultKind::Transient || f.flop.reg == rf {
        return 0;
    }
    match quiet_bit(f.flop.reg, f.flop.lane) {
        Some(bit) if QUIET_COUNTERS & 1 << bit == 0 => 1 << bit,
        _ => 0,
    }
}

/// Aggregate wake filters over the quiet parking lot: the union of all
/// wake masks (dirty pairs plus held pairs), the set of registers
/// targeted by parked register-file stuck-ats (whose dirtiness golden's
/// writes can *re*-introduce), and how many parked stuck-ats carry the
/// watch condition (and so need a per-cycle agreement check against
/// golden's committed state). The common per-cycle case is two mask
/// tests and no per-entry work at all.
fn quiet_masks(entries: &[QuietParked], rf: u16) -> (u64, u32, usize) {
    let mut wake = 0u64;
    let mut stuck_rf = 0u32;
    let mut watched = 0usize;
    for e in entries {
        let held = held_pair(e.fault, rf);
        wake |= e.residue.dirty() | held;
        if e.fault.kind != FaultKind::Transient {
            if e.fault.flop.reg == rf {
                stuck_rf |= 1 << e.fault.flop.lane;
            } else if held == 0 {
                watched += 1;
            }
        }
    }
    (wake, stuck_rf, watched)
}

/// Whether `f` is a stuck-at on a counter flop whose counter differs
/// from golden's. A forced counter bit is no additive offset — the
/// increment keeps running into it — so such a lane stays live and
/// skips the confinement scan.
fn holds_counter(f: Fault, faulty: &CpuState, golden: &CpuState) -> bool {
    let on_counter = f.kind != FaultKind::Transient
        && quiet_bit(f.flop.reg, f.flop.lane).is_some_and(|bit| QUIET_COUNTERS & 1 << bit != 0);
    if !on_counter {
        return false;
    }
    let reg = &flops::registry()[usize::from(f.flop.reg)];
    let lane = usize::from(f.flop.lane);
    reg.read(faulty, lane) != reg.read(golden, lane)
}

/// A register value with a stuck-at bit forced.
fn forced(v: u64, bit: u8, stuck1: bool) -> u64 {
    if stuck1 {
        v | (1 << bit)
    } else {
        v & !(1 << bit)
    }
}

/// Forks a capture-window memory image off the walker's, recycling a
/// retired image when one is available.
fn fork_mem(mem_pool: &mut Vec<Memory>, wmem: &Memory) -> Memory {
    match mem_pool.pop() {
        Some(mut m) => {
            m.copy_from(wmem);
            m
        }
        None => wmem.clone(),
    }
}

fn park(watches: &mut Vec<WatchGroup>, fault: Fault, outs: Vec<usize>, reparks: u32) {
    let (reg, lane) = (fault.flop.reg, fault.flop.lane);
    let group = match watches.iter_mut().position(|g| g.watch.reg == reg && g.watch.lane == lane) {
        Some(i) => &mut watches[i],
        None => {
            watches.push(WatchGroup { watch: LaneWatch::new(reg, lane), parked: Vec::new() });
            watches.last_mut().expect("just pushed")
        }
    };
    if fault.kind == FaultKind::StuckAt1 {
        group.watch.stuck1 |= 1 << fault.flop.bit;
    } else {
        group.watch.stuck0 |= 1 << fault.flop.bit;
    }
    group.parked.push(Parked { fault, outs, reparks });
}

/// Runs one batched group: every fault in `faults` is injected into the
/// golden execution described by `checkpoints` + `trace`, sharing a
/// single fault-free walker replay of the group's span. Returns one
/// outcome per fault, aligned with the input order: `Some((detect
/// cycle, DSR))` for a manifested error, `None` for a masked fault —
/// bit-identical to running each fault through the scalar engines.
///
/// The walker restores the checkpoint nearest the earliest in-range
/// fault; callers typically pre-group faults so one call covers one
/// checkpoint span, but any fault list works (the walker jumps forward
/// over idle stretches via later checkpoints). Batched groups do not
/// report per-fault checkpoint hit distances — the restore is shared.
pub fn run_batch_group(
    checkpoints: &GoldenCheckpoints,
    trace: &PortTrace,
    faults: &[Fault],
    window: u32,
    layers: BatchConfig,
) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
    assert!(window >= 1, "capture window must be at least one cycle");
    let trace_len = trace.len();
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();

    // Strike order; ties keep input order so exact duplicates collapse
    // deterministically. Faults striking past the golden run are masked
    // by construction (the scalar engines skip them the same way).
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].cycle);
    let in_range: Vec<usize> = order.into_iter().filter(|&i| faults[i].cycle < trace_len).collect();
    cost.skipped_cycles += trace_len * (faults.len() - in_range.len()) as u64;
    let Some(&first) = in_range.first() else {
        return (outcomes, cost);
    };

    let cp = checkpoints
        .nearest_at(faults[first].cycle)
        .expect("golden captures always include the cycle-0 checkpoint");
    let mut wcpu = Cpu::from_state(cp.cpu.clone());
    let mut wmem = cp.mem.clone();
    let mut wports = PortSet::new();
    let mut cycle = cp.cycle;
    cost.skipped_cycles += cp.cycle;

    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut watches: Vec<WatchGroup> = Vec::new();
    let mut lot: Vec<QuietParked> = Vec::new();
    let rf_idx = rf_registry_index();
    // Cached `quiet_masks` aggregates, refreshed whenever the lot changes.
    let mut lot_stale = false;
    let (mut lot_wake, mut lot_stuck_rf, mut lot_watched) = (0u64, 0u32, 0usize);
    let mut mem_pool: Vec<Memory> = Vec::new();
    let mut lports = PortSet::new();
    let mut log = TrialLog::new();

    while cycle < trace_len {
        if lanes.is_empty() && watches.is_empty() && lot.is_empty() {
            // Idle: nothing to simulate until the next strike. Jump the
            // walker forward over any checkpoint between here and there.
            let Some(&i) = pending.peek() else {
                break;
            };
            let target = faults[i].cycle;
            if target > cycle {
                let cp = checkpoints
                    .nearest_at(target)
                    .expect("golden captures always include the cycle-0 checkpoint");
                if cp.cycle > cycle {
                    wcpu = Cpu::from_state(cp.cpu.clone());
                    wmem = cp.mem.clone();
                    cost.skipped_cycles += cp.cycle - cycle;
                    cycle = cp.cycle;
                }
            }
        }

        let at = cycle;
        let gp = trace.get(at).expect("walker within the golden trace");

        // (0) Quiet parking lot, checked against the walker's *pre*-cycle
        // state (the same state every machine agrees on outside the
        // dirty pairs) and golden's recorded trap for this cycle (the
        // trap decision reads no quiet state, so every parked machine
        // traps exactly when golden does). Two mask tests filter the
        // common nothing-to-do case; a firing filter pays one pass: an
        // entry with a dirty pair in this cycle's decoded touch set
        // wakes into a scalar lane (materialized from pre-state, so it
        // steps through `at` with the other lanes), and golden's
        // predicted WB write cleans — or, for a register-file stuck-at's
        // target, re-forces — the written register. A stuck-at on a RAS
        // entry or CSR also wakes when its own pair is touched.
        if !lot.is_empty() {
            if lot_stale {
                (lot_wake, lot_stuck_rf, lot_watched) = quiet_masks(&lot, rf_idx);
                lot_stale = false;
            }
            let pre = wcpu.state();
            let touch = quiet_touch(pre, gp.get(Sc::ExcCtl) & 1 == 1);
            let wr = rf_write_of(pre);
            let write_hits = wr.is_some_and(|(r, _)| {
                lot_wake & 1 << (QUIET_RF + u32::from(r) - 1) != 0
                    || lot_stuck_rf & 1 << (r - 1) != 0
            });
            if touch & lot_wake != 0 || write_hits {
                let mut pi = 0;
                while pi < lot.len() {
                    let e = &mut lot[pi];
                    if touch & (e.residue.dirty() | held_pair(e.fault, rf_idx)) != 0 {
                        let entry = lot.swap_remove(pi);
                        lanes.push(Lane {
                            cpu: Cpu::from_state(entry.residue.materialize(pre)),
                            fault: entry.fault,
                            outs: entry.outs,
                            witness: DirtyWitness::new(),
                            reparks: entry.reparks,
                        });
                        cost.lane_activations += 1;
                        lot_stale = true;
                        continue;
                    }
                    if let Some((r, v)) = wr {
                        let bit = QUIET_RF + u32::from(r) - 1;
                        let v = u64::from(v);
                        let rf_target = e.fault.kind != FaultKind::Transient
                            && e.fault.flop.reg == rf_idx
                            && e.fault.flop.lane == u16::from(r - 1);
                        if rf_target {
                            let stuck1 = e.fault.kind == FaultKind::StuckAt1;
                            e.residue.assign(bit, forced(v, e.fault.flop.bit, stuck1), v);
                            lot_stale = true;
                        } else if e.residue.dirty() & 1 << bit != 0 {
                            e.residue.assign(bit, v, v);
                            lot_stale = true;
                            if e.residue.dirty() == 0 && e.fault.kind == FaultKind::Transient {
                                // Last dirty pair overwritten: the faulty
                                // machine is golden again, masked for the
                                // rest of the run.
                                let n = e.outs.len() as u64;
                                cost.masked_early_out += n;
                                cost.early_out_cycles_saved += (trace_len - e.park_cycle) * n;
                                lot.swap_remove(pi);
                                continue;
                            }
                        }
                    }
                    pi += 1;
                }
            }
        }

        // (1) Step every live lane through cycle `at` *before* the
        // walker, speculatively against the walker's image (which at
        // this point holds golden memory as of the start of `at` —
        // identical to the lane's own, see `Lane`). A lane whose ports
        // still match golden discards its trial log: the walker is
        // about to apply the very same side effects for it. A lane
        // that diverges is materialized on the spot — fork the pre-`at`
        // image, replay the divergent cycle's log onto it, and finish
        // the DSR capture window against the trace with real memory
        // (identical values to a live twin), clamped to the end of the
        // golden run like the scalar engines.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            log.clear();
            let mut view = TrialView::new(&wmem, &mut log);
            if f.kind == FaultKind::Transient {
                // Past its strike a transient's overlay is the identity.
                lane.cpu.step(&mut view, &mut lports);
            } else {
                lane.cpu.step_with_overlay(&mut view, &mut lports, |st| f.overlay(st, at));
            }
            cost.replayed_cycles += 1;
            let diff = lports.diff_mask(gp);
            if diff == 0 {
                li += 1;
                continue;
            }
            let mut mem = fork_mem(&mut mem_pool, &wmem);
            mem.apply_trial(&log);
            let mut dsr_bits = diff;
            let mut c = at + 1;
            while c < at + u64::from(window) && c < trace_len {
                lane.cpu.step_with_overlay(&mut mem, &mut lports, |st| f.overlay(st, c));
                dsr_bits |=
                    lports.diff_mask(trace.get(c).expect("capture within the golden trace"));
                cost.replayed_cycles += 1;
                c += 1;
            }
            let out = Some((at, Dsr::from_bits(dsr_bits)));
            for &o in &lane.outs {
                outcomes[o] = out;
            }
            mem_pool.push(mem);
            lanes.swap_remove(li);
        }

        // (2) Walk the fault-free golden machine through cycle `at`.
        wcpu.step(&mut wmem, &mut wports);
        debug_assert_eq!(
            wports.diff_mask(gp),
            0,
            "fault-free walker diverged from the recorded golden trace at cycle {at}"
        );
        cycle += 1;
        cost.replayed_cycles += 1;
        let committed = wcpu.state();

        // (3) Convergence checks against the walker's committed state
        // (both machines are now post-`at`, so the comparison is exact):
        // a transient whose dirty set emptied is provably masked from
        // here and retires; a lane whose remaining divergence is
        // confined to the quiet set parks in the zero-cost lot; a woken
        // stuck-at whose forced bit agrees with golden again goes back
        // into a zero-cost watch.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            let checked = match f.kind {
                FaultKind::Transient => layers.early_out,
                _ => {
                    layers.parked_lanes
                        && lane.reparks < REPARK_CAP
                        && !holds_counter(f, lane.cpu.state(), committed)
                }
            };
            if !checked {
                li += 1;
                continue;
            }
            // Past the re-park cap a transient only gets the cheap
            // full-convergence check; rescanning for a quiet-confined
            // residue it is no longer allowed to park on would cost a
            // registry walk every cycle.
            let verdict = if lane.reparks < REPARK_CAP {
                quiet_confined(lane.cpu.state(), committed, &mut lane.witness)
            } else if converged(lane.cpu.state(), committed, &mut lane.witness) {
                Some(0)
            } else {
                None
            };
            let Some(dirty) = verdict else {
                li += 1;
                continue;
            };
            if dirty == 0 && f.kind == FaultKind::Transient {
                let n = lane.outs.len() as u64;
                cost.masked_early_out += n;
                cost.early_out_cycles_saved += (trace_len - cycle) * n;
                lanes.swap_remove(li);
            } else if dirty == 0 && f.flop.reg != rf_idx {
                let outs = std::mem::take(&mut lane.outs);
                let reparks = lane.reparks + 1;
                park(&mut watches, f, outs, reparks);
                lanes.swap_remove(li);
            } else if lane.reparks < REPARK_CAP {
                // Parks with its residue. A register-file stuck-at parks
                // even when clean: golden's next write to its target may
                // re-dirty it, which phase (0) tracks exactly. A RAS or
                // CSR stuck-at wakes on a touch of its pair; any other
                // stuck-at carries the watch condition into the lot
                // (phase 4b).
                let lane = lanes.swap_remove(li);
                lot.push(QuietParked {
                    fault: f,
                    outs: lane.outs,
                    reparks: lane.reparks + 1,
                    residue: QuietResidue::capture(committed, lane.cpu.state(), dirty),
                    park_cycle: cycle,
                });
                lot_stale = true;
            } else {
                li += 1;
            }
        }

        // (4) Wake parked stuck-ats whose bit golden's committed state
        // now disagrees with. Two u64 ops filter each watch group; only
        // a firing group pays the per-entry scan.
        let first_new = lanes.len();
        let mut wi = 0;
        while wi < watches.len() {
            if watches[wi].watch.triggered(committed) == 0 {
                wi += 1;
                continue;
            }
            let parked = std::mem::take(&mut watches[wi].parked);
            let mut kept = Vec::new();
            for entry in parked {
                let stuck1 = entry.fault.kind == FaultKind::StuckAt1;
                if flops::get_bit(committed, entry.fault.flop) == stuck1 {
                    kept.push(entry);
                    continue;
                }
                // Woken entries forcing the same bit share one machine:
                // their futures are identical from this cycle on.
                if let Some(lane) = lanes[first_new..]
                    .iter_mut()
                    .find(|l| l.fault.flop == entry.fault.flop && l.fault.kind == entry.fault.kind)
                {
                    lane.outs.extend(entry.outs);
                    continue;
                }
                let mut st = committed.clone();
                entry.fault.overlay(&mut st, at);
                lanes.push(Lane {
                    cpu: Cpu::from_state(st),
                    fault: entry.fault,
                    outs: entry.outs,
                    witness: DirtyWitness::new(),
                    reparks: entry.reparks,
                });
                cost.lane_activations += 1;
            }
            let group = &mut watches[wi];
            group.parked = kept;
            group.watch.stuck0 = 0;
            group.watch.stuck1 = 0;
            for entry in &group.parked {
                if entry.fault.kind == FaultKind::StuckAt1 {
                    group.watch.stuck1 |= 1 << entry.fault.flop.bit;
                } else {
                    group.watch.stuck0 |= 1 << entry.fault.flop.bit;
                }
            }
            if group.parked.is_empty() {
                watches.swap_remove(wi);
            } else {
                wi += 1;
            }
        }

        // (4b) Parked stuck-ats on a counter or outside the quiet set
        // stay in provable lockstep only while golden's bit agrees with
        // the stuck value (the watch condition; their own flop is clean,
        // so golden's bit is the faulty machine's); the cycle it
        // first disagrees the overlay would smear a fresh diff, so the
        // entry wakes into a scalar lane off the committed state,
        // residue substituted in — exactly like a watch wake, plus
        // residue. (An entry parked by phase (3) this very cycle was
        // verified agreeing against this same committed state, so the
        // possibly stale `lot_watched` guard cannot miss a wake.)
        if lot_watched > 0 && !lot.is_empty() {
            let mut pi = 0;
            while pi < lot.len() {
                let e = &lot[pi];
                if e.fault.kind == FaultKind::Transient
                    || e.fault.flop.reg == rf_idx
                    || held_pair(e.fault, rf_idx) != 0
                {
                    pi += 1;
                    continue;
                }
                let stuck1 = e.fault.kind == FaultKind::StuckAt1;
                if flops::get_bit(committed, e.fault.flop) == stuck1 {
                    pi += 1;
                    continue;
                }
                let entry = lot.swap_remove(pi);
                let mut st = entry.residue.materialize(committed);
                entry.fault.overlay(&mut st, at);
                lanes.push(Lane {
                    cpu: Cpu::from_state(st),
                    fault: entry.fault,
                    outs: entry.outs,
                    witness: DirtyWitness::new(),
                    reparks: entry.reparks,
                });
                cost.lane_activations += 1;
                lot_stale = true;
            }
        }

        // (5) Admit faults striking at `at`: the overlay lands in the
        // committed state of this cycle (ports are computed pre-overlay,
        // so the strike cycle itself can never diverge — the scalar
        // engines' compare there is identically zero).
        while pending.peek().is_some_and(|&i| faults[i].cycle == at) {
            let i = pending.next().expect("peeked");
            let f = faults[i];
            if let Some(lane) = lanes.iter_mut().find(|l| l.fault == f) {
                lane.outs.push(i);
                continue;
            }
            if let Some(entry) =
                watches.iter_mut().flat_map(|g| g.parked.iter_mut()).find(|e| e.fault == f)
            {
                entry.outs.push(i);
                continue;
            }
            if let Some(entry) = lot.iter_mut().find(|e| e.fault == f) {
                entry.outs.push(i);
                continue;
            }
            // A transient striking a quiet flop parks instantly: the
            // strike *is* a quiet-confined divergence by construction,
            // so no lane is ever materialized for it. So does a stuck-at
            // on a quiet flop other than a counter: phase (0) tracks its
            // forced value through golden's register-file writes, or
            // wakes it when its RAS entry or CSR is touched.
            if let Some(bit) = quiet_bit(f.flop.reg, f.flop.lane) {
                let lane = usize::from(f.flop.lane);
                let g = flops::registry()[usize::from(f.flop.reg)].read(committed, lane);
                let faulty = if f.kind == FaultKind::Transient {
                    layers.early_out.then_some(g ^ 1 << f.flop.bit)
                } else if layers.parked_lanes && (f.flop.reg == rf_idx || held_pair(f, rf_idx) != 0)
                {
                    Some(forced(g, f.flop.bit, f.kind == FaultKind::StuckAt1))
                } else {
                    None
                };
                if let Some(fv) = faulty {
                    let mut residue = QuietResidue::default();
                    residue.assign(bit, fv, g);
                    lot.push(QuietParked {
                        fault: f,
                        outs: vec![i],
                        reparks: 0,
                        residue,
                        park_cycle: cycle,
                    });
                    lot_stale = true;
                    continue;
                }
            }
            let stuck1 = f.kind == FaultKind::StuckAt1;
            let agrees =
                f.kind != FaultKind::Transient && flops::get_bit(committed, f.flop) == stuck1;
            if agrees && layers.parked_lanes {
                park(&mut watches, f, vec![i], 0);
                continue;
            }
            let mut st = committed.clone();
            f.overlay(&mut st, at);
            lanes.push(Lane {
                cpu: Cpu::from_state(st),
                fault: f,
                outs: vec![i],
                witness: DirtyWitness::new(),
                reparks: 0,
            });
            cost.lane_activations += 1;
        }
    }

    // Faults still parked (or still live) at the end of the trace are
    // masked; `outcomes` already says so. Parked ones never cost a
    // simulated cycle — worth counting.
    for group in &watches {
        for entry in &group.parked {
            cost.parked_masked += entry.outs.len() as u64;
        }
    }
    for entry in &lot {
        let n = entry.outs.len() as u64;
        if entry.fault.kind == FaultKind::Transient {
            cost.masked_early_out += n;
            cost.early_out_cycles_saved += (trace_len - entry.park_cycle) * n;
        } else {
            cost.parked_masked += n;
        }
    }
    (outcomes, cost)
}

/// Per-core batched-engine capability. The accelerator layers (dirty-
/// set early-out, quiet parking, bit-parallel watches) are proofs about
/// the LR5 microstructure — its few decodable read and write sites of
/// quiet state — so only [`Cpu`] runs them. Other
/// cores clamp to the core-agnostic fan-out substrate, which is still
/// byte-identical to their scalar engines (the outcome of a batched
/// group never depends on the layer set).
pub trait CoreBatch: CoreModel {
    /// The layer combination this core's engine actually runs when
    /// `requested` is configured. Campaign stats record the clamped
    /// label, so archives describe what really executed.
    fn clamp_layers(requested: BatchConfig) -> BatchConfig;

    /// Runs one batched group on this core model (see
    /// [`run_batch_group`] for the contract).
    fn run_batch_group(
        checkpoints: &GoldenCheckpoints<Self::State>,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost);
}

impl CoreBatch for Cpu {
    fn clamp_layers(requested: BatchConfig) -> BatchConfig {
        requested
    }

    fn run_batch_group(
        checkpoints: &GoldenCheckpoints,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
        run_batch_group(checkpoints, trace, faults, window, layers)
    }
}

impl CoreBatch for Lr7 {
    fn clamp_layers(_requested: BatchConfig) -> BatchConfig {
        BatchConfig::FAN_OUT
    }

    fn run_batch_group(
        checkpoints: &GoldenCheckpoints<<Lr7 as CoreModel>::State>,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        _layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
        run_batch_group_fanout::<Lr7>(checkpoints, trace, faults, window)
    }
}

/// A scalar lane of the core-agnostic fan-out engine: no convergence
/// witness, no parking — just a faulty machine stepped to detection or
/// the end of the trace.
struct FanoutLane<C> {
    cpu: C,
    fault: Fault,
    outs: Vec<usize>,
}

/// [`run_batch_group`] restricted to layer 1 (fan-out from a shared
/// walker), generic over the core model. Every fault becomes a scalar
/// lane off the walker's committed state at its strike cycle; lanes
/// stay memoryless behind a [`TrialView`] until they first diverge.
/// Outcomes are bit-identical to the scalar engines for any core whose
/// checkpoints restore exactly.
pub fn run_batch_group_fanout<C: CoreModel>(
    checkpoints: &GoldenCheckpoints<C::State>,
    trace: &PortTrace,
    faults: &[Fault],
    window: u32,
) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
    assert!(window >= 1, "capture window must be at least one cycle");
    let trace_len = trace.len();
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();

    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].cycle);
    let in_range: Vec<usize> = order.into_iter().filter(|&i| faults[i].cycle < trace_len).collect();
    cost.skipped_cycles += trace_len * (faults.len() - in_range.len()) as u64;
    let Some(&first) = in_range.first() else {
        return (outcomes, cost);
    };

    let cp = checkpoints
        .nearest_at(faults[first].cycle)
        .expect("golden captures always include the cycle-0 checkpoint");
    let mut wcpu = C::from_state(cp.cpu.clone());
    let mut wmem = cp.mem.clone();
    let mut wports = PortSet::new();
    let mut cycle = cp.cycle;
    cost.skipped_cycles += cp.cycle;

    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<FanoutLane<C>> = Vec::new();
    let mut mem_pool: Vec<Memory> = Vec::new();
    let mut lports = PortSet::new();
    let mut log = TrialLog::new();

    while cycle < trace_len {
        if lanes.is_empty() {
            // Idle: jump the walker forward over any checkpoint between
            // here and the next strike.
            let Some(&i) = pending.peek() else {
                break;
            };
            let target = faults[i].cycle;
            if target > cycle {
                let cp = checkpoints
                    .nearest_at(target)
                    .expect("golden captures always include the cycle-0 checkpoint");
                if cp.cycle > cycle {
                    wcpu = C::from_state(cp.cpu.clone());
                    wmem = cp.mem.clone();
                    cost.skipped_cycles += cp.cycle - cycle;
                    cycle = cp.cycle;
                }
            }
        }

        let at = cycle;
        let gp = trace.get(at).expect("walker within the golden trace");

        // Step every live lane through `at` against the walker's image
        // (identical to the lane's own while its ports match golden); a
        // diverging lane forks a private image and runs its capture
        // window — exactly the scalar engines' DSR semantics.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            log.clear();
            let mut view = TrialView::new(&wmem, &mut log);
            if f.kind == FaultKind::Transient {
                lane.cpu.step(&mut view, &mut lports);
            } else {
                lane.cpu.step_with_overlay(&mut view, &mut lports, |st| f.overlay_for::<C>(st, at));
            }
            cost.replayed_cycles += 1;
            let diff = lports.diff_mask(gp);
            if diff == 0 {
                li += 1;
                continue;
            }
            let mut mem = fork_mem(&mut mem_pool, &wmem);
            mem.apply_trial(&log);
            let mut dsr_bits = diff;
            let mut c = at + 1;
            while c < at + u64::from(window) && c < trace_len {
                lane.cpu.step_with_overlay(&mut mem, &mut lports, |st| f.overlay_for::<C>(st, c));
                dsr_bits |=
                    lports.diff_mask(trace.get(c).expect("capture within the golden trace"));
                cost.replayed_cycles += 1;
                c += 1;
            }
            let out = Some((at, Dsr::from_bits(dsr_bits)));
            for &o in &lane.outs {
                outcomes[o] = out;
            }
            mem_pool.push(mem);
            lanes.swap_remove(li);
        }

        // Walk the fault-free golden machine through `at`.
        wcpu.step(&mut wmem, &mut wports);
        debug_assert_eq!(
            wports.diff_mask(gp),
            0,
            "fault-free walker diverged from the recorded golden trace at cycle {at}"
        );
        cycle += 1;
        cost.replayed_cycles += 1;
        let committed = wcpu.state();

        // Admit faults striking at `at` (exact duplicates share a lane).
        while pending.peek().is_some_and(|&i| faults[i].cycle == at) {
            let i = pending.next().expect("peeked");
            let f = faults[i];
            if let Some(lane) = lanes.iter_mut().find(|l| l.fault == f) {
                lane.outs.push(i);
                continue;
            }
            let mut st = committed.clone();
            f.overlay_for::<C>(&mut st, at);
            lanes.push(FanoutLane { cpu: C::from_state(st), fault: f, outs: vec![i] });
            cost.lane_activations += 1;
        }
    }

    (outcomes, cost)
}

/// Convenience for stats assembly: sums a sequence of group costs.
pub fn total_cost(costs: impl IntoIterator<Item = BatchCost>) -> BatchCost {
    let mut total = BatchCost::default();
    for c in costs {
        total.absorb(c);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_spellings_round_trip() {
        for layers in
            [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL]
        {
            assert_eq!(BatchConfig::from_flag(layers.label()), Some(Some(layers)));
        }
        assert_eq!(BatchConfig::from_flag("off"), Some(None));
        assert_eq!(BatchConfig::from_flag("warp"), None);
    }

    #[test]
    fn latent_ras_and_csr_transients_park_for_free() {
        // rspeed never calls, returns or touches scratch0, so a flip in
        // a RAS entry or in scratch0 is latent to the end of the trace.
        // It must park at admission: the group costs the walker's own
        // cycles plus at most one step, not a lane stepped to the end.
        let w = lockstep_workloads::Workload::find("rspeed").unwrap();
        let cap = w.golden_capture(5, 400_000, 4096);
        let regs = flops::registry();
        let flop = |name: &str, lane: u16, bit: u8| {
            let reg = regs.iter().position(|r| r.name == name).unwrap() as u16;
            lockstep_cpu::FlopId { reg, lane, bit }
        };
        let strike = cap.run.cycles / 2;
        for id in [flop("ras", 3, 5), flop("csr_scratch0", 0, 9)] {
            let fault = Fault::new(id, FaultKind::Transient, strike);
            let (outcomes, cost) =
                run_batch_group(&cap.checkpoints, &cap.trace, &[fault], 8, BatchConfig::FULL);
            assert_eq!(outcomes, vec![None], "{fault:?} must be masked");
            assert_eq!(cost.masked_early_out, 1);
            let walker = cap.trace.len() - cap.checkpoints.nearest_at(strike).unwrap().cycle;
            assert!(
                cost.replayed_cycles <= walker + 1,
                "{fault:?} cost {} simulated cycles, walker alone {walker}",
                cost.replayed_cycles
            );
        }
    }

    #[test]
    fn total_cost_sums_fields() {
        let a = BatchCost { replayed_cycles: 5, masked_early_out: 2, ..BatchCost::default() };
        let b = BatchCost { replayed_cycles: 7, parked_masked: 1, ..BatchCost::default() };
        let t = total_cost([a, b]);
        assert_eq!(t.replayed_cycles, 12);
        assert_eq!(t.masked_early_out, 2);
        assert_eq!(t.parked_masked, 1);
    }
}
