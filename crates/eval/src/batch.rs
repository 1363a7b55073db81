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
//! Fan-out, the full-state early-out and the watches need only the
//! [`CoreModel`] contract, so [`run_batch_group_for`] runs them on any
//! core; quiet parking decodes the LR5 pipeline's own touch sites, so
//! only LR5's [`run_batch_group`] adds it. [`CoreBatch`] picks the
//! engine per core.
//!
//! The walker doubles as the live golden twin: it re-produces the
//! recorded [`PortTrace`] (debug-asserted every cycle), so it *is* the
//! fault-free twin the lanes are compared against, and the batched
//! engine produces archives byte-identical to the scalar engine
//! (`tests/batch_equivalence.rs`, `tests/lr7_equivalence.rs`).

use lockstep_core::Dsr;
use lockstep_cpu::dirty::{
    converged, quiet_bit, quiet_confined, rf_registry_index, DirtyWitness, LaneWatch, QuietResidue,
    QUIET_COUNTERS, QUIET_RF,
};
use lockstep_cpu::exec::{quiet_touch, rf_write_of};
use lockstep_cpu::{flops, CoreModel, Cpu, CpuState, FlopReg, Lr7, PortSet, PortTrace, Sc};
use lockstep_fault::{Fault, FaultKind};
use lockstep_mem::{Memory, TrialLog, TrialView};
use lockstep_workloads::{Checkpoint, GoldenCheckpoints};

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
/// a [`TrialView`] and owns ~a core state of private data, which is
/// what lets thousands of lanes stay cache-resident at once.
struct Lane<C> {
    cpu: C,
    fault: Fault,
    outs: Vec<usize>,
    witness: DirtyWitness,
    reparks: u32,
}

impl<C: CoreModel> Lane<C> {
    /// A lane running `state`, with nothing yet known about where it
    /// differs from golden.
    fn new(state: C::State, fault: Fault, outs: Vec<usize>, reparks: u32) -> Lane<C> {
        Lane { cpu: C::from_state(state), fault, outs, witness: DirtyWitness::new(), reparks }
    }
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

/// Whether stuck-at `f` forces its flop to the value `state` already
/// holds there — then its overlay is the identity on `state`.
fn agrees<S>(regs: &[FlopReg<S>], f: Fault, state: &S) -> bool {
    f.kind != FaultKind::Transient
        && flops::get_bit_in(regs, state, f.flop) == (f.kind == FaultKind::StuckAt1)
}

/// The golden checkpoint a walker restores to reach `cycle`.
fn nearest<S>(checkpoints: &GoldenCheckpoints<S>, cycle: u64) -> &Checkpoint<S> {
    checkpoints.nearest_at(cycle).expect("golden captures always include the cycle-0 checkpoint")
}

/// The fault-free walker: golden's machine and memory, replayed from a
/// checkpoint through the group's span. It re-produces the recorded
/// [`PortTrace`] (debug-asserted every cycle), so it *is* the
/// fault-free twin the lanes are compared against.
struct Walker<C> {
    cpu: C,
    mem: Memory,
    ports: PortSet,
    /// The cycle the walker steps next; its state is golden's committed
    /// state at the end of `cycle - 1`.
    cycle: u64,
}

impl<C: CoreModel> Walker<C> {
    /// Orders a group's faults by strike cycle and restores the walker
    /// from the checkpoint nearest the first one. Ties keep input order
    /// so exact duplicates collapse deterministically. Faults striking
    /// past the golden run are masked by construction (the scalar
    /// engines skip them the same way) and are left out; `None` when no
    /// fault is left.
    fn start(
        checkpoints: &GoldenCheckpoints<C::State>,
        trace_len: u64,
        faults: &[Fault],
        cost: &mut BatchCost,
    ) -> Option<(Walker<C>, Vec<usize>)> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| faults[i].cycle);
        let in_range: Vec<usize> =
            order.into_iter().filter(|&i| faults[i].cycle < trace_len).collect();
        cost.skipped_cycles += trace_len * (faults.len() - in_range.len()) as u64;
        let cp = nearest(checkpoints, faults[*in_range.first()?].cycle);
        cost.skipped_cycles += cp.cycle;
        let walker = Walker {
            cpu: C::from_state(cp.cpu.clone()),
            mem: cp.mem.clone(),
            ports: PortSet::new(),
            cycle: cp.cycle,
        };
        Some((walker, in_range))
    }

    /// With nothing to simulate before `target`, jumps forward over any
    /// checkpoint between here and there.
    fn skip_to(
        &mut self,
        checkpoints: &GoldenCheckpoints<C::State>,
        target: u64,
        cost: &mut BatchCost,
    ) {
        if target <= self.cycle {
            return;
        }
        let cp = nearest(checkpoints, target);
        if cp.cycle > self.cycle {
            self.cpu = C::from_state(cp.cpu.clone());
            self.mem = cp.mem.clone();
            cost.skipped_cycles += cp.cycle - self.cycle;
            self.cycle = cp.cycle;
        }
    }

    /// Walks the fault-free machine through its cycle, whose recorded
    /// golden ports are `gp`.
    fn step(&mut self, gp: &PortSet, cost: &mut BatchCost) {
        self.cpu.step(&mut self.mem, &mut self.ports);
        debug_assert_eq!(
            self.ports.diff_mask(gp),
            0,
            "fault-free walker diverged from the recorded golden trace at cycle {}",
            self.cycle
        );
        self.cycle += 1;
        cost.replayed_cycles += 1;
    }
}

/// What a lane needs besides itself to step one cycle and, should it
/// diverge, to run its DSR capture window: the golden trace, the window
/// length, and buffers reused across the whole group.
struct Capture<'a> {
    trace: &'a PortTrace,
    window: u32,
    mem_pool: Vec<Memory>,
    ports: PortSet,
    log: TrialLog,
}

impl<'a> Capture<'a> {
    fn new(trace: &'a PortTrace, window: u32) -> Capture<'a> {
        assert!(window >= 1, "capture window must be at least one cycle");
        Capture { trace, window, mem_pool: Vec::new(), ports: PortSet::new(), log: TrialLog::new() }
    }

    /// Forks a capture-window memory image off the walker's, recycling
    /// a retired image when one is available.
    fn fork_mem(&mut self, wmem: &Memory) -> Memory {
        match self.mem_pool.pop() {
            Some(mut m) => {
                m.copy_from(wmem);
                m
            }
            None => wmem.clone(),
        }
    }
}

/// Steps every live lane through cycle `at` *before* the walker,
/// speculatively against the walker's image `wmem` (which at this point
/// holds golden memory as of the start of `at` — identical to the
/// lane's own, see [`Lane`]). A lane whose ports still match golden's
/// `gp` discards its trial log: the walker is about to apply the very
/// same side effects for it. A lane that diverges is materialized on
/// the spot — fork the pre-`at` image, replay the divergent cycle's log
/// onto it, and finish the DSR capture window against the trace with
/// real memory (identical values to a live twin), clamped to the end of
/// the golden run like the scalar engines — and retires with its
/// outcome.
fn step_lanes<C: CoreModel>(
    lanes: &mut Vec<Lane<C>>,
    wmem: &Memory,
    gp: &PortSet,
    at: u64,
    cap: &mut Capture,
    outcomes: &mut [Option<(u64, Dsr)>],
    cost: &mut BatchCost,
) {
    let trace_len = cap.trace.len();
    let mut li = 0;
    while li < lanes.len() {
        let lane = &mut lanes[li];
        let f = lane.fault;
        cap.log.clear();
        let mut view = TrialView::new(wmem, &mut cap.log);
        if f.kind == FaultKind::Transient {
            // Past its strike a transient's overlay is the identity.
            lane.cpu.step(&mut view, &mut cap.ports);
        } else {
            lane.cpu.step_with_overlay(&mut view, &mut cap.ports, |st| f.overlay_for::<C>(st, at));
        }
        cost.replayed_cycles += 1;
        let diff = cap.ports.diff_mask(gp);
        if diff == 0 {
            li += 1;
            continue;
        }
        let mut mem = cap.fork_mem(wmem);
        mem.apply_trial(&cap.log);
        let mut dsr_bits = diff;
        let mut c = at + 1;
        while c < at + u64::from(cap.window) && c < trace_len {
            lane.cpu.step_with_overlay(&mut mem, &mut cap.ports, |st| f.overlay_for::<C>(st, c));
            dsr_bits |=
                cap.ports.diff_mask(cap.trace.get(c).expect("capture within the golden trace"));
            cost.replayed_cycles += 1;
            c += 1;
        }
        let out = Some((at, Dsr::from_bits(dsr_bits)));
        for &o in &lane.outs {
            outcomes[o] = out;
        }
        cap.mem_pool.push(mem);
        lanes.swap_remove(li);
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

/// Wakes the parked stuck-ats whose bit golden's `committed` state (the
/// end of cycle `at`) now disagrees with: each becomes a scalar lane off
/// the committed state with its overlay applied. Two u64 ops filter each
/// watch group; only a firing group pays the per-entry scan.
fn wake_watches<C: CoreModel>(
    watches: &mut Vec<WatchGroup>,
    lanes: &mut Vec<Lane<C>>,
    committed: &C::State,
    at: u64,
    cost: &mut BatchCost,
) {
    let regs = C::registry();
    let first_new = lanes.len();
    let mut wi = 0;
    while wi < watches.len() {
        if watches[wi].watch.triggered(regs, committed) == 0 {
            wi += 1;
            continue;
        }
        let parked = std::mem::take(&mut watches[wi].parked);
        let mut kept = Vec::new();
        for entry in parked {
            if agrees(regs, entry.fault, committed) {
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
            entry.fault.overlay_for::<C>(&mut st, at);
            lanes.push(Lane::new(st, entry.fault, entry.outs, entry.reparks));
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
}

/// Adds fault `i` to the lane or watch entry already running its exact
/// duplicate `f` (same flop, kind and strike cycle: an identical
/// future); `false` when there is none.
fn join_duplicate<C>(
    lanes: &mut [Lane<C>],
    watches: &mut [WatchGroup],
    f: Fault,
    i: usize,
) -> bool {
    if let Some(lane) = lanes.iter_mut().find(|l| l.fault == f) {
        lane.outs.push(i);
        return true;
    }
    if let Some(entry) = watches.iter_mut().flat_map(|g| g.parked.iter_mut()).find(|e| e.fault == f)
    {
        entry.outs.push(i);
        return true;
    }
    false
}

/// Counts the faults still parked in a watch at the end of the trace:
/// masked without simulating a single cycle.
fn count_parked(watches: &[WatchGroup], cost: &mut BatchCost) {
    for group in watches {
        for entry in &group.parked {
            cost.parked_masked += entry.outs.len() as u64;
        }
    }
}

/// Runs one batched group on LR5: every fault in `faults` is injected
/// into the golden execution described by `checkpoints` + `trace`,
/// sharing a single fault-free walker replay of the group's span.
/// Returns one outcome per fault, aligned with the input order:
/// `Some((detect cycle, DSR))` for a manifested error, `None` for a
/// masked fault — bit-identical to running each fault through the
/// scalar engines.
///
/// This is [`run_batch_group_for`] plus LR5's quiet parking, which
/// rides inside the early-out and parked-lane layers.
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
    let mut cap = Capture::new(trace, window);
    let trace_len = trace.len();
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();
    let Some((mut walker, in_range)) =
        Walker::<Cpu>::start(checkpoints, trace_len, faults, &mut cost)
    else {
        return (outcomes, cost);
    };

    let regs = flops::registry();
    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<Lane<Cpu>> = Vec::new();
    let mut watches: Vec<WatchGroup> = Vec::new();
    let mut lot: Vec<QuietParked> = Vec::new();
    let rf_idx = rf_registry_index();
    // Cached `quiet_masks` aggregates, refreshed whenever the lot changes.
    let mut lot_stale = false;
    let (mut lot_wake, mut lot_stuck_rf, mut lot_watched) = (0u64, 0u32, 0usize);

    while walker.cycle < trace_len {
        if lanes.is_empty() && watches.is_empty() && lot.is_empty() {
            // Idle: nothing to simulate until the next strike.
            let Some(&i) = pending.peek() else {
                break;
            };
            walker.skip_to(checkpoints, faults[i].cycle, &mut cost);
        }

        let at = walker.cycle;
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
            let pre = walker.cpu.state();
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
                        let st = entry.residue.materialize(pre);
                        lanes.push(Lane::new(st, entry.fault, entry.outs, entry.reparks));
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

        // (1) Step every live lane through `at`, (2) then the walker.
        step_lanes(&mut lanes, &walker.mem, gp, at, &mut cap, &mut outcomes, &mut cost);
        walker.step(gp, &mut cost);
        let cycle = walker.cycle;
        let committed = walker.cpu.state();

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
            } else if converged(regs, lane.cpu.state(), committed, &mut lane.witness) {
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

        // (4) Wake parked stuck-ats whose bit golden now disagrees with.
        wake_watches(&mut watches, &mut lanes, committed, at, &mut cost);

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
                    || agrees(regs, e.fault, committed)
                {
                    pi += 1;
                    continue;
                }
                let entry = lot.swap_remove(pi);
                let mut st = entry.residue.materialize(committed);
                entry.fault.overlay(&mut st, at);
                lanes.push(Lane::new(st, entry.fault, entry.outs, entry.reparks));
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
            if join_duplicate(&mut lanes, &mut watches, f, i) {
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
                let g = regs[usize::from(f.flop.reg)].read(committed, lane);
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
            if layers.parked_lanes && agrees(regs, f, committed) {
                park(&mut watches, f, vec![i], 0);
                continue;
            }
            let mut st = committed.clone();
            f.overlay(&mut st, at);
            lanes.push(Lane::new(st, f, vec![i], 0));
            cost.lane_activations += 1;
        }
    }

    // Faults still parked (or still live) at the end of the trace are
    // masked; `outcomes` already says so. Parked ones never cost a
    // simulated cycle — worth counting.
    count_parked(&watches, &mut cost);
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

/// Runs one batched group on any core model: [`run_batch_group`]'s
/// contract, with the layers that do not depend on the core's
/// microstructure.
///
/// * Fan-out (always on): every fault becomes a lane off the walker's
///   committed state at its strike cycle; lanes stay memoryless behind
///   a [`TrialView`] until they first diverge.
/// * `early_out`: a transient's lane retires masked the cycle its state
///   equals the walker's ([`converged`] over the core's flop registry).
/// * `parked_lanes`: a stuck-at whose forced bit agrees with golden is
///   parked in a [`LaneWatch`] instead of stepped — at admission, and
///   again when a woken lane re-converges (up to [`REPARK_CAP`] times)
///   — and wakes into a lane off the committed state the cycle golden's
///   bit disagrees.
///
/// Both are sound on any core whose [`CoreModel::State`] is complete: a
/// lane whose ports have matched golden so far shares the walker's
/// memory, so equal core state means an identical future (DESIGN.md
/// §12). Outcomes are bit-identical to the scalar engines whatever the
/// layer set.
pub fn run_batch_group_for<C: CoreModel>(
    checkpoints: &GoldenCheckpoints<C::State>,
    trace: &PortTrace,
    faults: &[Fault],
    window: u32,
    layers: BatchConfig,
) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
    let mut cap = Capture::new(trace, window);
    let trace_len = trace.len();
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();
    let Some((mut walker, in_range)) =
        Walker::<C>::start(checkpoints, trace_len, faults, &mut cost)
    else {
        return (outcomes, cost);
    };

    let regs = C::registry();
    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<Lane<C>> = Vec::new();
    let mut watches: Vec<WatchGroup> = Vec::new();

    while walker.cycle < trace_len {
        if lanes.is_empty() && watches.is_empty() {
            let Some(&i) = pending.peek() else {
                break;
            };
            walker.skip_to(checkpoints, faults[i].cycle, &mut cost);
        }

        let at = walker.cycle;
        let gp = trace.get(at).expect("walker within the golden trace");
        step_lanes(&mut lanes, &walker.mem, gp, at, &mut cap, &mut outcomes, &mut cost);
        walker.step(gp, &mut cost);
        let committed = walker.cpu.state();

        // Convergence against the walker's committed state: a masked
        // transient retires, a stuck-at whose forced bit agrees with
        // golden again goes back into a watch.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            let checked = match f.kind {
                FaultKind::Transient => layers.early_out,
                _ => layers.parked_lanes && lane.reparks < REPARK_CAP,
            };
            if !checked || !converged(regs, lane.cpu.state(), committed, &mut lane.witness) {
                li += 1;
                continue;
            }
            let lane = lanes.swap_remove(li);
            if f.kind == FaultKind::Transient {
                let n = lane.outs.len() as u64;
                cost.masked_early_out += n;
                cost.early_out_cycles_saved += (trace_len - walker.cycle) * n;
            } else {
                park(&mut watches, f, lane.outs, lane.reparks + 1);
            }
        }

        wake_watches(&mut watches, &mut lanes, committed, at, &mut cost);

        // Admit faults striking at `at` (exact duplicates share a lane
        // or a watch entry).
        while pending.peek().is_some_and(|&i| faults[i].cycle == at) {
            let i = pending.next().expect("peeked");
            let f = faults[i];
            if join_duplicate(&mut lanes, &mut watches, f, i) {
                continue;
            }
            if layers.parked_lanes && agrees(regs, f, committed) {
                park(&mut watches, f, vec![i], 0);
                continue;
            }
            let mut st = committed.clone();
            f.overlay_for::<C>(&mut st, at);
            lanes.push(Lane::new(st, f, vec![i], 0));
            cost.lane_activations += 1;
        }
    }

    count_parked(&watches, &mut cost);
    (outcomes, cost)
}

/// Per-core batched engine: LR5 runs [`run_batch_group`], whose quiet
/// parking decodes LR5's few read and write sites of quiet state; any
/// other core runs the core-generic [`run_batch_group_for`]. Both honour
/// every layer set, and a group's outcomes never depend on it.
pub trait CoreBatch: CoreModel {
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
    fn run_batch_group(
        checkpoints: &GoldenCheckpoints<<Lr7 as CoreModel>::State>,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
        run_batch_group_for::<Lr7>(checkpoints, trace, faults, window, layers)
    }
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

    /// One LR7 fault on bit 0 of flop `name` striking mid-run of rspeed:
    /// its outcome and cost under the `full` layers, and the walker's
    /// own cycles.
    fn lr7_single_fault(name: &str, kind: FaultKind) -> (Option<(u64, Dsr)>, BatchCost, u64) {
        let w = lockstep_workloads::Workload::find("rspeed").unwrap();
        let cap = w.golden_capture_for::<Lr7>(5, 400_000, 4096);
        let reg = Lr7::registry().iter().position(|r| r.name == name).unwrap() as u16;
        let strike = cap.run.cycles / 2;
        let fault = Fault::new(lockstep_cpu::FlopId { reg, lane: 0, bit: 0 }, kind, strike);
        let (outcomes, cost) = <Lr7 as CoreBatch>::run_batch_group(
            &cap.checkpoints,
            &cap.trace,
            &[fault],
            8,
            BatchConfig::FULL,
        );
        let walker = cap.trace.len() - cap.checkpoints.nearest_at(strike).unwrap().cycle;
        (outcomes[0], cost, walker)
    }

    #[test]
    fn lr7_transient_in_an_overwritten_latch_retires_early() {
        // `imc_rdata` is a write-only fetch latch: the next fetch
        // overwrites the flipped bit, the lane's state equals the
        // walker's again, and the lane must retire there.
        let (outcome, cost, _) = lr7_single_fault("imc_rdata", FaultKind::Transient);
        assert_eq!(outcome, None);
        assert_eq!(cost.masked_early_out, 1);
        assert!(cost.early_out_cycles_saved > 0);
    }

    #[test]
    fn lr7_stuck_at_agreeing_with_golden_parks_for_free() {
        // A fault-free fetch never raises `imc_err`, so a stuck-at-0
        // there agrees with golden to the end of the trace: it parks at
        // admission and never costs a lane cycle.
        let (outcome, cost, walker) = lr7_single_fault("imc_err", FaultKind::StuckAt0);
        assert_eq!(outcome, None);
        assert_eq!(cost.parked_masked, 1);
        assert!(
            cost.replayed_cycles <= walker + 1,
            "cost {} simulated cycles, walker alone {walker}",
            cost.replayed_cycles
        );
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
