//! Dirty-set tracking over the flop file: fast divergence scans between
//! a faulty CPU state and its golden reference, and bit-parallel watch
//! masks for parked stuck-at faults.
//!
//! Both primitives exploit the same structural fact as
//! [`flops::unit_flip_deltas`](crate::flops::unit_flip_deltas): the flop
//! file is organized as (register, lane) pairs of up to 64 bits each, so
//! one `u64` load compares (or watches) up to 64 flip-flops at once.
//!
//! * [`DirtyWitness`] accelerates the per-cycle "has this faulty lane
//!   re-converged with golden?" question of the batched fault-simulation
//!   engine. A lane that is going to stay divergent usually differs in
//!   the *same* (register, lane) pair cycle after cycle — the witness —
//!   so the common case is a single `u64` compare instead of a full
//!   state scan.
//! * [`LaneWatch`] packs every parked stuck-at fault targeting one
//!   (register, lane) pair into two `u64` masks. A parked stuck-at
//!   (golden's bit currently equals the stuck value) costs *zero*
//!   simulation; the watch fires the cycle golden's committed bit first
//!   disagrees with the stuck value, which is exactly when the faulty
//!   machine first diverges from golden.
//!
//! Those two work on any core: they take the core's flop registry
//! ([`crate::CoreModel::registry`]) and need only that its state type
//! be complete, which every [`crate::CoreModel`] guarantees. The rest
//! of the module is specific to LR5's [`CpuState`]:
//!
//! * The *quiet set* — register file, return-address stack, CSRs and
//!   counters — is the state a parked transient may differ in:
//!   [`quiet_confined`] admits a lane whose whole difference lies there,
//!   and [`QuietResidue`] stores that difference so the faulty machine
//!   can be rebuilt from golden's live state when it must wake.

use std::sync::OnceLock;

use lockstep_isa::Csr;

use crate::flops::{registry, FlopReg};
use crate::state::CpuState;
use crate::units::UnitId;

/// Cached location of the last known state difference: an index into
/// a core's flop registry plus a lane within that register.
///
/// Purely an accelerator — [`converged`] is correct for any witness
/// value, including the default empty one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyWitness {
    pair: Option<(u16, u16)>,
}

impl DirtyWitness {
    /// A witness with no cached difference (forces a full scan).
    pub fn new() -> DirtyWitness {
        DirtyWitness::default()
    }
}

/// Whether `a` and `b` are bit-identical states of the core whose flop
/// registry is `regs`, updating `witness` with the location of a
/// difference when they are not.
///
/// Fast paths, in order:
///
/// 1. the witnessed (register, lane) pair still differs — one masked
///    `u64` compare;
/// 2. a full registry scan finds a (new) differing pair — recorded as
///    the next witness;
/// 3. the registry is clean: fall back to the whole-struct equality,
///    which is authoritative (it also covers bits above a register's
///    declared width, which the masked registry reads cannot see).
pub fn converged<S: PartialEq>(
    regs: &[FlopReg<S>],
    a: &S,
    b: &S,
    witness: &mut DirtyWitness,
) -> bool {
    if let Some((r, l)) = witness.pair {
        let reg = &regs[r as usize];
        if reg.read(a, l as usize) != reg.read(b, l as usize) {
            return false;
        }
    }
    for (r, reg) in regs.iter().enumerate() {
        for lane in 0..reg.lanes as usize {
            if reg.read(a, lane) != reg.read(b, lane) {
                witness.pair = Some((r as u16, lane as u16));
                return false;
            }
        }
    }
    witness.pair = None;
    a == b
}

/// Index of the architectural register file's (sole) entry in
/// [`registry`]: 31 lanes of 32 bits, lane
/// `r - 1` holding architectural register `r`.
pub fn rf_registry_index() -> u16 {
    static IDX: OnceLock<u16> = OnceLock::new();
    *IDX.get_or_init(|| {
        registry()
            .iter()
            .position(|r| r.unit == UnitId::Rf)
            .expect("flop registry has a register-file entry") as u16
    })
}

// --- The quiet set ---
//
// State the pipeline touches only at a few sites that golden's pre-cycle
// state decodes (see `crate::exec::quiet_touch`): the register file, the
// return-address stack, the software-visible CSRs and the two counters.
// A *quiet mask* has one bit per (register, lane) pair of that set.

/// Quiet-mask bit of architectural register `r` is `QUIET_RF + r - 1`.
pub const QUIET_RF: u32 = 0;
/// Quiet-mask bit of return-address-stack entry `i` is `QUIET_RAS + i`.
pub const QUIET_RAS: u32 = 31;
/// Quiet-mask bit of CSR `QUIET_CSRS[i]` is `QUIET_CSR + i`.
pub(crate) const QUIET_CSR: u32 = 39;
/// The CSRs in the quiet set, in quiet-mask order, each with the
/// registry name of its flops. `misr` is outside: every `csrw misr`
/// folds the old value in.
const QUIET_CSRS: [(Csr, &str); 9] = [
    (Csr::Status, "csr_status"),
    (Csr::Cause, "csr_cause"),
    (Csr::Epc, "csr_epc"),
    (Csr::Tvec, "csr_tvec"),
    (Csr::Scratch0, "csr_scratch0"),
    (Csr::Scratch1, "csr_scratch1"),
    (Csr::Hartid, "hartid"),
    (Csr::Cycle, "cycle"),
    (Csr::Instret, "instret"),
];
/// Quiet-mask bit of the `cycle` counter.
const QUIET_CYCLE: u32 = QUIET_CSR + 7;
/// Quiet-mask bit of the `instret` counter.
const QUIET_INSTRET: u32 = QUIET_CSR + 8;
/// Number of (register, lane) pairs in the quiet set.
pub const QUIET_PAIRS: usize = 48;
/// The counter bits of a quiet mask. Both machines increment a counter
/// under the same (non-quiet) conditions, so a counter's residue is an
/// additive offset that survives every increment.
pub const QUIET_COUNTERS: u64 = 1 << QUIET_CYCLE | 1 << QUIET_INSTRET;

/// Marks a registry entry outside the quiet set in [`quiet_layout`].
const NOT_QUIET: u8 = u8::MAX;

/// Both directions of the quiet-set layout: per registry index, the
/// quiet-mask bit of lane 0 (or [`NOT_QUIET`]); per quiet-mask bit, its
/// `(registry index, lane)` pair.
#[allow(clippy::type_complexity)]
fn quiet_layout() -> &'static (Vec<u8>, [(u16, u16); QUIET_PAIRS]) {
    static LAYOUT: OnceLock<(Vec<u8>, [(u16, u16); QUIET_PAIRS])> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let regs = registry();
        let mut base = vec![NOT_QUIET; regs.len()];
        let mut pairs = [(u16::MAX, 0u16); QUIET_PAIRS];
        let csrs = QUIET_CSRS.iter().zip(QUIET_CSR..).map(|(&(_, name), bit)| (name, bit));
        for (name, first) in [("regs", QUIET_RF), ("ras", QUIET_RAS)].into_iter().chain(csrs) {
            let r = regs.iter().position(|reg| reg.name == name).expect("quiet register exists");
            base[r] = first as u8;
            for lane in 0..regs[r].lanes {
                pairs[(first + u32::from(lane)) as usize] = (r as u16, lane);
            }
        }
        assert!(pairs.iter().all(|p| p.0 != u16::MAX), "quiet layout has a hole");
        (base, pairs)
    })
}

/// The quiet-mask bit of a (registry index, lane) pair, or `None` when
/// the pair is outside the quiet set.
pub fn quiet_bit(reg: u16, lane: u16) -> Option<u32> {
    match quiet_layout().0[reg as usize] {
        NOT_QUIET => None,
        first => Some(u32::from(first) + u32::from(lane)),
    }
}

/// The quiet-mask bit of a CSR, or `None` for `misr`.
pub(crate) fn quiet_csr_bit(csr: Csr) -> Option<u32> {
    QUIET_CSRS.iter().zip(QUIET_CSR..).find(|(&(c, _), _)| c == csr).map(|(_, bit)| bit)
}

/// Whether the entire difference between `a` and `b` is confined to the
/// quiet set. Returns the quiet mask of differing pairs — `Some(0)`
/// means the states are bit-identical — or `None` when any state outside
/// the quiet set differs.
///
/// This is the admission test for quiet parking: every read and write of
/// a quiet pair is decodable from the pre-cycle state
/// ([`crate::exec::quiet_touch`], [`crate::exec::rf_write_of`]), so a
/// confined lane evolves in provable lockstep with golden at zero
/// simulation cost until one of its dirty pairs may be touched.
///
/// Shares [`DirtyWitness`] with [`converged`]: when the witnessed pair
/// is outside the quiet set and still differs, the answer is `None` in
/// one masked `u64` compare. The `Some` path is authoritative — it
/// verifies by substitution (copy `b`'s differing pairs into a clone of
/// `a` and require whole-struct equality) so bits invisible to the
/// masked registry reads cannot slip through.
pub fn quiet_confined(a: &CpuState, b: &CpuState, witness: &mut DirtyWitness) -> Option<u64> {
    let regs = registry();
    let (base, pairs) = quiet_layout();
    if let Some((r, l)) = witness.pair {
        if base[r as usize] == NOT_QUIET {
            let reg = &regs[r as usize];
            if reg.read(a, l as usize) != reg.read(b, l as usize) {
                return None;
            }
        }
    }
    let mut dirty = 0u64;
    for (r, reg) in regs.iter().enumerate() {
        for lane in 0..reg.lanes as usize {
            if reg.read(a, lane) != reg.read(b, lane) {
                if base[r] == NOT_QUIET {
                    witness.pair = Some((r as u16, lane as u16));
                    return None;
                }
                dirty |= 1 << (usize::from(base[r]) + lane);
            }
        }
    }
    if dirty == 0 {
        return if a == b { Some(0) } else { None };
    }
    let (r, l) = pairs[63 - dirty.leading_zeros() as usize];
    witness.pair = Some((r, l));
    let mut patched = a.clone();
    for_each_bit(dirty, |bit| {
        let (r, lane) = pairs[bit as usize];
        let reg = &regs[r as usize];
        reg.write(&mut patched, lane as usize, reg.read(b, lane as usize));
    });
    (patched == *b).then_some(dirty)
}

/// Calls `f` with the index of every set bit of `mask`, lowest first.
fn for_each_bit(mut mask: u64, mut f: impl FnMut(u32)) {
    while mask != 0 {
        f(mask.trailing_zeros());
        mask &= mask - 1;
    }
}

/// A faulty machine's difference from golden, confined to the quiet set:
/// the dirty-pair mask and, per dirty pair, the faulty machine's value —
/// or, for the two counters, its additive offset from golden's value
/// (both machines increment a counter under the same conditions, so the
/// offset survives every increment). Together with golden's live state
/// it *is* the faulty machine ([`QuietResidue::materialize`]).
#[derive(Debug, Clone)]
pub struct QuietResidue {
    dirty: u64,
    vals: [u64; QUIET_PAIRS],
}

impl Default for QuietResidue {
    fn default() -> QuietResidue {
        QuietResidue { dirty: 0, vals: [0; QUIET_PAIRS] }
    }
}

impl QuietResidue {
    /// The residue of `faulty` over `golden` on the pairs of `dirty` (a
    /// [`quiet_confined`] verdict for the two states).
    pub fn capture(golden: &CpuState, faulty: &CpuState, dirty: u64) -> QuietResidue {
        let regs = registry();
        let pairs = &quiet_layout().1;
        let mut res = QuietResidue::default();
        for_each_bit(dirty, |bit| {
            let (r, lane) = pairs[bit as usize];
            let reg = &regs[r as usize];
            res.assign(bit, reg.read(faulty, lane as usize), reg.read(golden, lane as usize));
        });
        res
    }

    /// The quiet mask of pairs where the faulty machine differs.
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// Records that quiet pair `bit` holds `faulty` in the faulty
    /// machine and `golden` in golden's (the pair turns clean when the
    /// two agree).
    pub fn assign(&mut self, bit: u32, faulty: u64, golden: u64) {
        let flag = 1u64 << bit;
        if faulty == golden {
            self.dirty &= !flag;
            return;
        }
        self.dirty |= flag;
        self.vals[bit as usize] =
            if QUIET_COUNTERS & flag != 0 { faulty.wrapping_sub(golden) } else { faulty };
    }

    /// The faulty machine implied by this residue: `golden` with the
    /// dirty pairs substituted (counters offset).
    pub fn materialize(&self, golden: &CpuState) -> CpuState {
        let regs = registry();
        let pairs = &quiet_layout().1;
        let mut st = golden.clone();
        for_each_bit(self.dirty, |bit| {
            let (r, lane) = pairs[bit as usize];
            let reg = &regs[r as usize];
            let v = self.vals[bit as usize];
            let v = if QUIET_COUNTERS & 1 << bit != 0 {
                reg.read(golden, lane as usize).wrapping_add(v)
            } else {
                v
            };
            reg.write(&mut st, lane as usize, v);
        });
        st
    }
}

/// Bit-parallel stuck-at watch over one (register, lane) pair of the
/// flop file.
///
/// Bit `b` of `stuck0` (resp. `stuck1`) is set when at least one parked
/// stuck-at-0 (resp. stuck-at-1) fault targets flip-flop `b` of the
/// pair. While golden's bit equals the stuck value the fault overlay is
/// the identity — the faulty machine *is* the golden machine — so the
/// fault needs no simulation at all; [`LaneWatch::triggered`] reports
/// the bits whose faults must wake up because golden's committed value
/// now disagrees with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWatch {
    /// Index into the core's flop registry.
    pub reg: u16,
    /// Lane within the register.
    pub lane: u16,
    /// Bits watched by parked stuck-at-0 faults.
    pub stuck0: u64,
    /// Bits watched by parked stuck-at-1 faults.
    pub stuck1: u64,
}

impl LaneWatch {
    /// An empty watch over one (register, lane) pair.
    pub fn new(reg: u16, lane: u16) -> LaneWatch {
        LaneWatch { reg, lane, stuck0: 0, stuck1: 0 }
    }

    /// `true` when no fault is parked on this pair.
    pub fn is_empty(&self) -> bool {
        self.stuck0 == 0 && self.stuck1 == 0
    }

    /// The watched bits whose stuck value disagrees with `state`'s
    /// committed value: bit `b` of the result is set when a stuck-at-0
    /// fault watches a bit that is now 1, or a stuck-at-1 fault watches
    /// a bit that is now 0. Two `u64` ops check up to 128 parked faults.
    /// `regs` is the registry of the core `state` belongs to.
    pub fn triggered<S>(&self, regs: &[FlopReg<S>], state: &S) -> u64 {
        let v = regs[self.reg as usize].read(state, self.lane as usize);
        (v & self.stuck0) | (!v & self.stuck1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::{all_flops, flip_bit, get_bit, label_of, set_bit, FlopId};

    #[test]
    fn identical_states_converge_with_any_witness() {
        let a = CpuState::reset(0);
        let b = a.clone();
        let mut w = DirtyWitness::new();
        assert!(converged(registry(), &a, &b, &mut w));
        assert_eq!(w, DirtyWitness::new());
        // A stale witness must not produce a false negative.
        let mut stale = DirtyWitness { pair: Some((0, 0)) };
        assert!(converged(registry(), &a, &b, &mut stale));
    }

    #[test]
    fn single_flip_is_found_and_witnessed() {
        let a = CpuState::reset(0);
        for id in all_flops().step_by(131) {
            let mut b = a.clone();
            flip_bit(&mut b, id);
            let mut w = DirtyWitness::new();
            assert!(!converged(registry(), &a, &b, &mut w), "{} not seen", label_of(id));
            assert_eq!(w.pair, Some((id.reg, id.lane)), "{} witness wrong", label_of(id));
            // Second query hits the witness fast path.
            assert!(!converged(registry(), &a, &b, &mut w));
        }
    }

    #[test]
    fn witness_tracks_a_moving_difference() {
        let a = CpuState::reset(0);
        let first = all_flops().next().unwrap();
        let last = all_flops().last().unwrap();
        let mut b = a.clone();
        flip_bit(&mut b, first);
        let mut w = DirtyWitness::new();
        assert!(!converged(registry(), &a, &b, &mut w));
        // Heal the first difference, introduce another elsewhere: the
        // stale witness misses, the rescan must find the new pair.
        flip_bit(&mut b, first);
        flip_bit(&mut b, last);
        assert!(!converged(registry(), &a, &b, &mut w));
        assert_eq!(w.pair, Some((last.reg, last.lane)));
        flip_bit(&mut b, last);
        assert!(converged(registry(), &a, &b, &mut w));
    }

    #[test]
    fn watch_triggers_exactly_on_disagreement() {
        let state = CpuState::reset(0);
        let id = all_flops().nth(40).unwrap();
        let mut watch = LaneWatch::new(id.reg, id.lane);
        assert!(watch.is_empty());

        // Park a stuck-at matching the current bit value: no trigger.
        let v = get_bit(&state, id);
        if v {
            watch.stuck1 |= 1 << id.bit;
        } else {
            watch.stuck0 |= 1 << id.bit;
        }
        assert!(!watch.is_empty());
        assert_eq!(watch.triggered(registry(), &state), 0);

        // Golden's bit flips away from the stuck value: trigger fires.
        let mut moved = state.clone();
        flip_bit(&mut moved, id);
        assert_eq!(watch.triggered(registry(), &moved), 1 << id.bit);
    }

    #[test]
    fn watch_matches_per_bit_semantics_for_every_flop() {
        // For a sample of flops and both stuck kinds, the packed watch
        // agrees with the scalar definition "trigger iff golden's bit
        // differs from the stuck value".
        let mut state = CpuState::reset(0);
        for (i, id) in all_flops().step_by(97).enumerate() {
            if i % 2 == 0 {
                set_bit(&mut state, id, true);
            }
        }
        for id in all_flops().step_by(53) {
            for stuck1 in [false, true] {
                let mut watch = LaneWatch::new(id.reg, id.lane);
                if stuck1 {
                    watch.stuck1 = 1 << id.bit;
                } else {
                    watch.stuck0 = 1 << id.bit;
                }
                let fired = watch.triggered(registry(), &state) & (1 << id.bit) != 0;
                assert_eq!(
                    fired,
                    get_bit(&state, id) != stuck1,
                    "{} stuck-at-{} trigger wrong",
                    label_of(id),
                    u8::from(stuck1)
                );
            }
        }
    }

    #[test]
    fn quiet_confined_classifies_quiet_and_other_diffs() {
        let a = CpuState::reset(0);
        let mut w = DirtyWitness::new();
        // Identical states: confined with an empty dirty set.
        assert_eq!(quiet_confined(&a, &a.clone(), &mut w), Some(0));

        // Diffs in registers 3 and 17, ras[5], scratch0 and cycle only:
        // the mask has exactly those bits.
        let mut b = a.clone();
        b.set_reg(3, 0xDEAD_BEEF);
        b.set_reg(17, 1);
        b.ras[5] = 0x40;
        b.csr_scratch0 = 9;
        b.cycle = 1 << 40;
        let expected = 1 << (QUIET_RF + 2)
            | 1 << (QUIET_RF + 16)
            | 1 << (QUIET_RAS + 5)
            | 1 << quiet_csr_bit(Csr::Scratch0).unwrap()
            | 1 << QUIET_CYCLE;
        assert_eq!(quiet_confined(&a, &b, &mut w), Some(expected));

        // Any diff outside the quiet set on top disqualifies the lane.
        let mut c = b.clone();
        c.ex_valid ^= 1;
        assert_eq!(quiet_confined(&a, &c, &mut w), None);
        // The witness now points at that pair: the fast path must keep
        // answering None in O(1) while that diff persists.
        let (r, l) = w.pair.unwrap();
        assert_eq!(quiet_bit(r, l), None);
        assert_eq!(quiet_confined(&a, &c, &mut w), None);
        // csr_misr and ras_sp are outside the quiet set.
        let mut d = a.clone();
        d.csr_misr = 1;
        assert_eq!(quiet_confined(&a, &d, &mut DirtyWitness::new()), None);
        let mut e = a.clone();
        e.ras_sp = 1;
        assert_eq!(quiet_confined(&a, &e, &mut DirtyWitness::new()), None);
    }

    #[test]
    fn quiet_layout_covers_every_quiet_flop_once() {
        let mut seen = 0u64;
        for (r, reg) in registry().iter().enumerate() {
            for lane in 0..reg.lanes {
                if let Some(bit) = quiet_bit(r as u16, lane) {
                    assert_eq!(seen & 1 << bit, 0, "{}[{lane}] aliases bit {bit}", reg.name);
                    seen |= 1 << bit;
                }
            }
        }
        assert_eq!(seen, (1 << QUIET_PAIRS) - 1);
        for csr in Csr::ALL {
            let bit = quiet_csr_bit(*csr);
            assert_eq!(bit.is_none(), *csr == Csr::Misr, "{csr}");
        }
    }

    #[test]
    fn residue_round_trips_and_counter_offsets_survive_increments() {
        let golden = CpuState::reset(0);
        let mut faulty = golden.clone();
        faulty.set_reg(9, 77);
        faulty.ras[2] = 0x1234;
        faulty.csr_tvec = 0x400;
        faulty.instret = 5;
        let dirty = quiet_confined(&golden, &faulty, &mut DirtyWitness::new()).unwrap();
        let res = QuietResidue::capture(&golden, &faulty, dirty);
        assert_eq!(res.dirty(), dirty);
        assert_eq!(res.materialize(&golden), faulty);

        // Both machines count on: the offset is carried, not the value.
        let mut g2 = golden.clone();
        let mut f2 = faulty.clone();
        g2.instret += 1000;
        f2.instret += 1000;
        assert_eq!(res.materialize(&g2), f2);
        // Counters wrap at their 48-bit width in both machines.
        g2.instret = (1 << 48) - 2;
        f2.instret = 3;
        assert_eq!(res.materialize(&g2), f2);

        // Assigning golden's own value cleans a pair.
        let mut res = res;
        res.assign(QUIET_RF + 8, 0, 0);
        assert_eq!(res.dirty(), dirty & !(1 << (QUIET_RF + 8)));
    }

    #[test]
    fn converged_and_watch_work_on_any_core_registry() {
        use crate::flops::{all_flops_in, flip_bit_in, get_bit_in};
        use crate::lr7::Lr7State;
        use crate::CoreModel;

        let regs = crate::Lr7::registry();
        let a = Lr7State::reset(0);
        for id in all_flops_in(regs).step_by(89) {
            let mut b = a.clone();
            flip_bit_in(regs, &mut b, id);
            let mut w = DirtyWitness::new();
            assert!(!converged(regs, &a, &b, &mut w));
            assert_eq!(w.pair, Some((id.reg, id.lane)));
            flip_bit_in(regs, &mut b, id);
            assert!(converged(regs, &a, &b, &mut w));

            let mut watch = LaneWatch::new(id.reg, id.lane);
            watch.stuck1 = 1 << id.bit;
            let fired = watch.triggered(regs, &a) != 0;
            assert_eq!(fired, !get_bit_in(regs, &a, id));
        }
    }

    #[test]
    fn rf_registry_index_is_the_register_bank() {
        let reg = &registry()[rf_registry_index() as usize];
        assert_eq!(reg.name, "regs");
        assert_eq!((reg.lanes, reg.width), (31, 32));
        // Lane r-1 holds architectural register r.
        let mut s = CpuState::reset(0);
        s.set_reg(5, 0x1234_5678);
        assert_eq!(reg.read(&s, 4), 0x1234_5678);
    }

    #[test]
    fn high_lane_pairs_are_addressable() {
        // The register bank's upper lanes exercise the lane indexing.
        let a = CpuState::reset(0);
        let mut b = a.clone();
        let rf_high = all_flops()
            .filter(|id| crate::flops::registry()[id.reg as usize].lanes > 8)
            .last()
            .unwrap();
        flip_bit(&mut b, rf_high);
        let mut w = DirtyWitness::new();
        assert!(!converged(registry(), &a, &b, &mut w));
        assert_eq!(w.pair, Some((rf_high.reg, rf_high.lane)));
        let _ = FlopId { reg: rf_high.reg, lane: rf_high.lane, bit: rf_high.bit };
    }
}
