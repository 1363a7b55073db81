//! The shadow-golden replay contract, at the harness level: for random
//! programs and random single faults, [`ShadowLockstep`] must report
//! the **same per-cycle event stream** — detection cycles, accumulated
//! DSR bits, masked outcomes — as a live DMR [`LockstepSystem`] with
//! replicated memory, over the whole replay domain.
//!
//! Programs end in a loop-to-self (never halt), the golden trace spans
//! a fixed `T` cycles, and faults land well before `T - window`, so the
//! comparison domain is exactly the recorded trace: past its end the
//! shadow harness is out of replay domain by design (it reports
//! `Halted`), which is the one place the two diverge.

use lockstep_asm::assemble;
use lockstep_core::harness::{LockstepEvent, LockstepSystem};
use lockstep_core::shadow::ShadowLockstep;
use lockstep_cpu::{flops, Cpu, PortSet, PortTrace};
use lockstep_fault::{Fault, FaultKind};
use lockstep_mem::Memory;
use proptest::prelude::*;

const RAM: usize = 64 * 1024;
const TRACE_CYCLES: u64 = 400;

fn memory(source: &str, seed: u64) -> Memory {
    let program = assemble(source).expect("assembly failed");
    let mut mem = Memory::new(RAM, seed);
    mem.load_image(&program.to_bytes(RAM));
    mem
}

/// The fault-free reference: one CPU simulated for `TRACE_CYCLES`.
fn golden_trace(mem: &Memory) -> PortTrace {
    let mut mem = mem.clone();
    let mut cpu = Cpu::new(0);
    let mut ports = PortSet::new();
    let mut trace = PortTrace::new();
    for _ in 0..TRACE_CYCLES {
        cpu.step(&mut mem, &mut ports);
        trace.push(ports);
    }
    trace
}

/// A generated program: valid instructions over a confined
/// register/memory window, ending in a loop-to-self (never halts, so
/// `Halted` can only mean "trace exhausted").
fn arb_program() -> impl Strategy<Value = String> {
    let instr = prop_oneof![
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("add a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("xor a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("mul a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, -100i32..100).prop_map(|(a, b, i)| format!("addi a{a}, a{b}, {i}")),
        (0u8..6, 0u32..16).prop_map(|(a, o)| format!("sw a{a}, {}(gp)", o * 4)),
        (0u8..6, 0u32..16).prop_map(|(a, o)| format!("lw a{a}, {}(gp)", o * 4)),
        (0u8..6,).prop_map(|(a,)| format!("csrw misr, a{a}")),
        Just("nop".to_owned()),
    ];
    proptest::collection::vec(instr, 1..40).prop_map(|body| {
        let mut src = String::from("li gp, 0x4000\n");
        for line in body {
            src.push_str(&line);
            src.push('\n');
        }
        src.push_str("here: j here\n");
        src
    })
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    let flop_count = flops::all_flops().count();
    (
        0usize..flop_count,
        prop_oneof![
            Just(FaultKind::Transient),
            Just(FaultKind::StuckAt0),
            Just(FaultKind::StuckAt1),
        ],
        // Leave the full capture window inside the trace so both
        // harnesses accumulate over identical domains.
        0u64..TRACE_CYCLES - 64,
    )
        .prop_map(|(pick, kind, cycle)| {
            Fault::new(flops::all_flops().nth(pick).unwrap(), kind, cycle)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The property behind the campaign's shadow replay: per-cycle
    /// event equality between the trace-fed harness and the live
    /// replicated-memory DMR system, with the fault in CPU 0.
    #[test]
    fn shadow_matches_live_dmr_cycle_for_cycle(
        program in arb_program(),
        seed in any::<u64>(),
        fault in arb_fault(),
        window in prop_oneof![Just(1u32), Just(8), Just(16)],
    ) {
        let mem = memory(&program, seed);
        let golden = golden_trace(&mem);

        let mut live = LockstepSystem::new_replicated(2, mem.clone());
        live.set_capture_window(window);
        live.inject(0, fault);

        let mut shadow: ShadowLockstep = ShadowLockstep::new(mem, &golden);
        shadow.set_capture_window(window);
        shadow.inject(fault);

        // Step both to the end of the comparison domain. A detection
        // consumes up to `window` cycles in one step() call, so iterate
        // on the shadow harness's own cycle counter.
        while shadow.cycle() < TRACE_CYCLES - u64::from(window) {
            let s = shadow.step();
            let l = live.step();
            prop_assert_eq!(&s, &l, "event mismatch at cycle {}", shadow.cycle());
            prop_assert_eq!(shadow.cycle(), live.cycle(), "cycle counters drifted");
            if matches!(s, LockstepEvent::Halted) {
                break;
            }
        }
    }

    /// The checker's XOR compare is symmetric: a fault in the *other*
    /// CPU of the live pair yields the same detections the shadow
    /// harness reports for its single shadowed CPU.
    #[test]
    fn shadow_matches_live_dmr_with_fault_in_cpu1(
        program in arb_program(),
        seed in any::<u64>(),
        fault in arb_fault(),
    ) {
        let mem = memory(&program, seed);
        let golden = golden_trace(&mem);

        let mut live = LockstepSystem::new_replicated(2, mem.clone());
        live.set_capture_window(8);
        live.inject(1, fault);

        let mut shadow: ShadowLockstep = ShadowLockstep::new(mem, &golden);
        shadow.set_capture_window(8);
        shadow.inject(fault);

        while shadow.cycle() < TRACE_CYCLES - 8 {
            let s = shadow.step();
            let l = live.step();
            prop_assert_eq!(&s, &l, "event mismatch at cycle {}", shadow.cycle());
            if matches!(s, LockstepEvent::Halted) {
                break;
            }
        }
    }
}

/// Fault-free shadow replay never reports anything but `Running` until
/// the trace runs out, then reports `Halted` forever: the replay
/// domain's edge is explicit, not an error.
#[test]
fn fault_free_shadow_runs_to_trace_end_then_halts() {
    let mem = memory("li gp, 0x4000\naddi a0, a0, 1\nhere: j here\n", 3);
    let golden = golden_trace(&mem);
    let mut shadow: ShadowLockstep = ShadowLockstep::new(mem, &golden);
    for _ in 0..TRACE_CYCLES {
        assert_eq!(shadow.step(), LockstepEvent::Running);
    }
    assert_eq!(shadow.cycle(), TRACE_CYCLES);
    assert_eq!(shadow.step(), LockstepEvent::Halted);
    assert_eq!(shadow.step(), LockstepEvent::Halted, "trace exhaustion is sticky");
    assert_eq!(shadow.cycle(), TRACE_CYCLES, "no cycles consumed past the trace");
}

/// The batched engine's early-out hook: once `masked_from` reports
/// convergence with the live golden state, replaying the rest of the
/// trace must never produce a detection — and the hook must stay
/// conservative (never true while a fault's future is not provably
/// inert: before a transient strikes, or ever for a stuck-at).
#[test]
fn masked_from_is_sound_and_conservative() {
    let mem = memory(
        "li gp, 0x4000\nloop: addi a0, a0, 1\nxor a1, a0, a0\nsw a1, 0(gp)\nlw a2, 0(gp)\nj loop\n",
        7,
    );
    let golden = golden_trace(&mem);
    let strike = 50u64;

    let mut early_outs = 0usize;
    for (i, flop) in flops::all_flops().enumerate() {
        if i % 37 != 0 {
            continue;
        }
        let fault = Fault::new(flop, FaultKind::Transient, strike);
        let mut shadow: ShadowLockstep = ShadowLockstep::new(mem.clone(), &golden);
        shadow.set_capture_window(1);
        shadow.inject(fault);

        // Live golden twin tracking the fault-free state cycle by cycle.
        let mut gcpu = Cpu::new(0);
        let mut gmem = mem.clone();
        let mut gports = PortSet::new();

        let mut converged_at = None;
        let mut detected = false;
        while shadow.cycle() < TRACE_CYCLES {
            let at = shadow.cycle();
            let event = shadow.step();
            gcpu.step(&mut gmem, &mut gports);
            if matches!(event, LockstepEvent::ErrorDetected { .. }) {
                detected = true;
                break;
            }
            let masked = shadow.masked_from(gcpu.state());
            assert!(!masked || at >= strike, "masked_from fired before the transient struck");
            if masked && converged_at.is_none() {
                converged_at = Some(shadow.cycle());
            }
        }
        if let Some(c) = converged_at {
            early_outs += 1;
            assert!(!detected, "detection after masked_from fired at cycle {c}");
        }
    }
    assert!(early_outs > 0, "no sampled transient ever re-converged");

    // Stuck-ats never qualify: their overlay keeps forcing the bit.
    let flop = flops::all_flops().next().unwrap();
    let mut shadow: ShadowLockstep = ShadowLockstep::new(mem.clone(), &golden);
    shadow.inject(Fault::new(flop, FaultKind::StuckAt0, strike));
    let mut gcpu = Cpu::new(0);
    let mut gmem = mem.clone();
    let mut gports = PortSet::new();
    for _ in 0..5 {
        let _ = shadow.step();
        gcpu.step(&mut gmem, &mut gports);
        assert!(!shadow.masked_from(gcpu.state()), "stuck-at must never early-out");
    }
}
