//! Pre-state quiet-set oracle: `quiet_touch` must bound every read and
//! write of the quiet set — register file, return-address stack, CSRs
//! and counters — apart from the exact register-file write of
//! `rf_write_of` and the counter increments. It is the soundness
//! foundation of quiet parking in the batched fault engine: a parked
//! lane is stepped *zero* cycles while golden's pre-state (and golden's
//! recorded trap) proves its dirty pairs untouched, so any hole in the
//! oracle silently corrupts campaign results.

use lockstep_cpu::dirty::{quiet_bit, QUIET_PAIRS, QUIET_RAS, QUIET_RF};
use lockstep_cpu::{flops, quiet_touch, rf_write_of, Cpu, PortSet, QuietResidue, Sc};
use lockstep_mem::{TrialLog, TrialView};
use lockstep_workloads::Workload;

const MAX_CYCLES: usize = 30_000;
/// Probe one cycle in this many.
const PROBE_EVERY: usize = 3;
/// XORed into a perturbed pair: it changes every lane width in the set,
/// from the 2-bit `hartid` to the 48-bit counters.
const FLIP: u64 = 0x9A5A_1234_5679;

/// The hand-written kernels never call, return or trap, so this program
/// visits every remaining touch site: calls nested deeper than the
/// 8-entry RAS (so every slot is pushed and popped), `csrr`/`csrw` of
/// every quiet CSR, and traps through both the default and a software
/// trap vector.
static EXERCISER: Workload = Workload {
    name: "quiet_exerciser",
    description: "calls, returns, CSR accesses and traps",
    source: r"
.equ OUTPUT, 0xFFFF8000
    j    go
    nop
handler:                  ; the default trap vector
    csrr t3, cause
    csrr t4, epc
    csrw scratch1, t4
    jr   s4
vhandler:                 ; installed through tvec
    csrr t3, cause
    csrw epc, t3
    csrw cause, zero
    jr   s4
go:
    li   sp, 0x8000
    li   s1, OUTPUT
    li   s2, 12
loop:
    li   a0, 11           ; recursion deeper than the RAS
    call rec
    csrw scratch0, s2
    csrr a1, scratch0
    csrr a2, cycle
    csrr a3, instret
    csrr a4, status
    csrw status, a1
    csrr a5, hartid
    csrr a6, tvec
    csrr a7, scratch1
    la   s4, after_break
    ebreak
after_break:
    la   t0, vhandler
    csrw tvec, t0
    la   s4, after_misaligned
    li   t0, 0x1001
    lw   t1, 0(t0)
after_misaligned:
    csrw tvec, zero
    add  a1, a1, a2
    sw   a1, 0(s1)
    addi s2, s2, -1
    bnez s2, loop
    ecall
rec:
    addi sp, sp, -4
    sw   ra, 0(sp)
    addi a0, a0, -1
    beqz a0, rec_done
    call rec
rec_done:
    lw   ra, 0(sp)
    addi sp, sp, 4
    ret
",
};

#[test]
fn untouched_quiet_pairs_cannot_influence_a_cycle() {
    // Perturb every quiet pair *outside* the touch set, step golden and
    // the perturbed machine on the same memory, and require (a)
    // identical ports and (b) a post-state that is golden's with the
    // same residue — the pair's value unchanged, a counter's additive
    // offset unchanged, or the pair clean if golden's WB wrote it.
    // That is exactly the invariant that keeps a parked lane in
    // provable lockstep with golden.
    let regs = flops::registry();
    let pairs: Vec<(u32, usize, usize)> = (0..regs.len())
        .flat_map(|r| {
            (0..regs[r].lanes)
                .filter_map(move |l| quiet_bit(r as u16, l).map(|b| (b, r, usize::from(l))))
        })
        .collect();
    assert_eq!(pairs.len(), QUIET_PAIRS);

    let programs = Workload::all().iter().chain(lockstep_workloads::lc::all()).chain([&EXERCISER]);
    let mut touched = 0u64;
    let mut log = TrialLog::new();
    for workload in programs {
        let mut mem = workload.memory(0xC0FFEE);
        let mut cpu = Cpu::new(0);
        let mut ports = PortSet::new();
        let mut probed = [0u32; QUIET_PAIRS];
        for cycle in 0..MAX_CYCLES {
            if cycle % PROBE_EVERY == 0 {
                let pre = cpu.snapshot();
                let mut gold = Cpu::from_state(pre.clone());
                let mut gports = PortSet::new();
                log.clear();
                gold.step(&mut TrialView::new(&mem, &mut log), &mut gports);
                let touch = quiet_touch(&pre, gports.get(Sc::ExcCtl) & 1 == 1);
                touched |= touch;
                let written = rf_write_of(&pre);
                for &(bit, r, lane) in &pairs {
                    if touch & 1 << bit != 0 {
                        continue;
                    }
                    let reg = &regs[r];
                    let mut faulty = pre.clone();
                    reg.write(&mut faulty, lane, reg.read(&pre, lane) ^ FLIP);
                    let mut perturbed = Cpu::from_state(faulty.clone());
                    let mut pports = PortSet::new();
                    log.clear();
                    perturbed.step(&mut TrialView::new(&mem, &mut log), &mut pports);
                    let label = format!("{}[{lane}]", reg.name);
                    assert_eq!(
                        pports.diff_mask(&gports),
                        0,
                        "workload {} cycle {cycle}: untouched {label} leaked into ports",
                        workload.name
                    );
                    let mut residue = QuietResidue::capture(&pre, &faulty, 1 << bit);
                    if let Some((rd, v)) = written {
                        residue.assign(QUIET_RF + u32::from(rd) - 1, v.into(), v.into());
                    }
                    assert!(
                        residue.materialize(gold.state()) == *perturbed.state(),
                        "workload {} cycle {cycle}: untouched {label} changed or spread",
                        workload.name
                    );
                    probed[bit as usize] += 1;
                }
            }
            if cpu.step(&mut mem, &mut ports).halted {
                break;
            }
        }
        for (bit, n) in probed.iter().enumerate() {
            assert!(*n > 20, "workload {}: quiet pair {bit} probed only {n} times", workload.name);
        }
    }
    // Every touch site outside the register file was exercised: all RAS
    // slots, every quiet CSR and both counters.
    let beyond_rf = !0u64 << QUIET_RAS & ((1 << QUIET_PAIRS) - 1);
    assert_eq!(touched & beyond_rf, beyond_rf, "touch sites never exercised: {touched:#x}");
}
