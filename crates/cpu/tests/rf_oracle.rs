//! Pre-state register-file oracles: `rf_write_of` must predict every
//! register-file write exactly, and `rf_read_candidates` must bound the
//! registers whose value can influence a cycle. Together they are the
//! soundness foundation of register-file parking in the batched fault
//! engine: a parked lane is stepped *zero* cycles while golden's
//! pre-state proves its dirty registers are unread, so any hole in
//! either oracle silently corrupts campaign results.

use lockstep_cpu::{quiet_confined, rf_read_candidates, rf_write_of, Cpu, DirtyWitness, PortSet};
use lockstep_workloads::Workload;

const MAX_CYCLES: usize = 30_000;

#[test]
fn rf_write_of_predicts_every_register_write() {
    for workload in Workload::all() {
        let mut mem = workload.memory(0xC0FFEE);
        let mut cpu = Cpu::new(0);
        let mut ports = PortSet::new();
        let mut writes = 0u64;
        for cycle in 0..MAX_CYCLES {
            let pre = cpu.snapshot();
            let oracle = rf_write_of(&pre);
            let info = cpu.step(&mut mem, &mut ports);
            let post = cpu.state();
            for r in 1..=31usize {
                if post.reg(r) != pre.reg(r) {
                    assert_eq!(
                        oracle,
                        Some((r as u8, post.reg(r))),
                        "workload {} cycle {cycle}: unpredicted write to x{r}",
                        workload.name
                    );
                }
            }
            if let Some((r, v)) = oracle {
                writes += 1;
                assert_eq!(
                    post.reg(usize::from(r)),
                    v,
                    "workload {} cycle {cycle}: oracle wrote wrong value to x{r}",
                    workload.name
                );
            }
            if info.halted {
                break;
            }
        }
        assert!(writes > 100, "workload {} exercised too few writes", workload.name);
    }
}

#[test]
fn unread_registers_cannot_influence_a_cycle() {
    // Perturb a register *outside* the candidate read set, step both
    // machines on identical memories, and require (a) identical ports
    // and (b) a post-state difference still confined to that register —
    // exactly the invariant that keeps a parked lane in provable
    // lockstep with golden.
    for workload in Workload::all() {
        let mut mem = workload.memory(0xC0FFEE);
        let mut cpu = Cpu::new(0);
        let mut ports = PortSet::new();
        let mut probes = 0u64;
        for cycle in 0..MAX_CYCLES {
            if cycle % 13 == 0 {
                let candidates = rf_read_candidates(cpu.state());
                for r in [1usize, 7, 15, 28] {
                    if candidates & (1 << (r - 1)) != 0 {
                        continue;
                    }
                    let mut perturbed = Cpu::from_state(cpu.snapshot());
                    perturbed.state_mut().set_reg(r, cpu.state().reg(r) ^ 0x5A5A_1234);
                    let mut pmem = mem.clone();
                    let mut pports = PortSet::new();
                    perturbed.step(&mut pmem, &mut pports);

                    let mut gold = Cpu::from_state(cpu.snapshot());
                    let mut gmem = mem.clone();
                    let mut gports = PortSet::new();
                    gold.step(&mut gmem, &mut gports);

                    assert_eq!(
                        pports.diff_mask(&gports),
                        0,
                        "workload {} cycle {cycle}: unread x{r} leaked into ports",
                        workload.name
                    );
                    let mut w = DirtyWitness::new();
                    let dirty = quiet_confined(gold.state(), perturbed.state(), &mut w)
                        .unwrap_or_else(|| {
                            panic!(
                                "workload {} cycle {cycle}: unread x{r} escaped the RF",
                                workload.name
                            )
                        });
                    assert_eq!(
                        dirty & !(1 << (r - 1)),
                        0,
                        "workload {} cycle {cycle}: x{r} perturbation spread",
                        workload.name
                    );
                    probes += 1;
                }
            }
            if cpu.step(&mut mem, &mut ports).halted {
                break;
            }
        }
        assert!(probes > 50, "workload {} exercised too few probes", workload.name);
    }
}
