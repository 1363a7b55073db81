//! Seeded random program generation for differential fuzzing.
//!
//! The fixed kernel suite exercises a hand-picked mix of CPU units; a
//! silent executor bug outside that mix would never be observed. This
//! module generates *arbitrary-but-safe* LR5 programs from a seed, for
//! two consumers:
//!
//! * the differential fuzzer (`lockstep-iss`), which runs each program
//!   on the pipelined LR5 model and on an independent architectural
//!   interpreter and compares retired-instruction effects; and
//! * fault-injection campaigns, via `--workloads fuzz:<seed>[:<count>]`,
//!   which broadens DSR/signal-category coverage beyond the twelve
//!   kernels.
//!
//! Generation is **deterministic**: the same `(seed, index)` pair always
//! yields byte-identical assembly source, on any thread and any host.
//! Generated workloads are interned in a process-global registry so they
//! can be handed out as `&'static Workload` (the type campaigns consume)
//! and re-resolved by name when an archive is loaded.
//!
//! # Safety rules (guaranteed termination, no traps)
//!
//! * Control flow is one counted outer loop plus *forward-only* inner
//!   branches and jumps, so every program halts.
//! * Reserved registers are never written by generated body code:
//!   `zero`, `ra`, `sp`, `gp`, `tp` (unused), `s0` (sensor base), `s1`
//!   (output base), `s2` (outer counter), `s3` (scratch base).
//! * Loads/stores are confined to a scratch window in RAM
//!   ([`SCRATCH_BASE`]..[`SCRATCH_BASE`]`+`[`SCRATCH_BYTES`]), the
//!   sensor block (word loads) and the output block (word stores), with
//!   offsets aligned to the access size — no misalignment traps, no bus
//!   errors.
//! * `ebreak` is never emitted; `ecall` only as the final instruction.
//! * `csrr cycle` / `csrr instret` are excluded: the pipelined model
//!   reads them at EX while instructions are still in flight, so their
//!   values are microarchitectural, not architectural.
//!
//! Everything else in the `lockstep-isa` opcode set — 46 of the 47
//! opcodes — is reachable, with weights biased toward the ALU mix the
//! kernels also exhibit.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::Workload;

/// Base address of the RAM scratch window generated programs may access.
pub const SCRATCH_BASE: u32 = 0x4000;

/// Size of the scratch window in bytes.
pub const SCRATCH_BYTES: u32 = 0x400;

/// A parsed `fuzz:<seed>[:<count>]` workload specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Generator seed.
    pub seed: u64,
    /// Number of programs generated from the seed.
    pub count: u32,
}

/// Default program count when `fuzz:<seed>` gives none.
pub const DEFAULT_FUZZ_COUNT: u32 = 8;

/// Largest program count a `fuzz:<seed>:<count>` token may ask for.
/// Every generated program is interned for the life of the process, so
/// an unbounded count would let one campaign request exhaust memory.
pub const MAX_FUZZ_COUNT: u32 = 1024;

impl FuzzSpec {
    /// Parses the argument of a `fuzz:` workload token:
    /// `"42"` or `"42:16"`. The count must lie in
    /// `1..=`[`MAX_FUZZ_COUNT`]; nothing is generated here.
    pub fn parse(arg: &str) -> Option<FuzzSpec> {
        let (seed, count) = match arg.split_once(':') {
            Some((s, c)) => (s, Some(c)),
            None => (arg, None),
        };
        let seed = seed.parse().ok()?;
        let count = match count {
            Some(c) => c.parse().ok().filter(|n| (1..=MAX_FUZZ_COUNT).contains(n))?,
            None => DEFAULT_FUZZ_COUNT,
        };
        Some(FuzzSpec { seed, count })
    }

    /// The generated workloads this spec denotes, in index order.
    pub fn workloads(self) -> Vec<&'static Workload> {
        (0..self.count).map(|i| generated(self.seed, i)).collect()
    }
}

/// The name a generated workload is registered under, e.g. `fuzz42_003`.
pub fn workload_name(seed: u64, index: u32) -> String {
    format!("fuzz{seed}_{index:03}")
}

/// Inverse of [`workload_name`]: `Some((seed, index))` for fuzz names.
pub fn parse_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("fuzz")?;
    let (seed, index) = rest.split_once('_')?;
    Some((seed.parse().ok()?, index.parse().ok()?))
}

/// The interned generated workload for `(seed, index)`.
///
/// The first request generates and leaks the workload; later requests
/// (any thread) return the same `&'static` instance, so archives that
/// reference fuzz workloads by name re-resolve to identical programs.
pub fn generated(seed: u64, index: u32) -> &'static Workload {
    static REGISTRY: OnceLock<Mutex<HashMap<(u64, u32), &'static Workload>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("fuzz registry poisoned");
    map.entry((seed, index)).or_insert_with(|| {
        let w = Workload {
            name: Box::leak(workload_name(seed, index).into_boxed_str()),
            description: Box::leak(
                format!("generated fuzz program (seed {seed}, index {index})").into_boxed_str(),
            ),
            source: Box::leak(generate_source(seed, index).into_boxed_str()),
        };
        Box::leak(Box::new(w))
    })
}

// ---------------------------------------------------------------------
// Deterministic RNG (splitmix64, same family the stimulus block uses).
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64, index: u32) -> Rng {
        // Decorrelate (seed, index) pairs before the stream starts.
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(index) + 1));
        let _ = r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    /// Picks an element of a non-empty slice.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u32) as usize]
    }
}

// ---------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------

/// Registers generated code may write (and read).
const POOL: &[&str] = &[
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s4",
    "s5",
];

/// CSRs safe for `csrw` in generated code (writes to read-only CSRs are
/// architecturally ignored, but are still emitted occasionally via the
/// `cycle` entry to cover that path).
const CSRW_TARGETS: &[&str] =
    &["status", "cause", "epc", "scratch0", "scratch1", "misr", "misr", "cycle"];

/// CSRs safe for `csrr` in generated code (`cycle`/`instret` excluded —
/// microarchitectural in a pipelined reading).
const CSRR_SOURCES: &[&str] =
    &["status", "cause", "epc", "tvec", "scratch0", "scratch1", "misr", "hartid"];

/// Generates the assembly source for program `index` of `seed`.
///
/// Same `(seed, index)` → byte-identical source, always.
pub fn generate_source(seed: u64, index: u32) -> String {
    let mut rng = Rng::new(seed, index);
    let mut out = String::with_capacity(4096);
    let mut label = 0u32;

    out.push_str(&format!("; fuzz program seed={seed} index={index}\n"));
    out.push_str("; generated by lockstep_workloads::fuzz — do not edit\n");
    out.push_str(".equ SENSOR, 0xFFFF0000\n");
    out.push_str(".equ OUTPUT, 0xFFFF8000\n");
    out.push_str(&format!(".equ SCRATCH, {:#x}\n", SCRATCH_BASE));
    out.push_str("start:\n");
    out.push_str("    li   s0, SENSOR\n");
    out.push_str("    li   s1, OUTPUT\n");
    out.push_str("    li   s3, SCRATCH\n");
    // Give the register pool varied starting values.
    for reg in POOL {
        out.push_str(&format!("    li   {reg}, {:#x}\n", rng.next() as u32));
    }
    let iters = 2 + rng.below(3); // 2..=4 outer iterations
    out.push_str(&format!("    li   s2, {iters}\n"));
    out.push_str("outer:\n");

    let body_len = 24 + rng.below(25); // 24..=48 body units
    for _ in 0..body_len {
        emit_unit(&mut out, &mut rng, &mut label);
    }

    out.push_str("    addi s2, s2, -1\n");
    out.push_str("    bnez s2, outer\n");
    // Publish a little final state so campaigns always see outputs and a
    // signature, then halt. Nothing may follow the ecall: instructions
    // fetched behind it enter the pipeline before halt freezes it.
    out.push_str(&format!("    sw   {}, 248(s1)\n", POOL[rng.below(POOL.len() as u32) as usize]));
    out.push_str(&format!("    sw   {}, 252(s1)\n", POOL[rng.below(POOL.len() as u32) as usize]));
    out.push_str(&format!("    csrw misr, {}\n", POOL[rng.below(POOL.len() as u32) as usize]));
    out.push_str("    ecall\n");
    out
}

/// Emits one generation unit: usually a single instruction, sometimes a
/// short forward-branch or jump construct.
fn emit_unit(out: &mut String, rng: &mut Rng, label: &mut u32) {
    match rng.below(100) {
        // Forward conditional branch over a short straight-line gap.
        0..=7 => {
            let op = *rng.pick(&["beq", "bne", "blt", "bge", "bltu", "bgeu"]);
            let a = *rng.pick(POOL);
            let b = *rng.pick(POOL);
            let l = fresh(label);
            out.push_str(&format!("    {op} {a}, {b}, {l}\n"));
            for _ in 0..1 + rng.below(3) {
                emit_straight(out, rng);
            }
            out.push_str(&format!("{l}:\n"));
        }
        // Direct forward jump (jal), link register from the pool or zero.
        8..=10 => {
            let rd = if rng.below(3) == 0 { "zero" } else { *rng.pick(POOL) };
            let l = fresh(label);
            out.push_str(&format!("    jal  {rd}, {l}\n"));
            for _ in 0..1 + rng.below(2) {
                emit_straight(out, rng);
            }
            out.push_str(&format!("{l}:\n"));
        }
        // Indirect forward jump: materialize a forward label, jalr to it.
        11..=12 => {
            let rt = *rng.pick(POOL);
            let rd = if rng.below(2) == 0 { "zero" } else { *rng.pick(POOL) };
            let l = fresh(label);
            out.push_str(&format!("    la   {rt}, {l}\n"));
            out.push_str(&format!("    jalr {rd}, {rt}, 0\n"));
            for _ in 0..1 + rng.below(2) {
                emit_straight(out, rng);
            }
            out.push_str(&format!("{l}:\n"));
        }
        _ => emit_straight(out, rng),
    }
}

/// Emits one straight-line (non-control-flow) instruction.
fn emit_straight(out: &mut String, rng: &mut Rng) {
    let rd = *rng.pick(POOL);
    let a = *rng.pick(POOL);
    let b = *rng.pick(POOL);
    let line = match rng.below(100) {
        // Three-register ALU.
        0..=21 => {
            let op = *rng.pick(&["add", "sub", "and", "or", "xor", "slt", "sltu"]);
            format!("{op}  {rd}, {a}, {b}")
        }
        // Immediate ALU.
        22..=41 => match rng.below(6) {
            0 => format!("addi {rd}, {a}, {}", rng.below(65536) as i32 - 32768),
            1 => format!("slti {rd}, {a}, {}", rng.below(65536) as i32 - 32768),
            2 => format!("sltiu {rd}, {a}, {}", rng.below(65536) as i32 - 32768),
            3 => format!("andi {rd}, {a}, {:#x}", rng.below(65536)),
            4 => format!("ori  {rd}, {a}, {:#x}", rng.below(65536)),
            _ => format!("xori {rd}, {a}, {:#x}", rng.below(65536)),
        },
        // Shifts, register and immediate amount.
        42..=49 => {
            if rng.below(2) == 0 {
                let op = *rng.pick(&["sll", "srl", "sra"]);
                format!("{op}  {rd}, {a}, {b}")
            } else {
                let op = *rng.pick(&["slli", "srli", "srai"]);
                format!("{op} {rd}, {a}, {}", rng.below(32))
            }
        }
        // Upper immediate.
        50..=53 => format!("lui  {rd}, {:#x}", rng.below(65536)),
        // Multiply / divide (the MDV unit, long-latency).
        54..=63 => {
            let op = *rng.pick(&["mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]);
            format!("{op} {rd}, {a}, {b}")
        }
        // Scratch-window load, offset aligned to the access size.
        64..=75 => {
            let (op, align) =
                *rng.pick(&[("lw", 4u32), ("lh", 2), ("lhu", 2), ("lb", 1), ("lbu", 1)]);
            let off = rng.below(SCRATCH_BYTES / align) * align;
            format!("{op}   {rd}, {off}(s3)")
        }
        // Scratch-window store.
        76..=85 => {
            let (op, align) = *rng.pick(&[("sw", 4u32), ("sh", 2), ("sb", 1)]);
            let off = rng.below(SCRATCH_BYTES / align) * align;
            format!("{op}   {a}, {off}(s3)")
        }
        // Sensor read (word channels only).
        86..=90 => format!("lw   {rd}, {}(s0)", rng.below(64) * 4),
        // Output publish (word writes only).
        91..=94 => format!("sw   {a}, {}(s1)", rng.below(62) * 4),
        // CSR write (misr folds order-sensitively — a strong divergence
        // detector; writes to read-only CSRs are ignored by contract).
        95..=97 => format!("csrw {}, {a}", rng.pick(CSRW_TARGETS)),
        // CSR read.
        _ => format!("csrr {rd}, {}", rng.pick(CSRR_SOURCES)),
    };
    out.push_str("    ");
    out.push_str(&line);
    out.push('\n');
}

fn fresh(label: &mut u32) -> String {
    *label += 1;
    format!("f{label}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for idx in 0..8 {
            assert_eq!(generate_source(42, idx), generate_source(42, idx));
        }
        assert_ne!(generate_source(42, 0), generate_source(42, 1));
        assert_ne!(generate_source(42, 0), generate_source(43, 0));
    }

    #[test]
    fn generated_programs_assemble_halt_and_publish() {
        for idx in 0..6 {
            let w = generated(7, idx);
            let g = w.golden_run(7, 400_000);
            assert!(g.halted, "{} did not halt", w.name);
            assert!(g.outputs >= 2, "{} published nothing", w.name);
            assert!(g.instructions > 30, "{} retired almost nothing", w.name);
        }
    }

    #[test]
    fn registry_interns_instances() {
        let a = generated(3, 1);
        let b = generated(3, 1);
        assert!(std::ptr::eq(a, b), "same (seed, index) must intern");
        assert_eq!(a.name, "fuzz3_001");
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_name(&workload_name(42, 7)), Some((42, 7)));
        assert_eq!(parse_name("fuzz42_007"), Some((42, 7)));
        assert_eq!(parse_name("ttsprk"), None);
        assert_eq!(parse_name("fuzzx_1"), None);
        assert_eq!(parse_name("fuzz1"), None);
    }

    #[test]
    fn spec_parses_seed_and_count() {
        assert_eq!(FuzzSpec::parse("42"), Some(FuzzSpec { seed: 42, count: DEFAULT_FUZZ_COUNT }));
        assert_eq!(FuzzSpec::parse("42:16"), Some(FuzzSpec { seed: 42, count: 16 }));
        assert_eq!(FuzzSpec::parse("42:0"), None);
        let max = format!("42:{MAX_FUZZ_COUNT}");
        assert_eq!(FuzzSpec::parse(&max), Some(FuzzSpec { seed: 42, count: MAX_FUZZ_COUNT }));
        assert_eq!(FuzzSpec::parse(&format!("42:{}", MAX_FUZZ_COUNT + 1)), None);
        assert_eq!(FuzzSpec::parse("42:4294967295"), None);
        assert_eq!(FuzzSpec::parse("x"), None);
        let ws = FuzzSpec { seed: 5, count: 3 }.workloads();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2].name, "fuzz5_002");
    }

    #[test]
    fn opcode_coverage_is_broad() {
        // Across a modest corpus the generator must reach nearly the full
        // opcode set (everything but ebreak, by design).
        use lockstep_isa::Instr;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..24 {
            let w = generated(1234, idx);
            let p = lockstep_asm::assemble(w.source).expect("assembles");
            for (_, word) in p.words() {
                if let Ok(i) = Instr::decode(word) {
                    seen.insert(i.op);
                }
            }
        }
        assert!(seen.len() >= 42, "only {} distinct opcodes reached", seen.len());
        assert!(!seen.contains(&lockstep_isa::Opcode::Ebreak), "ebreak must never be emitted");
    }

    #[test]
    fn body_never_writes_reserved_registers() {
        use lockstep_isa::{Instr, Opcode};
        for idx in 0..12 {
            let w = generated(99, idx);
            let p = lockstep_asm::assemble(w.source).expect("assembles");
            // Skip the prologue (li to s0/s1/s3/s2 and pool init) — the
            // loop body begins at the `outer` label.
            let body_from = p.symbol("outer").expect("outer label");
            for (addr, word) in p.words() {
                if addr < body_from {
                    continue;
                }
                let Ok(i) = Instr::decode(word) else { continue };
                if !i.op.writes_rd() {
                    continue;
                }
                let rd = i.rd.index();
                // s2 (r18) is only written by the loop-decrement addi.
                let decrement = i.op == Opcode::Addi && rd == 18 && i.rs1.index() == 18;
                assert!(
                    !matches!(rd, 1..=4 | 8 | 9 | 18 | 19) || decrement,
                    "{}: reserved register r{rd} written by `{i}`",
                    w.name
                );
            }
        }
    }
}
