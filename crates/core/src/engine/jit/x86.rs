//! x86-64 machine-code emission for allocated kernel IR.
//!
//! The ABI is `unsafe extern "sysv64" fn(*const KernelArgs)`: the
//! single argument arrives in `rdi` and every register the emitted
//! code touches is caller-saved under the SysV ABI (rax, rcx, rdx,
//! rsi, rdi, r8-r11, all vector registers), so kernels need no stack
//! frame, no spills, and no prologue saves. Fixed general-purpose
//! assignment:
//!
//! ```text
//! r8  a_hi    r9  a_lo     r10 b_hi    r11 b_lo   (advance per chunk)
//! rax C row 0 origin       rcx n*4     rsi 3*n*4  rdx chunk counter
//! rdi C row 4 origin (two-row-block kernels, once the arguments are read)
//! ```
//!
//! C rows address as `[rax]`, `[rax+rcx]`, `[rax+rcx*2]`, `[rax+rsi]`,
//! then the same four forms on `rdi`. AVX kernels fetch their single
//! lane mask from a RIP-relative literal pool appended after the code;
//! AVX-512 kernels build theirs in `k1` with `kmovw`. AVX kernels use
//! VEX forms on ymm0-15; AVX-512 kernels use EVEX forms on zmm0-31.
//!
//! A term product is either one `vfmadd231ps acc, a_bcast, b` (`fma`
//! kernels) or a separate `vmulps` + `vaddps`. The fused form rounds
//! once, exactly where the separate pair rounds its add, because the
//! product of two widened binary16 values is exact in binary32; only
//! NaN propagation differs, which is why the engine requests `fma`
//! kernels only for NaN-free operands (see `ir.rs`).

use super::ir::{Isa, MaskMode, Op, Plane, Program};
use super::regalloc::Allocation;

/// `vvvv` value for instructions with no vvvv operand. The encoders
/// below store the field in the architectural one's-complement form, so
/// logical 0 becomes the all-ones field the CPU requires there (any
/// other value raises #UD).
const NO_VVVV: u8 = 0;

// General-purpose register numbers.
const RAX: u8 = 0;
const RCX: u8 = 1;
const RSI: u8 = 6;
const RDI: u8 = 7;
const R8: u8 = 8;
const R9: u8 = 9;
const R10: u8 = 10;
const R11: u8 = 11;

/// KernelArgs field offsets (see `super::KernelArgs`, `#[repr(C)]`).
const ARG_A_HI: i32 = 0x00;
const ARG_A_LO: i32 = 0x08;
const ARG_B_HI: i32 = 0x10;
const ARG_B_LO: i32 = 0x18;
const ARG_OUT: i32 = 0x20;
const ARG_N: i32 = 0x28;

/// A memory operand.
#[derive(Clone, Copy)]
enum Mem {
    /// `[base + disp]`
    Bd { base: u8, disp: i32 },
    /// `[base + index*scale + disp]`, scale in {1, 2}
    Bid {
        base: u8,
        index: u8,
        scale: u8,
        disp: i32,
    },
    /// `[rip + disp32]` resolved to literal-pool entry `pool`.
    Rip { pool: usize },
}

/// The r/m slot of an instruction: memory or a vector register.
#[derive(Clone, Copy)]
enum Rm {
    Mem(Mem),
    Reg(u8),
}

struct Asm {
    code: Vec<u8>,
    /// 32-byte literal-pool entries and the disp32 positions to patch.
    pool: Vec<[u8; 32]>,
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            code: Vec::with_capacity(4096),
            pool: Vec::new(),
            fixups: Vec::new(),
        }
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    fn i32le(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// ModRM (+SIB, +disp) for `reg` against `rm`. `force_disp32`
    /// avoids EVEX compressed-disp8 semantics by always using the
    /// 32-bit displacement form for memory operands.
    fn modrm(&mut self, reg: u8, rm: Rm, force_disp32: bool) {
        let reg3 = (reg & 7) << 3;
        match rm {
            Rm::Reg(r) => self.u8(0xC0 | reg3 | (r & 7)),
            Rm::Mem(Mem::Rip { pool }) => {
                self.u8(reg3 | 0x05);
                self.fixups.push((self.code.len(), pool));
                self.i32le(0);
            }
            Rm::Mem(Mem::Bd { base, disp }) => {
                // None of the fixed bases are rsp/r12 (low bits 100,
                // which would need a SIB) or rbp/r13 (100/101 quirks);
                // keep that invariant explicit.
                debug_assert!(base & 7 != 4 && base & 7 != 5);
                if disp == 0 && !force_disp32 {
                    self.u8(reg3 | (base & 7));
                } else if (-128..128).contains(&disp) && !force_disp32 {
                    self.u8(0x40 | reg3 | (base & 7));
                    self.u8(disp as u8);
                } else {
                    self.u8(0x80 | reg3 | (base & 7));
                    self.i32le(disp);
                }
            }
            Rm::Mem(Mem::Bid {
                base,
                index,
                scale,
                disp,
            }) => {
                debug_assert!(index & 7 != 4, "rsp cannot index");
                debug_assert!(base & 7 != 5);
                let ss = match scale {
                    1 => 0u8,
                    2 => 1,
                    _ => unreachable!("row addressing only scales by 1 or 2"),
                };
                let sib = (ss << 6) | ((index & 7) << 3) | (base & 7);
                if disp == 0 && !force_disp32 {
                    self.u8(reg3 | 0x04);
                    self.u8(sib);
                } else if (-128..128).contains(&disp) && !force_disp32 {
                    self.u8(0x40 | reg3 | 0x04);
                    self.u8(sib);
                    self.u8(disp as u8);
                } else {
                    self.u8(0x80 | reg3 | 0x04);
                    self.u8(sib);
                    self.i32le(disp);
                }
            }
        }
    }

    /// High (extension) bits of an r/m operand: (X, B). For a vector
    /// register operand EVEX reuses X as its fifth bit (zmm16-31).
    fn rm_ext(rm: Rm) -> (u8, u8) {
        match rm {
            Rm::Reg(r) => ((r >> 4) & 1, (r >> 3) & 1),
            Rm::Mem(Mem::Rip { .. }) => (0, 0),
            Rm::Mem(Mem::Bd { base, .. }) => (0, base >> 3),
            Rm::Mem(Mem::Bid { base, index, .. }) => (index >> 3, base >> 3),
        }
    }

    /// Three-byte VEX instruction. `map`: 1 = 0F, 2 = 0F38; `pp`:
    /// 0 = none, 1 = 66; `l`: 0 = 128-bit, 1 = 256-bit.
    #[allow(clippy::too_many_arguments)]
    fn vex(&mut self, map: u8, pp: u8, w: u8, l: u8, op: u8, reg: u8, vvvv: u8, rm: Rm) {
        debug_assert!(
            reg < 16 && vvvv < 16 && !matches!(rm, Rm::Reg(16..)),
            "VEX reaches registers 0-15 only"
        );
        let (x, b) = Asm::rm_ext(rm);
        self.u8(0xC4);
        self.u8(((!(reg >> 3) & 1) << 7) | ((!x & 1) << 6) | ((!b & 1) << 5) | map);
        self.u8((w << 7) | ((!vvvv & 0xF) << 3) | (l << 2) | pp);
        self.u8(op);
        self.modrm(reg, rm, false);
    }

    /// EVEX instruction, always 512-bit here. `aaa` selects the k mask
    /// (0 = none), `z` the zeroing form. Memory operands use the
    /// plain disp32 form so no compressed-disp8 scaling applies.
    /// Registers 16-31 set R' (reg), V' (vvvv) and X (register r/m).
    #[allow(clippy::too_many_arguments)]
    fn evex(&mut self, map: u8, pp: u8, w: u8, op: u8, reg: u8, vvvv: u8, rm: Rm, aaa: u8, z: u8) {
        let (x, b) = Asm::rm_ext(rm);
        let r_hi = (!(reg >> 4) & 1) << 4; // R', inverted
        let v_hi = (!(vvvv >> 4) & 1) << 3; // V', inverted
        self.u8(0x62);
        self.u8(((!(reg >> 3) & 1) << 7) | ((!x & 1) << 6) | ((!b & 1) << 5) | r_hi | map);
        self.u8((w << 7) | ((!vvvv & 0xF) << 3) | 0x04 | pp);
        self.u8((z << 7) | 0x40 | v_hi | aaa); // L'L = 10 (512-bit)
        self.u8(op);
        self.modrm(reg, rm, true);
    }

    /// `mov r64, [base + disp]`
    fn mov_load(&mut self, dst: u8, base: u8, disp: i32) {
        self.u8(0x48 | ((dst >> 3) << 2) | (base >> 3));
        self.u8(0x8B);
        self.modrm(dst, Rm::Mem(Mem::Bd { base, disp }), false);
    }

    /// `add r64, imm32`
    fn add_imm(&mut self, r: u8, imm: i32) {
        self.u8(0x48 | (r >> 3));
        self.u8(0x81);
        self.u8(0xC0 | (r & 7));
        self.i32le(imm);
    }

    /// Append the literal pool and resolve RIP fixups.
    fn finish(mut self) -> Vec<u8> {
        let base = self.code.len();
        for entry in &self.pool {
            self.code.extend_from_slice(entry);
        }
        for (pos, idx) in self.fixups {
            let target = base + idx * 32;
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }
}

fn plane_base(p: Plane) -> u8 {
    match p {
        Plane::AHi => R8,
        Plane::ALo => R9,
        Plane::BHi => R10,
        Plane::BLo => R11,
    }
}

/// C memory operand for `row` at byte offset `disp` from the row
/// origin: rows 0-3 off `rax`, rows 4-7 (the second row block) off
/// `rdi`.
fn row_mem(row: u8, disp: i32) -> Mem {
    let base = if row < 4 { RAX } else { RDI };
    match row % 4 {
        0 => Mem::Bd { base, disp },
        1 => Mem::Bid {
            base,
            index: RCX,
            scale: 1,
            disp,
        },
        2 => Mem::Bid {
            base,
            index: RCX,
            scale: 2,
            disp,
        },
        _ => Mem::Bid {
            base,
            index: RSI,
            scale: 1,
            disp,
        },
    }
}

/// `vfmadd231ps acc, x, b` — `acc = x * b + acc` with one rounding —
/// in its EVEX zmm (registers 0-31) or VEX ymm (0-15) form.
fn vfmadd231ps(a: &mut Asm, avx512: bool, acc: u8, x: u8, b: u8) {
    if avx512 {
        a.evex(2, 1, 0, 0xB8, acc, x, Rm::Reg(b), 0, 0);
    } else {
        a.vex(2, 1, 0, 1, 0xB8, acc, x, Rm::Reg(b));
    }
}

/// Emit one vector op under the program's ISA.
fn emit_op(a: &mut Asm, isa: Isa, alloc: &Allocation, op: &Op) {
    let avx512 = isa == Isa::Avx512;
    match *op {
        Op::LoadAcc {
            dst,
            row,
            vec,
            mode,
            mask,
        } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(row_mem(row, (vec as i32) * isa.lanes() as i32 * 4));
            match (mode, avx512) {
                (MaskMode::Full, false) => a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, mem),
                (MaskMode::Full, true) => a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 0, 0),
                (MaskMode::Masked, false) => {
                    // vmaskmovps ymm, ymm(mask), m256
                    let m = alloc.phys(mask.expect("AVX masked load carries a mask vreg"));
                    a.vex(2, 1, 0, 1, 0x2C, d, m, mem);
                }
                // vmovups zmm{k1}{z}, m512: masked-off lanes read as
                // zero, exactly load_acc's zero fill.
                (MaskMode::Masked, true) => a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 1, 1),
                (MaskMode::Skip, false) => a.vex(1, 0, 0, 1, 0x57, d, d, Rm::Reg(d)),
                (MaskMode::Skip, true) => a.evex(1, 1, 0, 0xEF, d, d, Rm::Reg(d), 0, 0),
            }
        }
        Op::LoadMask { dst } => {
            debug_assert!(!avx512, "AVX-512 masks live in k1");
            let d = alloc.phys(dst);
            a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, Rm::Mem(Mem::Rip { pool: 0 }));
        }
        Op::LoadB { dst, plane, off } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(Mem::Bd {
                base: plane_base(plane),
                disp: off,
            });
            if avx512 {
                a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 0, 0);
            } else {
                a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, mem);
            }
        }
        Op::BroadcastA { dst, plane, off } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(Mem::Bd {
                base: plane_base(plane),
                disp: off,
            });
            if avx512 {
                a.evex(2, 1, 0, 0x18, d, NO_VVVV, mem, 0, 0);
            } else {
                a.vex(2, 1, 0, 1, 0x18, d, NO_VVVV, mem);
            }
        }
        Op::Mul { dst, a: x, b } | Op::Add { dst, a: x, b } => {
            let opc = if matches!(op, Op::Mul { .. }) {
                0x59
            } else {
                0x58
            };
            let (d, x, b) = (alloc.phys(dst), alloc.phys(x), alloc.phys(b));
            if avx512 {
                a.evex(1, 0, 0, opc, d, x, Rm::Reg(b), 0, 0);
            } else {
                a.vex(1, 0, 0, 1, opc, d, x, Rm::Reg(b));
            }
        }
        Op::MulAdd { acc, a: x, b } => {
            vfmadd231ps(a, avx512, alloc.phys(acc), alloc.phys(x), alloc.phys(b));
        }
        Op::StoreAcc {
            src,
            row,
            vec,
            mode,
            mask,
        } => {
            let s = alloc.phys(src);
            let mem = Rm::Mem(row_mem(row, (vec as i32) * isa.lanes() as i32 * 4));
            match (mode, avx512) {
                (MaskMode::Full, false) => a.vex(1, 0, 0, 1, 0x11, s, NO_VVVV, mem),
                (MaskMode::Full, true) => a.evex(1, 0, 0, 0x11, s, NO_VVVV, mem, 0, 0),
                (MaskMode::Masked, false) => {
                    // vmaskmovps m256, ymm(mask), ymm
                    let m = alloc.phys(mask.expect("AVX masked store carries a mask vreg"));
                    a.vex(2, 1, 0, 1, 0x2E, s, m, mem);
                }
                // vmovups m512{k1}, zmm: masked-off lanes untouched.
                (MaskMode::Masked, true) => a.evex(1, 0, 0, 0x11, s, NO_VVVV, mem, 1, 0),
                (MaskMode::Skip, _) => unreachable!("skipped stores are not lowered"),
            }
        }
    }
}

/// Encode an allocated program to machine code (literal pool
/// included). The result is position-independent and complete — ready
/// for [`super::exec::ExecBuf::publish`].
pub(crate) fn emit(prog: &Program, alloc: &Allocation) -> Vec<u8> {
    let isa = prog.spec.isa;
    let mut a = Asm::new();

    // AVX-512 lane mask in k1 (before the argument loads: this
    // clobbers eax, which later holds `out`).
    if isa == Isa::Avx512 {
        if let Some(lanes) = prog.mask_lanes {
            a.u8(0xB8); // mov eax, imm32
            a.i32le(((1u32 << lanes) - 1) as i32);
            a.vex(1, 0, 0, 0, 0x92, 1, NO_VVVV, Rm::Reg(RAX)); // kmovw k1, eax
        }
    } else if prog.mask_lanes.is_some() {
        // AVX lane mask: pool entry 0, all-ones in the valid lanes.
        let lanes = prog.mask_lanes.unwrap_or(0);
        let mut entry = [0u8; 32];
        for l in 0..lanes.min(8) as usize {
            entry[l * 4..l * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        a.pool.push(entry);
    }

    a.mov_load(R8, RDI, ARG_A_HI);
    a.mov_load(R9, RDI, ARG_A_LO);
    a.mov_load(R10, RDI, ARG_B_HI);
    a.mov_load(R11, RDI, ARG_B_LO);
    a.mov_load(RAX, RDI, ARG_OUT);
    a.mov_load(RCX, RDI, ARG_N);
    a.code.extend_from_slice(&[0x48, 0xC1, 0xE1, 0x02]); // shl rcx, 2
    a.code.extend_from_slice(&[0x48, 0x8D, 0x34, 0x49]); // lea rsi, [rcx+rcx*2]
    if prog.spec.row_blocks() > 1 {
        // The argument block is fully read: rdi becomes the origin of
        // C row 4 (the second row block).
        a.code.extend_from_slice(&[0x48, 0x8D, 0x3C, 0x88]); // lea rdi, [rax+rcx*4]
    }

    for op in &prog.prologue {
        emit_op(&mut a, isa, alloc, op);
    }

    if prog.full_chunks > 0 {
        a.u8(0xBA); // mov edx, imm32
        a.i32le(prog.full_chunks as i32);
        let top = a.code.len();
        for op in &prog.body {
            emit_op(&mut a, isa, alloc, op);
        }
        // Advance the plane pointers a chunk actually read.
        let terms = &prog.spec.terms;
        if terms.iter().any(|t| !t.0) {
            a.add_imm(R8, prog.advance_a);
        }
        if terms.iter().any(|t| t.0) {
            a.add_imm(R9, prog.advance_a);
        }
        if terms.iter().any(|t| !t.1) {
            a.add_imm(R10, prog.advance_b);
        }
        if terms.iter().any(|t| t.1) {
            a.add_imm(R11, prog.advance_b);
        }
        a.code.extend_from_slice(&[0xFF, 0xCA]); // dec edx
        a.u8(0x0F); // jnz rel32
        a.u8(0x85);
        let rel = top as i64 - (a.code.len() as i64 + 4);
        a.i32le(rel as i32);
    }

    for op in &prog.ragged {
        emit_op(&mut a, isa, alloc, op);
    }
    for op in &prog.epilogue {
        emit_op(&mut a, isa, alloc, op);
    }
    a.code.extend_from_slice(&[0xC5, 0xF8, 0x77]); // vzeroupper
    a.u8(0xC3); // ret
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::super::ir::{lower, Isa, KernelSpec};
    use super::super::regalloc::allocate;
    use super::*;

    fn emit_spec(spec: KernelSpec) -> Vec<u8> {
        let prog = lower(&spec);
        let alloc = allocate(&prog).unwrap();
        emit(&prog, &alloc)
    }

    fn emit_for(isa: Isa, cols: usize, kcb: usize) -> Vec<u8> {
        emit_spec(KernelSpec {
            isa,
            terms: vec![(false, false), (true, true)],
            tk: 8,
            kcb,
            rows: 4,
            cols,
            fma: false,
        })
    }

    /// One `vfmadd231ps` encoded on its own.
    fn fma_bytes(avx512: bool, acc: u8, x: u8, b: u8) -> Vec<u8> {
        let mut a = Asm::new();
        vfmadd231ps(&mut a, avx512, acc, x, b);
        a.finish()
    }

    /// `(avx512, acc, x, b, encoding, Intel-syntax disassembly)`: low
    /// and high halves of each register file, so every extension bit
    /// (VEX R/vvvv/B; EVEX R, R', vvvv, V', B, X) is exercised.
    type FmaCase = (bool, u8, u8, u8, &'static [u8], &'static str);
    const FMA_CASES: &[FmaCase] = &[
        (
            false,
            1,
            2,
            3,
            &[0xC4, 0xE2, 0x6D, 0xB8, 0xCB],
            "vfmadd231ps ymm1,ymm2,ymm3",
        ),
        (
            false,
            12,
            13,
            14,
            &[0xC4, 0x42, 0x15, 0xB8, 0xE6],
            "vfmadd231ps ymm12,ymm13,ymm14",
        ),
        (
            true,
            1,
            2,
            3,
            &[0x62, 0xF2, 0x6D, 0x48, 0xB8, 0xCB],
            "vfmadd231ps zmm1,zmm2,zmm3",
        ),
        (
            true,
            17,
            18,
            29,
            &[0x62, 0x82, 0x6D, 0x40, 0xB8, 0xCD],
            "vfmadd231ps zmm17,zmm18,zmm29",
        ),
        (
            true,
            31,
            8,
            16,
            &[0x62, 0x22, 0x3D, 0x48, 0xB8, 0xF8],
            "vfmadd231ps zmm31,zmm8,zmm16",
        ),
        (
            true,
            9,
            24,
            7,
            &[0x62, 0x72, 0x3D, 0x40, 0xB8, 0xCF],
            "vfmadd231ps zmm9,zmm24,zmm7",
        ),
    ];

    #[test]
    fn vfmadd231ps_encodings() {
        for &(avx512, acc, x, b, want, text) in FMA_CASES {
            assert_eq!(fma_bytes(avx512, acc, x, b), want, "{text}");
        }
    }

    /// Disassemble `code` with the local `objdump`, returning one
    /// whitespace-normalized `mnemonic operands` string per
    /// instruction, or `None` when no usable `objdump` is installed.
    fn objdump(code: &[u8], tag: &str) -> Option<Vec<String>> {
        let path = std::env::temp_dir().join(format!("egemm-jit-{tag}-{}.bin", std::process::id()));
        std::fs::write(&path, code).ok()?;
        let out = std::process::Command::new("objdump")
            .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
            .arg(&path)
            .output();
        let _ = std::fs::remove_file(&path);
        let out = out.ok().filter(|o| o.status.success())?;
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        Some(
            text.lines()
                .filter_map(|l| {
                    // "   5:\t62 82 ...\tvfmadd231ps zmm17,zmm18,zmm29"
                    let mut cols = l.splitn(3, '\t');
                    let (addr, _bytes, asm) = (cols.next()?, cols.next()?, cols.next()?);
                    addr.trim_end()
                        .ends_with(':')
                        .then(|| asm.split_whitespace().collect::<Vec<_>>().join(" "))
                })
                .collect(),
        )
    }

    #[test]
    fn vfmadd231ps_matches_objdump() {
        let mut code = Vec::new();
        for &(avx512, acc, x, b, _, _) in FMA_CASES {
            code.extend(fma_bytes(avx512, acc, x, b));
        }
        let Some(listing) = objdump(&code, "fma") else {
            eprintln!("note: objdump not installed; encoder cross-check skipped");
            return;
        };
        let want: Vec<&str> = FMA_CASES.iter().map(|c| c.5).collect();
        assert_eq!(listing, want);
    }

    /// A whole two-row-block FMA kernel disassembles to the expected
    /// instruction mix: no `vmulps`/`vaddps`, one `vfmadd231ps` per
    /// product, upper-bank registers in use, and row 4 addressed off
    /// `rdi`.
    #[test]
    fn fma_kernel_disassembles_cleanly() {
        let code = emit_spec(KernelSpec {
            isa: Isa::Avx512,
            terms: vec![(false, false), (true, true)],
            tk: 8,
            kcb: 8,
            rows: 8,
            cols: 32,
            fma: true,
        });
        let Some(listing) = objdump(&code, "kernel") else {
            eprintln!("note: objdump not installed; kernel disassembly check skipped");
            return;
        };
        let count = |m: &str| listing.iter().filter(|l| l.starts_with(m)).count();
        // 2 terms x 8 steps x 8 rows x 2 vectors.
        assert_eq!(count("vfmadd231ps "), 2 * 8 * 16, "{listing:#?}");
        assert_eq!(count("vmulps ") + count("vaddps "), 0);
        assert!(listing.iter().any(|l| l.contains("zmm16")));
        assert!(listing.iter().any(|l| l == "lea rdi,[rax+rcx*4]"));
        assert!(listing.iter().any(|l| l.contains("[rdi+rsi*1")));
        assert!(listing.iter().any(|l| l == "ret"));
    }

    #[test]
    fn emits_complete_function() {
        for (isa, cols) in [(Isa::Avx, 16), (Isa::Avx, 9), (Isa::Avx512, 23)] {
            let code = emit_for(isa, cols, 24);
            // vzeroupper; ret present (before any literal pool).
            let tail = code.windows(4).any(|w| w == [0xC5, 0xF8, 0x77, 0xC3]);
            assert!(tail, "missing vzeroupper; ret ({isa:?})");
            assert!(code.len() > 64);
        }
    }

    #[test]
    fn loop_backedge_targets_body_top() {
        let code = emit_for(Isa::Avx, 16, 24);
        // Find "dec edx; jnz rel32" and check the displacement lands
        // inside the code, before the branch.
        let pos = code
            .windows(4)
            .position(|w| w[0] == 0xFF && w[1] == 0xCA && w[2] == 0x0F && w[3] == 0x85)
            .expect("loop tail present");
        let rel = i32::from_le_bytes(code[pos + 4..pos + 8].try_into().unwrap());
        let target = (pos as i64 + 8) + rel as i64;
        assert!(rel < 0 && target > 0 && (target as usize) < pos);
    }

    #[test]
    fn short_panel_emits_no_loop() {
        let code = emit_for(Isa::Avx, 16, 5);
        assert!(
            !code.windows(2).any(|w| w == [0xFF, 0xCA]),
            "kcb < tk must lower to straight-line code"
        );
    }

    #[test]
    fn rip_fixup_points_into_pool() {
        let code = emit_for(Isa::Avx, 11, 8);
        // The pool holds one 32-byte mask: 3 valid lanes (cols 8..11).
        let pool = &code[code.len() - 32..];
        let words: Vec<u32> = pool
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(&words[..3], &[u32::MAX; 3]);
        assert_eq!(&words[3..], &[0; 5]);
    }
}
