//! The x86-64 machine-code emitter.
//!
//! [`Asm`] is an append-only code buffer with label/fixup support and
//! emitters for the exact instruction subset the fused-scan compilers need:
//! the usual 64-bit scalar ALU/branch instructions, the `kmov`/`kortest`
//! mask moves (VEX-encoded), and the AVX-512 EVEX instructions of paper
//! Fig. 3 (`vmovdqu32`, `vpcmp[u]d`, `vpcompressd`, `vpermt2d`,
//! `vpgatherdd`, `vpbroadcastd`, `vpaddd`, `vpxord`).
//!
//! Encoding references: Intel SDM Vol. 2, chapters 2.1 (ModRM/SIB/REX),
//! 2.3 (VEX) and 2.7 (EVEX). The test suite disassembles emitted bytes
//! with binutils `objdump` (when present) and cross-checks the mnemonics,
//! and every compiled kernel is differential-tested against the
//! interpreter, so an encoding slip cannot survive unnoticed.

use super::reg::{Cond, Gpr, KReg, Mem, Zmm};

/// A jump target; create with [`Asm::new_label`], place with [`Asm::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug)]
struct Fixup {
    /// Offset of the rel32 field in the code buffer.
    at: usize,
    label: Label,
}

/// Append-only machine-code buffer.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
}

/// EVEX opcode maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Map {
    /// 0F escape.
    M0F = 1,
    /// 0F 38 escape.
    M0F38 = 2,
    /// 0F 3A escape.
    M0F3A = 3,
}

/// EVEX vector length of an instruction that comes in more than one width
/// (the `L'L` field). The scan compilers keep position lists one 32-bit
/// lane per row: zmm for 16-row blocks, ymm for 8-row blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vl {
    /// 256-bit ymm operands.
    Y256,
    /// 512-bit zmm operands.
    Z512,
}

impl Vl {
    /// The `L'L` encoding.
    fn ll(self) -> u8 {
        match self {
            Vl::Y256 => 0b01,
            Vl::Z512 => 0b10,
        }
    }
}

/// Mandatory-prefix field (`pp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pp {
    /// No prefix.
    None = 0,
    /// 0x66.
    P66 = 1,
    /// 0xF3.
    PF3 = 2,
    /// 0xF2.
    PF2 = 3,
}

impl Asm {
    /// Fresh empty buffer.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current length (== offset of the next emitted byte).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether nothing was emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Resolve all fixups and return the bytes. Panics on unbound labels.
    pub fn finish(mut self) -> Vec<u8> {
        for f in &self.fixups {
            let target = self.labels[f.label.0].expect("unbound label");
            let rel = target as i64 - (f.at as i64 + 4);
            let rel = i32::try_from(rel).expect("jump distance exceeds rel32");
            self.code[f.at..f.at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    // --- raw emission ----------------------------------------------------

    #[inline]
    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix; skipped when all bits are zero and not forced.
    fn rex(&mut self, w: bool, r: u8, x: u8, b: u8) {
        let byte = 0x40 | (u8::from(w) << 3) | (r << 2) | (x << 1) | b;
        if byte != 0x40 {
            self.u8(byte);
        }
    }

    /// ModRM + SIB + displacement for a register `reg` and memory `mem`.
    /// Returns nothing; `reg` is the low-3-bits value (extensions go in the
    /// prefix).
    fn modrm_mem(&mut self, reg3: u8, mem: Mem) {
        let base3 = mem.base.low3();
        let need_sib = mem.index.is_some() || base3 == 4; // rsp/r12 demand SIB
                                                          // rbp/r13 as base cannot use mod=00.
        let (modbits, disp): (u8, Option<i32>) = if mem.disp == 0 && base3 != 5 {
            (0b00, None)
        } else if (-128..=127).contains(&mem.disp) {
            (0b01, Some(mem.disp))
        } else {
            (0b10, Some(mem.disp))
        };
        if need_sib {
            self.u8((modbits << 6) | (reg3 << 3) | 0b100);
            let (idx3, scale) = match mem.index {
                Some((idx, s)) => (idx.low3(), s),
                None => (0b100, 0), // no index
            };
            self.u8((scale << 6) | (idx3 << 3) | base3);
        } else {
            self.u8((modbits << 6) | (reg3 << 3) | base3);
        }
        match (modbits, disp) {
            (0b01, Some(d)) => self.u8(d as i8 as u8),
            (0b10, Some(d)) => self.u32(d as u32),
            _ => {}
        }
    }

    fn modrm_reg(&mut self, reg3: u8, rm3: u8) {
        self.u8(0b1100_0000 | (reg3 << 3) | rm3);
    }

    /// ModRM/SIB for EVEX memory operands. EVEX re-scales disp8 by the
    /// operand tuple size (compressed displacement), so any non-zero
    /// displacement is emitted as disp32 to stay encoding-size-agnostic.
    fn modrm_mem_evex(&mut self, reg3: u8, mem: Mem) {
        let base3 = mem.base.low3();
        let need_sib = mem.index.is_some() || base3 == 4;
        let (modbits, disp): (u8, Option<i32>) = if mem.disp == 0 && base3 != 5 {
            (0b00, None)
        } else {
            (0b10, Some(mem.disp))
        };
        if need_sib {
            self.u8((modbits << 6) | (reg3 << 3) | 0b100);
            let (idx3, scale) = match mem.index {
                Some((idx, s)) => (idx.low3(), s),
                None => (0b100, 0),
            };
            self.u8((scale << 6) | (idx3 << 3) | base3);
        } else {
            self.u8((modbits << 6) | (reg3 << 3) | base3);
        }
        if let Some(d) = disp {
            self.u32(d as u32);
        }
    }

    // --- scalar 64-bit instructions ---------------------------------------

    /// `mov r64, imm64`.
    pub fn mov_r64_imm64(&mut self, dst: Gpr, imm: u64) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0xB8 + dst.low3());
        self.u64(imm);
    }

    /// `mov r32, imm32` (zero-extends to 64 bits).
    pub fn mov_r32_imm32(&mut self, dst: Gpr, imm: u32) {
        if dst.ext() == 1 {
            self.rex(false, 0, 0, 1);
        }
        self.u8(0xB8 + dst.low3());
        self.u32(imm);
    }

    /// `mov r64, r64`.
    pub fn mov_r64_r64(&mut self, dst: Gpr, src: Gpr) {
        self.rex(true, src.ext(), 0, dst.ext());
        self.u8(0x89);
        self.modrm_reg(src.low3(), dst.low3());
    }

    /// `mov r64, [mem]`.
    pub fn mov_r64_mem(&mut self, dst: Gpr, mem: Mem) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.rex(true, dst.ext(), x, mem.base.ext());
        self.u8(0x8B);
        self.modrm_mem(dst.low3(), mem);
    }

    /// `mov [mem], r64`.
    pub fn mov_mem_r64(&mut self, mem: Mem, src: Gpr) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.rex(true, src.ext(), x, mem.base.ext());
        self.u8(0x89);
        self.modrm_mem(src.low3(), mem);
    }

    /// `mov r32, [mem]`.
    pub fn mov_r32_mem(&mut self, dst: Gpr, mem: Mem) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.rex(false, dst.ext(), x, mem.base.ext());
        self.u8(0x8B);
        self.modrm_mem(dst.low3(), mem);
    }

    /// `mov [mem], r32`.
    pub fn mov_mem_r32(&mut self, mem: Mem, src: Gpr) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.rex(false, src.ext(), x, mem.base.ext());
        self.u8(0x89);
        self.modrm_mem(src.low3(), mem);
    }

    /// `xor r32, r32` (the canonical zeroing idiom; clears the full r64).
    pub fn xor_r32_r32(&mut self, dst: Gpr, src: Gpr) {
        self.rex(false, src.ext(), 0, dst.ext());
        self.u8(0x31);
        self.modrm_reg(src.low3(), dst.low3());
    }

    /// `add r64, r64`.
    pub fn add_r64_r64(&mut self, dst: Gpr, src: Gpr) {
        self.rex(true, src.ext(), 0, dst.ext());
        self.u8(0x01);
        self.modrm_reg(src.low3(), dst.low3());
    }

    /// `add r64, imm8` (sign-extended).
    pub fn add_r64_imm8(&mut self, dst: Gpr, imm: i8) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0x83);
        self.modrm_reg(0, dst.low3());
        self.u8(imm as u8);
    }

    /// `sub r64, imm8` (sign-extended).
    pub fn sub_r64_imm8(&mut self, dst: Gpr, imm: i8) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0x83);
        self.modrm_reg(5, dst.low3());
        self.u8(imm as u8);
    }

    /// `add r64, imm32` (sign-extended).
    pub fn add_r64_imm32(&mut self, dst: Gpr, imm: i32) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0x81);
        self.modrm_reg(0, dst.low3());
        self.u32(imm as u32);
    }

    /// `sub r64, imm32` (sign-extended).
    pub fn sub_r64_imm32(&mut self, dst: Gpr, imm: i32) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0x81);
        self.modrm_reg(5, dst.low3());
        self.u32(imm as u32);
    }

    /// `inc r64`.
    pub fn inc_r64(&mut self, dst: Gpr) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0xFF);
        self.modrm_reg(0, dst.low3());
    }

    /// `cmp r64, r64`.
    pub fn cmp_r64_r64(&mut self, a: Gpr, b: Gpr) {
        self.rex(true, b.ext(), 0, a.ext());
        self.u8(0x39);
        self.modrm_reg(b.low3(), a.low3());
    }

    /// `cmp r32, imm32`.
    pub fn cmp_r32_imm32(&mut self, a: Gpr, imm: u32) {
        if a.ext() == 1 {
            self.rex(false, 0, 0, 1);
        }
        self.u8(0x81);
        self.modrm_reg(7, a.low3());
        self.u32(imm);
    }

    /// `cmp r64, imm8` (sign-extended).
    pub fn cmp_r64_imm8(&mut self, a: Gpr, imm: i8) {
        self.rex(true, 0, 0, a.ext());
        self.u8(0x83);
        self.modrm_reg(7, a.low3());
        self.u8(imm as u8);
    }

    /// `test r64, r64`.
    pub fn test_r64_r64(&mut self, a: Gpr, b: Gpr) {
        self.rex(true, b.ext(), 0, a.ext());
        self.u8(0x85);
        self.modrm_reg(b.low3(), a.low3());
    }

    /// `shl r64, imm8`.
    pub fn shl_r64_imm8(&mut self, dst: Gpr, imm: u8) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0xC1);
        self.modrm_reg(4, dst.low3());
        self.u8(imm);
    }

    /// `popcnt r32, r32`.
    pub fn popcnt_r32_r32(&mut self, dst: Gpr, src: Gpr) {
        self.u8(0xF3);
        self.rex(false, dst.ext(), 0, src.ext());
        self.u8(0x0F);
        self.u8(0xB8);
        self.modrm_reg(dst.low3(), src.low3());
    }

    /// `movzx r32, word [mem]`.
    pub fn movzx_r32_m16(&mut self, dst: Gpr, mem: Mem) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.rex(false, dst.ext(), x, mem.base.ext());
        self.u8(0x0F);
        self.u8(0xB7);
        self.modrm_mem(dst.low3(), mem);
    }

    /// `push r64`.
    pub fn push_r64(&mut self, r: Gpr) {
        if r.ext() == 1 {
            self.rex(false, 0, 0, 1);
        }
        self.u8(0x50 + r.low3());
    }

    /// `pop r64`.
    pub fn pop_r64(&mut self, r: Gpr) {
        if r.ext() == 1 {
            self.rex(false, 0, 0, 1);
        }
        self.u8(0x58 + r.low3());
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xC3);
    }

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, label: Label) {
        self.u8(0xE9);
        self.fixups.push(Fixup {
            at: self.code.len(),
            label,
        });
        self.u32(0);
    }

    /// `jCC label` (rel32).
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        self.u8(0x0F);
        self.u8(0x80 + cond as u8);
        self.fixups.push(Fixup {
            at: self.code.len(),
            label,
        });
        self.u32(0);
    }

    /// `call label` (rel32, intra-buffer).
    pub fn call(&mut self, label: Label) {
        self.u8(0xE8);
        self.fixups.push(Fixup {
            at: self.code.len(),
            label,
        });
        self.u32(0);
    }

    // --- VEX-encoded opmask instructions ----------------------------------

    /// VEX prefix (2-byte when possible). One parameter per prefix field,
    /// in encoding order.
    #[allow(clippy::too_many_arguments)]
    fn vex(&mut self, r: u8, x: u8, b: u8, map: Map, w: bool, vvvv: u8, l: u8, pp: Pp) {
        debug_assert!(vvvv < 16);
        if x == 0 && b == 0 && map == Map::M0F && !w {
            self.u8(0xC5);
            self.u8(((1 - r) << 7) | ((!vvvv & 0xF) << 3) | (l << 2) | pp as u8);
        } else {
            self.u8(0xC4);
            self.u8(((1 - r) << 7) | ((1 - x) << 6) | ((1 - b) << 5) | map as u8);
            self.u8((u8::from(w) << 7) | ((!vvvv & 0xF) << 3) | (l << 2) | pp as u8);
        }
    }

    /// `kmovw k, r32`.
    pub fn kmovw_k_r32(&mut self, dst: KReg, src: Gpr) {
        self.vex(0, 0, src.ext(), Map::M0F, false, 0, 0, Pp::None);
        self.u8(0x92);
        self.modrm_reg(dst.num(), src.low3());
    }

    /// `kmovw r32, k`.
    pub fn kmovw_r32_k(&mut self, dst: Gpr, src: KReg) {
        self.vex(dst.ext(), 0, 0, Map::M0F, false, 0, 0, Pp::None);
        self.u8(0x93);
        self.modrm_reg(dst.low3(), src.num());
    }

    /// `kortestw k1, k2` (sets ZF when the OR of both masks is zero).
    pub fn kortestw(&mut self, k1: KReg, k2: KReg) {
        self.vex(0, 0, 0, Map::M0F, false, 0, 0, Pp::None);
        self.u8(0x98);
        self.modrm_reg(k1.num(), k2.num());
    }

    // --- EVEX-encoded AVX-512 instructions --------------------------------

    /// EVEX prefix.
    ///
    /// `ll` is the vector length field (00=128, 01=256, 10=512); `r`/`rp`
    /// extend the ModRM.reg register (bits 3 and 4); `x`/`b` extend the
    /// rm/base/index; `vp` extends vvvv (bit 4); `aaa` is the opmask; `z`
    /// selects zeroing-masking.
    #[allow(clippy::too_many_arguments)]
    fn evex(
        &mut self,
        ll: u8,
        r: u8,
        x: u8,
        b: u8,
        rp: u8,
        map: Map,
        w: bool,
        vvvv: u8,
        vp: u8,
        pp: Pp,
        aaa: u8,
        z: bool,
    ) {
        debug_assert!(vvvv < 16 && aaa < 8 && ll < 3);
        self.u8(0x62);
        self.u8(((1 - r) << 7) | ((1 - x) << 6) | ((1 - b) << 5) | ((1 - rp) << 4) | map as u8);
        self.u8((u8::from(w) << 7) | ((!vvvv & 0xF) << 3) | 0b100 | pp as u8);
        self.u8((u8::from(z) << 7) | (ll << 5) | ((1 - vp) << 3) | aaa);
    }

    /// EVEX prefix for a 512-bit operation.
    #[allow(clippy::too_many_arguments)]
    fn evex512(
        &mut self,
        r: u8,
        x: u8,
        b: u8,
        rp: u8,
        map: Map,
        w: bool,
        vvvv: u8,
        vp: u8,
        pp: Pp,
        aaa: u8,
        z: bool,
    ) {
        self.evex(0b10, r, x, b, rp, map, w, vvvv, vp, pp, aaa, z);
    }

    /// `vmovdqu32 zmm|ymm, [mem]`, optionally `{k}{z}`-masked.
    pub fn vmovdqu32_load(&mut self, vl: Vl, dst: Zmm, mem: Mem, mask: Option<KReg>, zero: bool) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.evex(
            vl.ll(),
            dst.ext3(),
            x,
            mem.base.ext(),
            dst.ext4(),
            Map::M0F,
            false,
            0,
            0,
            Pp::PF3,
            mask.map_or(0, KReg::num),
            zero,
        );
        self.u8(0x6F);
        self.modrm_mem_evex(dst.low3(), mem);
    }

    /// `vmovdqu32 [mem], zmm|ymm` (optionally `{k}` write-masked).
    pub fn vmovdqu32_store(&mut self, vl: Vl, mem: Mem, src: Zmm, mask: Option<KReg>) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.evex(
            vl.ll(),
            src.ext3(),
            x,
            mem.base.ext(),
            src.ext4(),
            Map::M0F,
            false,
            0,
            0,
            Pp::PF3,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0x7F);
        self.modrm_mem_evex(src.low3(), mem);
    }

    /// `vmovdqa32 zmm, zmm` (register-to-register vector move; ymm at
    /// [`Vl::Y256`]).
    pub fn vmovdqa32_rr(&mut self, vl: Vl, dst: Zmm, src: Zmm) {
        self.evex(
            vl.ll(),
            dst.ext3(),
            src.ext4(),
            src.ext3(),
            dst.ext4(),
            Map::M0F,
            false,
            0,
            0,
            Pp::P66,
            0,
            false,
        );
        self.u8(0x6F);
        self.modrm_reg(dst.low3(), src.low3());
    }

    /// `vpbroadcastd zmm|ymm, r32`.
    pub fn vpbroadcastd_r32(&mut self, vl: Vl, dst: Zmm, src: Gpr) {
        self.evex(
            vl.ll(),
            dst.ext3(),
            0,
            src.ext(),
            dst.ext4(),
            Map::M0F38,
            false,
            0,
            0,
            Pp::P66,
            0,
            false,
        );
        self.u8(0x7C);
        self.modrm_reg(dst.low3(), src.low3());
    }

    /// `vpxord zmm, zmm, zmm` (zeroing idiom when all three are equal;
    /// ymm at [`Vl::Y256`]).
    pub fn vpxord(&mut self, vl: Vl, dst: Zmm, a: Zmm, b: Zmm) {
        self.evex(
            vl.ll(),
            dst.ext3(),
            b.ext4(),
            b.ext3(),
            dst.ext4(),
            Map::M0F,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0xEF);
        self.modrm_reg(dst.low3(), b.low3());
    }

    /// `vpaddd zmm, zmm, zmm` (ymm at [`Vl::Y256`]).
    pub fn vpaddd(&mut self, vl: Vl, dst: Zmm, a: Zmm, b: Zmm) {
        self.evex(
            vl.ll(),
            dst.ext3(),
            b.ext4(),
            b.ext3(),
            dst.ext4(),
            Map::M0F,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0xFE);
        self.modrm_reg(dst.low3(), b.low3());
    }

    /// `vpcmpud k {mask}, zmm, zmm, imm` — unsigned dword compare. The
    /// predicate immediate: 0 eq, 1 lt, 2 le, 4 ne, 5 nlt (ge), 6 nle (gt).
    pub fn vpcmpud(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F3A,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0x1E);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vpcmpd k {mask}, zmm, zmm, imm` — signed dword compare.
    pub fn vpcmpd(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F3A,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0x1F);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vcmpps k {mask}, zmm, zmm, imm` — packed float compare (ordered
    /// predicates per `_CMP_*`).
    pub fn vcmpps(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::None,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0xC2);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vpcompressd zmm {k}{z}, zmm` (ymm at [`Vl::Y256`]) — note the SDM
    /// operand order: the destination is ModRM.rm, the source is ModRM.reg.
    pub fn vpcompressd(&mut self, vl: Vl, dst: Zmm, src: Zmm, mask: KReg, zero: bool) {
        self.evex(
            vl.ll(),
            src.ext3(),
            dst.ext4(),
            dst.ext3(),
            src.ext4(),
            Map::M0F38,
            false,
            0,
            0,
            Pp::P66,
            mask.num(),
            zero,
        );
        self.u8(0x8B);
        self.modrm_reg(src.low3(), dst.low3());
    }

    /// `vpermt2d dst, idx, table2` at `vl`: dst (first table, overwritten)
    /// is ModRM.reg, `idx` is vvvv, `table2` is ModRM.rm.
    pub fn vpermt2d(&mut self, vl: Vl, dst: Zmm, idx: Zmm, table2: Zmm) {
        self.evex(
            vl.ll(),
            dst.ext3(),
            table2.ext4(),
            table2.ext3(),
            dst.ext4(),
            Map::M0F38,
            false,
            idx.0 & 0xF,
            idx.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0x7E);
        self.modrm_reg(dst.low3(), table2.low3());
    }

    /// `vpgatherdd zmm {k}, [base + zmm_index*scale]` — VSIB addressing.
    /// The mask is mandatory and is consumed (cleared) by the instruction.
    pub fn vpgatherdd(&mut self, dst: Zmm, base: Gpr, index: Zmm, scale: u8, mask: KReg) {
        assert!(matches!(scale, 1 | 2 | 4 | 8));
        assert!(mask.num() != 0, "gather requires a non-k0 mask");
        assert!(
            dst.0 != index.0,
            "gather destination must differ from index"
        );
        self.evex512(
            dst.ext3(),
            index.ext3(),
            base.ext(),
            dst.ext4(),
            Map::M0F38,
            false,
            0,
            index.ext4(),
            Pp::P66,
            mask.num(),
            false,
        );
        self.u8(0x90);
        // VSIB: mod=00 (no disp; rbp/r13 base would need mod=01), rm=100.
        let base3 = mem_base_for_vsib(base);
        if base3 == 5 {
            // rbp/r13: mod=01 with disp8 = 0.
            self.u8((0b01 << 6) | (dst.low3() << 3) | 0b100);
            self.u8((scale.trailing_zeros() as u8) << 6 | (index.low3() << 3) | base3);
            self.u8(0);
        } else {
            self.u8((dst.low3() << 3) | 0b100);
            self.u8((scale.trailing_zeros() as u8) << 6 | (index.low3() << 3) | base3);
        }
    }

    /// `imul r64, r64, imm8` (three-operand signed multiply).
    pub fn imul_r64_r64_imm8(&mut self, dst: Gpr, src: Gpr, imm: i8) {
        self.rex(true, dst.ext(), 0, src.ext());
        self.u8(0x6B);
        self.modrm_reg(dst.low3(), src.low3());
        self.u8(imm as u8);
    }

    /// `shr r64, imm8`.
    pub fn shr_r64_imm8(&mut self, dst: Gpr, imm: u8) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0xC1);
        self.modrm_reg(5, dst.low3());
        self.u8(imm);
    }

    /// `and r64, imm8` (sign-extended).
    pub fn and_r64_imm8(&mut self, dst: Gpr, imm: i8) {
        self.rex(true, 0, 0, dst.ext());
        self.u8(0x83);
        self.modrm_reg(4, dst.low3());
        self.u8(imm as u8);
    }

    /// `vpshrdvd zmm, zmm, zmm` — VBMI2 concat-and-variable-shift-right:
    /// lane i of the result is `(b:a)[i] >> (count[i] % 32)` truncated to
    /// 32 bits (`_mm512_shrdv_epi32(a, b, count)`; `a` is the destination).
    pub fn vpshrdvd(&mut self, dst_a: Zmm, b: Zmm, count: Zmm) {
        self.evex512(
            dst_a.ext3(),
            count.ext4(),
            count.ext3(),
            dst_a.ext4(),
            Map::M0F38,
            false,
            b.0 & 0xF,
            b.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0x73);
        self.modrm_reg(dst_a.low3(), count.low3());
    }

    /// `vpermd zmm, zmm_idx, zmm_src` (`_mm512_permutexvar_epi32(idx, src)`).
    pub fn vpermd(&mut self, dst: Zmm, idx: Zmm, src: Zmm) {
        self.evex512(
            dst.ext3(),
            src.ext4(),
            src.ext3(),
            dst.ext4(),
            Map::M0F38,
            false,
            idx.0 & 0xF,
            idx.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0x36);
        self.modrm_reg(dst.low3(), src.low3());
    }

    /// `vpmulld zmm, zmm, zmm` (low 32-bit product per lane).
    pub fn vpmulld(&mut self, dst: Zmm, a: Zmm, b: Zmm) {
        self.evex512(
            dst.ext3(),
            b.ext4(),
            b.ext3(),
            dst.ext4(),
            Map::M0F38,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0x40);
        self.modrm_reg(dst.low3(), b.low3());
    }

    /// `vpsrld zmm, zmm, imm8` (logical right shift; destination in vvvv).
    pub fn vpsrld_imm(&mut self, dst: Zmm, src: Zmm, imm: u8) {
        self.evex512(
            0,
            src.ext4(),
            src.ext3(),
            0,
            Map::M0F,
            false,
            dst.0 & 0xF,
            dst.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0x72);
        self.modrm_reg(2, src.low3());
        self.u8(imm);
    }

    /// `vpandd zmm, zmm, zmm`.
    pub fn vpandd(&mut self, dst: Zmm, a: Zmm, b: Zmm) {
        self.evex512(
            dst.ext3(),
            b.ext4(),
            b.ext3(),
            dst.ext4(),
            Map::M0F,
            false,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            0,
            false,
        );
        self.u8(0xDB);
        self.modrm_reg(dst.low3(), b.low3());
    }

    // --- 64-bit-element (W1) EVEX instructions --------------------------
    // Used by the 8-lane geometry: values in zmm (8 × 64-bit lanes),
    // position lists in ymm (the `Vl::Y256` forms above).

    /// `vmovdqu64 zmm, [mem]`, optionally `{k}{z}`-masked.
    pub fn vmovdqu64_load(&mut self, dst: Zmm, mem: Mem, mask: Option<KReg>, zero: bool) {
        let x = mem.index.map_or(0, |(i, _)| i.ext());
        self.evex512(
            dst.ext3(),
            x,
            mem.base.ext(),
            dst.ext4(),
            Map::M0F,
            true,
            0,
            0,
            Pp::PF3,
            mask.map_or(0, KReg::num),
            zero,
        );
        self.u8(0x6F);
        self.modrm_mem_evex(dst.low3(), mem);
    }

    /// `vpbroadcastq zmm, r64`.
    pub fn vpbroadcastq_r64(&mut self, dst: Zmm, src: Gpr) {
        self.evex512(
            dst.ext3(),
            0,
            src.ext(),
            dst.ext4(),
            Map::M0F38,
            true,
            0,
            0,
            Pp::P66,
            0,
            false,
        );
        self.u8(0x7C);
        self.modrm_reg(dst.low3(), src.low3());
    }

    /// `vpcmpuq k {mask}, zmm, zmm, imm` — unsigned qword compare.
    pub fn vpcmpuq(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F3A,
            true,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0x1E);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vpcmpq k {mask}, zmm, zmm, imm` — signed qword compare.
    pub fn vpcmpq(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F3A,
            true,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0x1F);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vcmppd k {mask}, zmm, zmm, imm` — packed double compare.
    pub fn vcmppd(&mut self, dst: KReg, a: Zmm, b: Zmm, pred: u8, mask: Option<KReg>) {
        self.evex512(
            0,
            b.ext4(),
            b.ext3(),
            0,
            Map::M0F,
            true,
            a.0 & 0xF,
            a.ext4(),
            Pp::P66,
            mask.map_or(0, KReg::num),
            false,
        );
        self.u8(0xC2);
        self.modrm_reg(dst.num(), b.low3());
        self.u8(pred);
    }

    /// `vpgatherdq zmm {k}, [base + ymm_index*scale]` — dword indexes
    /// gathering qword values (the §V mixed-width fetch).
    pub fn vpgatherdq(&mut self, dst: Zmm, base: Gpr, index: Zmm, scale: u8, mask: KReg) {
        assert!(matches!(scale, 1 | 2 | 4 | 8));
        assert!(mask.num() != 0, "gather requires a non-k0 mask");
        self.evex512(
            dst.ext3(),
            index.ext3(),
            base.ext(),
            dst.ext4(),
            Map::M0F38,
            true,
            0,
            index.ext4(),
            Pp::P66,
            mask.num(),
            false,
        );
        self.u8(0x90);
        let base3 = mem_base_for_vsib(base);
        if base3 == 5 {
            self.u8((0b01 << 6) | (dst.low3() << 3) | 0b100);
            self.u8((scale.trailing_zeros() as u8) << 6 | (index.low3() << 3) | base3);
            self.u8(0);
        } else {
            self.u8((dst.low3() << 3) | 0b100);
            self.u8((scale.trailing_zeros() as u8) << 6 | (index.low3() << 3) | base3);
        }
    }
}

fn mem_base_for_vsib(base: Gpr) -> u8 {
    base.low3()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_function_bytes() {
        // mov eax, 42; ret
        let mut a = Asm::new();
        a.mov_r32_imm32(Gpr::Rax, 42);
        a.ret();
        assert_eq!(a.finish(), vec![0xB8, 42, 0, 0, 0, 0xC3]);
    }

    #[test]
    fn rex_extension_bits() {
        // mov r8, r15 → 4D 89 F8
        let mut a = Asm::new();
        a.mov_r64_r64(Gpr::R8, Gpr::R15);
        assert_eq!(a.finish(), vec![0x4D, 0x89, 0xF8]);
    }

    #[test]
    fn mem_operand_forms() {
        // mov rax, [rdi] → 48 8B 07
        let mut a = Asm::new();
        a.mov_r64_mem(Gpr::Rax, Mem::base(Gpr::Rdi));
        assert_eq!(a.finish(), vec![0x48, 0x8B, 0x07]);

        // mov rax, [rdi+8] → 48 8B 47 08
        let mut a = Asm::new();
        a.mov_r64_mem(Gpr::Rax, Mem::base_disp(Gpr::Rdi, 8));
        assert_eq!(a.finish(), vec![0x48, 0x8B, 0x47, 0x08]);

        // mov esi, [r8 + rdx*4] → 41 8B 34 90
        let mut a = Asm::new();
        a.mov_r32_mem(Gpr::Rsi, Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4));
        assert_eq!(a.finish(), vec![0x41, 0x8B, 0x34, 0x90]);

        // rsp base needs SIB: mov rax, [rsp] → 48 8B 04 24
        let mut a = Asm::new();
        a.mov_r64_mem(Gpr::Rax, Mem::base(Gpr::Rsp));
        assert_eq!(a.finish(), vec![0x48, 0x8B, 0x04, 0x24]);

        // rbp base needs disp8=0: mov rax, [rbp] → 48 8B 45 00
        let mut a = Asm::new();
        a.mov_r64_mem(Gpr::Rax, Mem::base(Gpr::Rbp));
        assert_eq!(a.finish(), vec![0x48, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        let top = a.new_label();
        let end = a.new_label();
        a.bind(top);
        a.jcc(Cond::E, end); // forward
        a.jmp(top); // backward
        a.bind(end);
        a.ret();
        let code = a.finish();
        // jcc rel32 at offset 0 (6 bytes), jmp rel32 at 6 (5 bytes), ret at 11.
        assert_eq!(&code[0..2], &[0x0F, 0x84]);
        assert_eq!(i32::from_le_bytes(code[2..6].try_into().unwrap()), 5); // → 11
        assert_eq!(code[6], 0xE9);
        assert_eq!(i32::from_le_bytes(code[7..11].try_into().unwrap()), -11); // → 0
        assert_eq!(code[11], 0xC3);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.jmp(l);
        let _ = a.finish();
    }

    #[test]
    fn kmov_encodings() {
        // kmovw k1, eax → C5 F8 92 C8
        let mut a = Asm::new();
        a.kmovw_k_r32(KReg(1), Gpr::Rax);
        assert_eq!(a.finish(), vec![0xC5, 0xF8, 0x92, 0xC8]);

        // kmovw eax, k1 → C5 F8 93 C1
        let mut a = Asm::new();
        a.kmovw_r32_k(Gpr::Rax, KReg(1));
        assert_eq!(a.finish(), vec![0xC5, 0xF8, 0x93, 0xC1]);
    }

    #[test]
    fn evex_load_encoding() {
        // vmovdqu32 zmm0, [rdi] → 62 F1 7E 48 6F 07
        let mut a = Asm::new();
        a.vmovdqu32_load(Vl::Z512, Zmm(0), Mem::base(Gpr::Rdi), None, false);
        assert_eq!(a.finish(), vec![0x62, 0xF1, 0x7E, 0x48, 0x6F, 0x07]);
    }

    #[test]
    fn evex_compress_encoding() {
        // vpcompressd zmm1{k1}{z}, zmm2 → 62 F2 7D C9 8B D1
        let mut a = Asm::new();
        a.vpcompressd(Vl::Z512, Zmm(1), Zmm(2), KReg(1), true);
        assert_eq!(a.finish(), vec![0x62, 0xF2, 0x7D, 0xC9, 0x8B, 0xD1]);
    }

    #[test]
    fn evex_cmp_encoding() {
        // vpcmpud k1, zmm0, zmm1, 0 → 62 F3 7D 48 1E C9 00
        let mut a = Asm::new();
        a.vpcmpud(KReg(1), Zmm(0), Zmm(1), 0, None);
        assert_eq!(a.finish(), vec![0x62, 0xF3, 0x7D, 0x48, 0x1E, 0xC9, 0x00]);
    }
}
