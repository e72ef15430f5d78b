//! The AVX-512 JIT backend: emits the Fused Table Scan of paper Fig. 3 as
//! native EVEX machine code, fully specialized for one chain signature —
//! needles are embedded immediates, comparison operators are `vpcmp`
//! predicate immediates, the chain length is unrolled into the code, and
//! the per-stage dispatch `match`es of the static kernels disappear
//! entirely. This is precisely the code §V argues must be generated at
//! runtime: with 10 data types × 6 operators per predicate, two predicates
//! already yield 3600 static variants. A bit-packed column's width (§VII)
//! is one more specialization parameter: its unpack controls are baked
//! into per-kernel tables and immediates.
//!
//! ## Emitted code shape
//!
//! One driver loop over blocks (fetch → `vpcmp` → `kortest` skip →
//! `vpcompressd` of block offsets), an inlined *push* sequence per stage
//! transition, and one *flush* subroutine per follow-up stage (gather →
//! masked `vpcmp` → `vpcompressd`), connected by near calls. A stage is a
//! maximal run of predicates on one column ([`ScanSig::stages`]): it
//! fetches its column once and compares the values against each needle of
//! its run, each `vpcmp` masked by the one before, so a `BETWEEN` costs one
//! load or gather. A chain over distinct columns has one stage per
//! predicate. The caller passes `rows` pre-truncated to a multiple of the
//! block size; the wrapper evaluates the tail rows after the kernel's
//! drain, preserving ascending position order.
//!
//! One skeleton serves every chain; two parameters vary:
//!
//! * the **lane geometry** — 16 × 32-bit values per block with zmm
//!   position lists (`MERGE16`, `IOTA16`, `MASK_LUT`), or 8 × 64-bit
//!   values with ymm position lists (`MERGE8` at 32-byte rows, `IOTA8`,
//!   `MASK_LUT8`) and qword loads, broadcasts, compares and gathers;
//! * the **per-column fetch** — a plain driver is one vector load and a
//!   plain follower one gather; a packed driver (≤ 16 bits) is a masked
//!   word load unpacked by `vpermd` word selectors and a `vpshrdvd`
//!   funnel shift from its [`DriverTables`], and a packed follower
//!   (≤ 32 bits) is two `vpgatherdd` of the neighbouring words followed
//!   by the same funnel. Packed columns occur only in `u32` chains.
//!
//! ## Register plan
//!
//! | reg | role |
//! |-----|------|
//! | `rdi` | `&KernelArgs` (preserved) |
//! | `rbp` | frame pointer: stage counts and spill slots live below it |
//! | `r8`  | column-0 pointer · `rcx` rows · `rdx` block base row |
//! | `rax` | batch size `m`, mask scratch · `rsi`, `r9`, `r10` scratch |
//! | `r11` | running match count · `rbx` position output base |
//! | `r12` | merge-table base |
//! | `zmm0` | block / gathered values · `zmm1-5` needle splats |
//! | `zmm6` | iota · `zmm7` fresh batch · `zmm8` zero · `zmm9-12` stage position lists |
//! | `zmm13` | merge control · `zmm14` block-offset vector (both also unpack scratch) |
//! | `zmm15` | splat(31) · `zmm16` splat(1) — only when a column is packed |
//! | `zmm17` | a packed driver's value mask |
//! | `k1` | driver mask · `k2` flush mask (a run's later compares write each mask under itself) · `k3` packed driver word-load mask |
//!
//! In the 8-lane geometry the position registers (`zmm6`, `zmm7`,
//! `zmm9-14`) are used as their ymm halves.

use std::ops::Range;

use fts_core::fused::{Stages, MERGE16, MERGE8};
use fts_storage::bitpack::mask_of;
use fts_storage::CmpOp;

use crate::asm::{Asm, Cond, Gpr, KReg, Label, Mem, Vl, Zmm};
use crate::ir::{JitElem, JitError, ScanSig, Storage, MAX_JIT_PREDICATES};

/// Lane masks `(1 << c) - 1` for flush masks, indexed by list length.
static MASK_LUT: [u16; 17] = {
    let mut t = [0u16; 17];
    let mut c = 0;
    while c <= 16 {
        t[c] = if c == 16 { u16::MAX } else { (1u16 << c) - 1 };
        c += 1;
    }
    t
};

/// Lane masks for 8-lane blocks.
static MASK_LUT8: [u16; 9] = [0, 1, 3, 7, 15, 31, 63, 127, 255];

/// Block-offset base vector (0..16).
static IOTA16: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Block-offset base vector for 8-lane blocks.
static IOTA8: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

// Frame layout (rbp-relative). rbp-8/-16 hold saved rbx/r12.
fn count_off(s: usize) -> i32 {
    -(16 + 8 * s as i32)
}
fn rax_off(s: usize) -> i32 {
    -(48 + 8 * s as i32)
}
fn zmm_off(s: usize) -> i32 {
    -(128 + 64 * s as i32)
}
const FRAME: i32 = 400;

fn needle_reg(pred: usize) -> Zmm {
    Zmm(1 + pred as u8)
}
fn plist_reg(stage: usize) -> Zmm {
    Zmm(8 + stage as u8)
}

/// A kernel's lane geometry: rows per block (= position-list capacity),
/// the vector length of its position lists, and the tables addressed at
/// that width.
struct Geometry {
    lanes: i8,
    vl: Vl,
    /// `MERGE16`/`MERGE8` base and log2 of its row size in bytes.
    merge: u64,
    merge_shift: u8,
    iota: u64,
    mask_lut: u64,
}

impl Geometry {
    fn of(elem: JitElem) -> Geometry {
        if elem.is_wide() {
            Geometry {
                lanes: 8,
                vl: Vl::Y256,
                merge: MERGE8.as_ptr() as u64,
                merge_shift: 5,
                iota: IOTA8.as_ptr() as u64,
                mask_lut: MASK_LUT8.as_ptr() as u64,
            }
        } else {
            Geometry {
                lanes: 16,
                vl: Vl::Z512,
                merge: MERGE16.as_ptr() as u64,
                merge_shift: 6,
                iota: IOTA16.as_ptr() as u64,
                mask_lut: MASK_LUT.as_ptr() as u64,
            }
        }
    }
}

/// Driver unpack controls for one alignment variant (0 or 16 bits into the
/// first word). Byte offsets inside the struct are part of the emitted
/// code's ABI.
#[repr(C, align(64))]
struct AlignCtl {
    idx_lo: [u32; 16], // +0
    idx_hi: [u32; 16], // +64
    offs: [u32; 16],   // +128
    wmask: u32,        // +192
    _pad: [u32; 15],
}

/// A packed driver's unpack tables: both alignment variants, 256 bytes
/// apart. The emitted code references them by absolute address, so they
/// must live as long as the code.
#[repr(C, align(64))]
pub struct DriverTables {
    variants: [AlignCtl; 2],
}

fn driver_tables(bits: u32) -> Box<DriverTables> {
    let make = |align: u32| {
        let mut idx_lo = [0u32; 16];
        let mut idx_hi = [0u32; 16];
        let mut offs = [0u32; 16];
        for i in 0..16u32 {
            let bit = align + i * bits;
            idx_lo[i as usize] = bit / 32;
            idx_hi[i as usize] = bit / 32 + 1;
            offs[i as usize] = bit % 32;
        }
        let wcnt = ((align + 16 * bits).div_ceil(32) + 1).min(16);
        AlignCtl {
            idx_lo,
            idx_hi,
            offs,
            wmask: (1u32 << wcnt) - 1,
            _pad: [0; 15],
        }
    };
    Box::new(DriverTables {
        variants: [make(0), make(16)],
    })
}

/// `vpcmp*` predicate immediate for an operator.
fn cmp_imm(elem: JitElem, op: CmpOp) -> u8 {
    match elem {
        JitElem::U32 | JitElem::I32 | JitElem::U64 | JitElem::I64 => match op {
            CmpOp::Eq => 0,
            CmpOp::Lt => 1,
            CmpOp::Le => 2,
            CmpOp::Ne => 4,
            CmpOp::Ge => 5,
            CmpOp::Gt => 6,
        },
        // vcmpp[sd] ordered quiet/signaling predicates (NaN → false).
        JitElem::F32 | JitElem::F64 => match op {
            CmpOp::Eq => 0x00,
            CmpOp::Lt => 0x01,
            CmpOp::Le => 0x02,
            CmpOp::Ne => 0x0C,
            CmpOp::Ge => 0x0D,
            CmpOp::Gt => 0x0E,
        },
    }
}

fn emit_cmp(
    a: &mut Asm,
    elem: JitElem,
    dst: KReg,
    vals: Zmm,
    needle: Zmm,
    op: CmpOp,
    mask: Option<KReg>,
) {
    let imm = cmp_imm(elem, op);
    match elem {
        JitElem::U32 => a.vpcmpud(dst, vals, needle, imm, mask),
        JitElem::I32 => a.vpcmpd(dst, vals, needle, imm, mask),
        JitElem::F32 => a.vcmpps(dst, vals, needle, imm, mask),
        JitElem::U64 => a.vpcmpuq(dst, vals, needle, imm, mask),
        JitElem::I64 => a.vpcmpq(dst, vals, needle, imm, mask),
        JitElem::F64 => a.vcmppd(dst, vals, needle, imm, mask),
    }
}

/// Emit the match output: store the compressed batch (positions mode) and
/// bump the total. Expects fresh positions in `zmm7`, batch size in `rax`.
fn emit_output(a: &mut Asm, g: &Geometry, sig: &ScanSig) {
    if sig.emit_positions {
        a.vmovdqu32_store(
            g.vl,
            Mem::base_index_scale(Gpr::Rbx, Gpr::R11, 4),
            Zmm(7),
            None,
        );
    }
    a.add_r64_r64(Gpr::R11, Gpr::Rax);
}

/// Emit the push of the fresh batch (`zmm7`, size `rax`) into stage `s`
/// (paper §III's append discipline: flush the incomplete list first when
/// the batch does not fit, flush again when the list becomes full).
fn emit_push(a: &mut Asm, g: &Geometry, s: usize, flush: &[Label]) {
    let fits = a.new_label();
    let after = a.new_label();
    let skip_full = a.new_label();

    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
    a.add_r64_r64(Gpr::R9, Gpr::Rax);
    a.cmp_r64_imm8(Gpr::R9, g.lanes);
    a.jcc(Cond::Be, fits);
    // Overflow: spill the batch, flush the old list, start a new one.
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, rax_off(s)), Gpr::Rax);
    a.vmovdqu32_store(g.vl, Mem::base_disp(Gpr::Rbp, zmm_off(s)), Zmm(7), None);
    a.call(flush[s]);
    a.vmovdqu32_load(
        g.vl,
        Zmm(7),
        Mem::base_disp(Gpr::Rbp, zmm_off(s)),
        None,
        false,
    );
    a.mov_r64_mem(Gpr::Rax, Mem::base_disp(Gpr::Rbp, rax_off(s)));
    a.vmovdqa32_rr(g.vl, plist_reg(s), Zmm(7));
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
    a.jmp(after);

    a.bind(fits);
    // Append: ctl = MERGE[count]; plist = vpermt2d(plist, ctl, fresh).
    a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
    a.shl_r64_imm8(Gpr::R9, g.merge_shift);
    a.vmovdqu32_load(
        g.vl,
        Zmm(13),
        Mem::base_index_scale(Gpr::R12, Gpr::R9, 1),
        None,
        false,
    );
    a.vpermt2d(g.vl, plist_reg(s), Zmm(13), Zmm(7));
    a.add_r64_r64(Gpr::Rsi, Gpr::Rax);
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rsi);

    a.bind(after);
    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.cmp_r64_imm8(Gpr::Rsi, g.lanes);
    a.jcc(Cond::Ne, skip_full);
    a.call(flush[s]);
    a.bind(skip_full);
}

/// Load the driver block at row `rdx` into `zmm0`: one vector load of a
/// plain column, or a packed column's masked word load unpacked through
/// its [`DriverTables`] (`vpermd` selects each value's low and high word,
/// `vpshrdvd` funnels it down, `zmm17` masks it to the width).
fn emit_driver_fetch(a: &mut Asm, sig: &ScanSig, tables: Option<&DriverTables>) {
    match sig.preds[0].storage {
        Storage::Plain if sig.elem.is_wide() => a.vmovdqu64_load(
            Zmm(0),
            Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 8),
            None,
            false,
        ),
        Storage::Plain => a.vmovdqu32_load(
            Vl::Z512,
            Zmm(0),
            Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4),
            None,
            false,
        ),
        Storage::Packed { bits } => {
            let t = tables.expect("driver tables prepared");
            // base_bit = rdx * bits; r9 = word index; rax = variant offset.
            a.imul_r64_r64_imm8(Gpr::Rax, Gpr::Rdx, bits as i8);
            a.mov_r64_r64(Gpr::R9, Gpr::Rax);
            a.shr_r64_imm8(Gpr::R9, 5);
            a.and_r64_imm8(Gpr::Rax, 31);
            a.shr_r64_imm8(Gpr::Rax, 4);
            a.shl_r64_imm8(Gpr::Rax, 8); // × 256 = sizeof(AlignCtl)
            a.mov_r64_imm64(Gpr::R10, t as *const DriverTables as u64);
            a.add_r64_r64(Gpr::R10, Gpr::Rax);
            // Masked word load, then permute/funnel unpack.
            a.movzx_r32_m16(Gpr::Rax, Mem::base_disp(Gpr::R10, 192));
            a.kmovw_k_r32(KReg(3), Gpr::Rax);
            a.vmovdqu32_load(
                Vl::Z512,
                Zmm(0),
                Mem::base_index_scale(Gpr::R8, Gpr::R9, 4),
                Some(KReg(3)),
                true,
            );
            a.vmovdqu32_load(Vl::Z512, Zmm(13), Mem::base(Gpr::R10), None, false);
            a.vpermd(Zmm(14), Zmm(13), Zmm(0)); // lo words
            a.vmovdqu32_load(Vl::Z512, Zmm(13), Mem::base_disp(Gpr::R10, 64), None, false);
            a.vpermd(Zmm(13), Zmm(13), Zmm(0)); // hi words
            a.vmovdqu32_load(Vl::Z512, Zmm(0), Mem::base_disp(Gpr::R10, 128), None, false); // offs
            a.vpshrdvd(Zmm(14), Zmm(13), Zmm(0));
            a.vpandd(Zmm(14), Zmm(14), Zmm(17));
            a.vmovdqa32_rr(Vl::Z512, Zmm(0), Zmm(14)); // values where the cmp expects them
        }
    }
}

/// Gather predicate `pred`'s column (base in `r10`) at stage `s`'s pending
/// positions into `zmm0` under the flush mask `k2` (raw mask in `eax`; each
/// gather consumes `k2`, so it is rebuilt afterwards): one dword or qword
/// gather of a plain column, or a packed column's two-gather funnel
/// extraction.
fn emit_follower_fetch(a: &mut Asm, sig: &ScanSig, pred: usize, s: usize) {
    match sig.preds[pred].storage {
        Storage::Plain => {
            a.vpxord(Vl::Z512, Zmm(0), Zmm(0), Zmm(0));
            if sig.elem.is_wide() {
                // vpgatherdq: dword positions fetch qword values (scale 8).
                a.vpgatherdq(Zmm(0), Gpr::R10, plist_reg(s), 8, KReg(2));
            } else {
                a.vpgatherdd(Zmm(0), Gpr::R10, plist_reg(s), 4, KReg(2));
            }
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
        }
        Storage::Packed { bits } => {
            // bit = pos * bits; widx = bit >> 5; off = bit & 31 (zmm15).
            a.mov_r32_imm32(Gpr::Rsi, bits as u32);
            a.vpbroadcastd_r32(Vl::Z512, Zmm(13), Gpr::Rsi);
            a.vpmulld(Zmm(14), plist_reg(s), Zmm(13));
            a.vpsrld_imm(Zmm(13), Zmm(14), 5);
            a.vpandd(Zmm(14), Zmm(14), Zmm(15));
            // lo = words[widx] (masked gather consumes k2 → rebuild).
            a.vpxord(Vl::Z512, Zmm(0), Zmm(0), Zmm(0));
            a.vpgatherdd(Zmm(0), Gpr::R10, Zmm(13), 4, KReg(2));
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
            // hi = words[widx + 1] — the guard word keeps this in bounds.
            a.vpaddd(Vl::Z512, Zmm(13), Zmm(13), Zmm(16));
            a.vpxord(Vl::Z512, Zmm(7), Zmm(7), Zmm(7));
            a.vpgatherdd(Zmm(7), Gpr::R10, Zmm(13), 4, KReg(2));
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
            // val = ((hi:lo) >> off) & mask(bits).
            a.vpshrdvd(Zmm(0), Zmm(7), Zmm(14));
            a.mov_r32_imm32(Gpr::Rsi, mask_of(bits));
            a.vpbroadcastd_r32(Vl::Z512, Zmm(13), Gpr::Rsi);
            a.vpandd(Zmm(0), Zmm(0), Zmm(13));
        }
    }
}

/// Compare `zmm0` against each needle of `run` into `k`: the first
/// compare under `first_mask`, each later one under `k` itself.
fn emit_run_cmp(a: &mut Asm, sig: &ScanSig, k: KReg, run: Range<usize>, first_mask: Option<KReg>) {
    let mut mask = first_mask;
    for p in run {
        emit_cmp(a, sig.elem, k, Zmm(0), needle_reg(p), sig.preds[p].op, mask);
        mask = Some(k);
    }
}

/// Emit the flush subroutine body for stage `s`: gather the pending
/// positions from the stage's column once, compare them against each
/// predicate of its run under mask, compress the survivors and forward
/// them. Ends with `ret`.
fn emit_flush_body(
    a: &mut Asm,
    g: &Geometry,
    s: usize,
    sig: &ScanSig,
    stages: &Stages,
    flush: &[Label],
) {
    let run = stages.preds(s);
    let done = a.new_label();
    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.test_r64_r64(Gpr::Rsi, Gpr::Rsi);
    a.jcc(Cond::E, done);

    // k2 = lane_mask(count) via LUT; keep the raw mask in eax.
    a.mov_r64_imm64(Gpr::R9, g.mask_lut);
    a.movzx_r32_m16(Gpr::Rax, Mem::base_index_scale(Gpr::R9, Gpr::Rsi, 2));
    a.kmovw_k_r32(KReg(2), Gpr::Rax);
    // count = 0
    a.xor_r32_r32(Gpr::R10, Gpr::R10);
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::R10);
    a.mov_r64_mem(Gpr::R10, Mem::base_disp(Gpr::Rdi, 8 * run.start as i32));
    emit_follower_fetch(a, sig, run.start, s);
    // Masked compares against the embedded needles.
    emit_run_cmp(a, sig, KReg(2), run, Some(KReg(2)));
    a.kortestw(KReg(2), KReg(2));
    a.jcc(Cond::E, done);
    a.kmovw_r32_k(Gpr::Rax, KReg(2));
    a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
    a.vpcompressd(g.vl, Zmm(7), plist_reg(s), KReg(2), true);
    if s == stages.len() - 1 {
        emit_output(a, g, sig);
    } else {
        emit_push(a, g, s + 1, flush);
    }
    a.bind(done);
    a.ret();
}

/// Reject runs the emitter cannot scan: a driver that claims a previous
/// column, or a run whose predicates disagree on their column's storage.
fn check_runs(sig: &ScanSig) -> Result<(), JitError> {
    for (index, pred) in sig.preds.iter().enumerate() {
        let reason = match index.checked_sub(1) {
            _ if !pred.same_column => continue,
            None => "the driver has no previous column",
            Some(prev) if sig.preds[prev].storage != pred.storage => {
                "a run's predicates read one column, so one storage"
            }
            Some(_) => continue,
        };
        return Err(JitError::BadPredicate { index, reason });
    }
    Ok(())
}

/// Reject packed columns the emitter cannot scan: outside a `u32` chain,
/// outside 1–32 bits, a driver over 16 bits, or a needle above the width's
/// mask.
fn check_packed(sig: &ScanSig) -> Result<(), JitError> {
    for (index, pred) in sig.preds.iter().enumerate() {
        let Storage::Packed { bits } = pred.storage else {
            continue;
        };
        let reason = if sig.elem != JitElem::U32 {
            "packed columns occur only in u32 chains"
        } else if bits == 0 || bits > 32 {
            "packed width outside 1-32 bits"
        } else if index == 0 && bits > 16 {
            "packed driver wider than 16 bits"
        } else if pred.needle_bits > mask_of(bits) as u64 {
            "needle above the packed width's mask"
        } else {
            continue;
        };
        return Err(JitError::BadPredicate { index, reason });
    }
    Ok(())
}

/// Machine code for one signature, plus the data it addresses.
pub struct Emitted {
    /// The kernel's instructions.
    pub code: Vec<u8>,
    /// A packed driver's unpack tables, referenced by absolute address:
    /// keep them alive as long as the code.
    pub tables: Option<Box<DriverTables>>,
}

/// Compile the fused AVX-512 kernel for `sig`. The code is position
/// independent except for embedded absolute addresses of process statics
/// (merge/iota/mask tables) and of the returned [`Emitted::tables`], so a
/// kernel is valid for as long as its tables, which is exactly the kernel
/// cache's lifetime. Chains with packed columns need AVX-512 VBMI2.
pub fn compile_avx512(sig: &ScanSig) -> Result<Emitted, JitError> {
    if sig.is_empty() || sig.len() > MAX_JIT_PREDICATES {
        return Err(JitError::BadChainLength(sig.len()));
    }
    check_runs(sig)?;
    check_packed(sig)?;
    let tables = match sig.preds[0].storage {
        Storage::Packed { bits } => Some(driver_tables(bits as u32)),
        Storage::Plain => None,
    };
    let g = Geometry::of(sig.elem);
    let stages = sig.stages();
    let n = stages.len();
    let mut a = Asm::new();
    let flush: Vec<Label> = (0..n).map(|_| a.new_label()).collect();

    // Prologue.
    a.push_r64(Gpr::Rbp);
    a.mov_r64_r64(Gpr::Rbp, Gpr::Rsp);
    a.push_r64(Gpr::Rbx);
    a.push_r64(Gpr::R12);
    a.sub_r64_imm32(Gpr::Rsp, FRAME);

    a.xor_r32_r32(Gpr::Rax, Gpr::Rax);
    for s in 1..n {
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
    }
    a.mov_r64_mem(Gpr::R8, Mem::base(Gpr::Rdi));
    a.mov_r64_mem(Gpr::Rcx, Mem::base_disp(Gpr::Rdi, 64));
    if sig.emit_positions {
        a.mov_r64_mem(Gpr::Rbx, Mem::base_disp(Gpr::Rdi, 72));
    }
    a.xor_r32_r32(Gpr::R11, Gpr::R11);
    a.mov_r64_imm64(Gpr::R12, g.merge);
    for (i, pred) in sig.preds.iter().enumerate() {
        if sig.elem.is_wide() {
            a.mov_r64_imm64(Gpr::Rax, pred.needle_bits);
            a.vpbroadcastq_r64(needle_reg(i), Gpr::Rax);
        } else {
            a.mov_r32_imm32(Gpr::Rax, pred.needle_bits as u32);
            a.vpbroadcastd_r32(Vl::Z512, needle_reg(i), Gpr::Rax);
        }
    }
    a.mov_r64_imm64(Gpr::Rax, g.iota);
    a.vmovdqu32_load(g.vl, Zmm(6), Mem::base(Gpr::Rax), None, false);
    a.vpxord(Vl::Z512, Zmm(8), Zmm(8), Zmm(8));
    for s in 1..n {
        let r = plist_reg(s);
        a.vpxord(g.vl, r, r, r);
    }
    if sig.has_packed() {
        // Packed-scan constants in the EVEX-only high registers.
        a.mov_r32_imm32(Gpr::Rax, 31);
        a.vpbroadcastd_r32(Vl::Z512, Zmm(15), Gpr::Rax);
        a.mov_r32_imm32(Gpr::Rax, 1);
        a.vpbroadcastd_r32(Vl::Z512, Zmm(16), Gpr::Rax);
    }
    if let Storage::Packed { bits } = sig.preds[0].storage {
        a.mov_r32_imm32(Gpr::Rax, mask_of(bits));
        a.vpbroadcastd_r32(Vl::Z512, Zmm(17), Gpr::Rax);
    }
    a.xor_r32_r32(Gpr::Rdx, Gpr::Rdx);

    // Driver loop.
    let top = a.new_label();
    let next_block = a.new_label();
    let loop_end = a.new_label();
    a.bind(top);
    a.cmp_r64_r64(Gpr::Rdx, Gpr::Rcx);
    a.jcc(Cond::Ae, loop_end);
    emit_driver_fetch(&mut a, sig, tables.as_deref());
    emit_run_cmp(&mut a, sig, KReg(1), stages.preds(0), None);
    a.kortestw(KReg(1), KReg(1));
    a.jcc(Cond::E, next_block);
    a.kmovw_r32_k(Gpr::Rax, KReg(1));
    a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
    // Block offsets = iota + broadcast(base row), compressed by the mask.
    a.vpbroadcastd_r32(g.vl, Zmm(14), Gpr::Rdx);
    a.vpaddd(g.vl, Zmm(14), Zmm(14), Zmm(6));
    a.vpcompressd(g.vl, Zmm(7), Zmm(14), KReg(1), true);
    if n == 1 {
        emit_output(&mut a, &g, sig);
    } else {
        emit_push(&mut a, &g, 1, &flush);
    }
    a.bind(next_block);
    a.add_r64_imm8(Gpr::Rdx, g.lanes);
    a.jmp(top);

    // Drain stages ascending, return the total.
    a.bind(loop_end);
    for &stage in &flush[1..n] {
        a.call(stage);
    }
    a.mov_r64_r64(Gpr::Rax, Gpr::R11);
    a.add_r64_imm32(Gpr::Rsp, FRAME);
    a.pop_r64(Gpr::R12);
    a.pop_r64(Gpr::Rbx);
    a.pop_r64(Gpr::Rbp);
    a.ret();

    // Flush subroutines.
    for s in 1..n {
        a.bind(flush[s]);
        emit_flush_body(&mut a, &g, s, sig, &stages, &flush);
    }
    Ok(Emitted {
        code: a.finish(),
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{JitPred, KernelArgs, KernelFn};
    use crate::mem::ExecBuf;
    use fts_simd::has_avx512;

    fn skip() -> bool {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512 on this host");
            return true;
        }
        false
    }

    /// Run the JIT kernel on full blocks only (rows truncated), like the
    /// wrapper does.
    fn run<T: Copy>(sig: &ScanSig, cols: &[&[T]]) -> (u64, Vec<u32>) {
        let code = compile_avx512(sig).unwrap().code;
        let buf = ExecBuf::new(&code).unwrap();
        let lanes = sig.elem.lanes();
        let rows_full = cols[0].len() / lanes * lanes;
        let mut out = vec![0u32; rows_full + 16];
        let mut args = KernelArgs {
            cols: [std::ptr::null(); 8],
            rows: rows_full as u64,
            out: if sig.emit_positions {
                out.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        for (i, c) in cols.iter().enumerate() {
            args.cols[i] = c.as_ptr() as *const u8;
        }
        // SAFETY: AVX-512 present (checked by caller), compiled KernelFn.
        let f: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
        // SAFETY: args outlives the call; out has enough slack.
        let count = unsafe { f(&args) };
        out.truncate(count as usize);
        (count, out)
    }

    fn expected_u32(cols: &[&[u32]], preds: &[(CmpOp, u32)], rows: usize) -> Vec<u32> {
        use fts_storage::NativeType;
        (0..rows as u32)
            .filter(|&r| {
                preds
                    .iter()
                    .zip(cols)
                    .all(|(&(op, n), c)| c[r as usize].cmp_op(op, n))
            })
            .collect()
    }

    #[test]
    fn figure3_example_compiled() {
        if skip() {
            return;
        }
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let (count, pos) = run(&sig, &[&a[..], &b[..]]);
        assert_eq!(count, 3);
        assert_eq!(pos, vec![1, 12, 15]);
    }

    #[test]
    fn all_operator_pairs_match_reference() {
        if skip() {
            return;
        }
        let a: Vec<u32> = (0..640).map(|i| i % 13).collect();
        let b: Vec<u32> = (0..640).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [(op0, 6u32), (op1, 3u32)];
                let sig = ScanSig::chain::<u32>(&preds, true);
                let (count, pos) = run(&sig, &[&a[..], &b[..]]);
                let expected = expected_u32(&[&a, &b], &preds, 640);
                assert_eq!(pos, expected, "{op0} {op1}");
                assert_eq!(count, expected.len() as u64);
            }
        }
    }

    #[test]
    fn chains_one_to_five_predicates() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..1600u32).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let refs: Vec<&[u32]> = cols[..p].iter().map(|c| &c[..]).collect();
            let preds: Vec<(CmpOp, u32)> = vec![(CmpOp::Eq, 1); p];
            for emit in [false, true] {
                let sig = ScanSig::chain::<u32>(&preds, emit);
                let (count, pos) = run(&sig, &refs);
                let expected = expected_u32(&refs, &preds, 1600);
                assert_eq!(count, expected.len() as u64, "P={p} emit={emit}");
                if emit {
                    assert_eq!(pos, expected, "P={p}");
                }
            }
        }
    }

    #[test]
    fn extreme_selectivities_stress_flush_paths() {
        if skip() {
            return;
        }
        let rows = 4096usize;
        let all = vec![5u32; rows];
        let none = vec![4u32; rows];
        let half: Vec<u32> = (0..rows as u32).map(|i| 4 + i % 2).collect();
        for (x, y) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [(CmpOp::Eq, 5u32), (CmpOp::Eq, 5u32)];
            let sig = ScanSig::chain::<u32>(&preds, true);
            let (count, pos) = run(&sig, &[&x[..], &y[..]]);
            let expected = expected_u32(&[x, y], &preds, rows);
            assert_eq!(count, expected.len() as u64);
            assert_eq!(pos, expected);
        }
    }

    #[test]
    fn signed_chain_with_negatives() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let a: Vec<i32> = (0..800).map(|i| (i % 9) - 4).collect();
        let b: Vec<i32> = (0..800).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::chain::<i32>(&[(op, -1), (CmpOp::Ge, 0)], true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected: Vec<u32> = (0..800u32)
                .filter(|&r| a[r as usize].cmp_op(op, -1) && b[r as usize] >= 0)
                .collect();
            assert_eq!(pos, expected, "{op}");
        }
    }

    #[test]
    fn float_chain_with_nan() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let mut a: Vec<f32> = (0..640).map(|i| (i % 7) as f32).collect();
        a[13] = f32::NAN;
        a[500] = f32::NAN;
        let b: Vec<f32> = (0..640).map(|i| (i % 3) as f32).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::chain::<f32>(&[(op, 3.0), (CmpOp::Lt, 2.0)], true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected: Vec<u32> = (0..640u32)
                .filter(|&r| a[r as usize].cmp_op(op, 3.0) && b[r as usize] < 2.0)
                .collect();
            assert_eq!(pos, expected, "{op}");
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(matches!(
            compile_avx512(&ScanSig::chain::<u32>(&[], false)),
            Err(JitError::BadChainLength(0))
        ));
        let long = vec![(CmpOp::Eq, 1u32); 6];
        assert!(matches!(
            compile_avx512(&ScanSig::chain::<u32>(&long, false)),
            Err(JitError::BadChainLength(6))
        ));
    }

    fn expected_typed<T: Copy>(
        cols: &[&[T]],
        preds: &[(CmpOp, T)],
        rows: usize,
        cmp: impl Fn(T, CmpOp, T) -> bool,
    ) -> Vec<u32> {
        (0..rows as u32)
            .filter(|&r| {
                preds
                    .iter()
                    .zip(cols)
                    .all(|(&(op, n), c)| cmp(c[r as usize], op, n))
            })
            .collect()
    }

    #[test]
    fn w64_u64_all_operator_pairs() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let big = u64::MAX - 9;
        let a: Vec<u64> = (0..400u64)
            .map(|i| if i % 5 == 0 { big } else { i % 13 })
            .collect();
        let b: Vec<u64> = (0..400u64).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [(op0, big), (op1, 3u64)];
                let sig = ScanSig::chain::<u64>(&preds, true);
                let (count, pos) = run(&sig, &[&a[..], &b[..]]);
                // The test harness truncates to full 16-value blocks for the
                // 32-bit kernels; the 64-bit kernel consumes 8-value blocks,
                // so recompute the harness cut to 8.
                let rows_full = 400 / 8 * 8;
                let expected =
                    expected_typed(&[&a, &b], &preds, rows_full, |v, op, n| v.cmp_op(op, n));
                assert_eq!(pos, expected, "{op0} {op1}");
                assert_eq!(count, expected.len() as u64);
            }
        }
    }

    #[test]
    fn w64_i64_and_f64_chains() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let a: Vec<i64> = (0..800)
            .map(|i| (i % 9) - 4 + if i % 7 == 0 { i64::MIN / 2 } else { 0 })
            .collect();
        let b: Vec<i64> = (0..800).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let preds = [(op, -1i64), (CmpOp::Ge, 0i64)];
            let sig = ScanSig::chain::<i64>(&preds, true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected = expected_typed(&[&a, &b], &preds, 800, |v, op, n| v.cmp_op(op, n));
            assert_eq!(pos, expected, "i64 {op}");
        }

        let mut f: Vec<f64> = (0..800).map(|i| (i % 7) as f64 * 0.5).collect();
        f[13] = f64::NAN;
        f[700] = f64::NAN;
        let g: Vec<f64> = (0..800).map(|i| (i % 3) as f64 - 1.0).collect();
        for op in CmpOp::ALL {
            let preds = [(op, 1.5f64), (CmpOp::Lt, 1.0f64)];
            let sig = ScanSig::chain::<f64>(&preds, true);
            let (_, pos) = run(&sig, &[&f[..], &g[..]]);
            let expected = expected_typed(&[&f, &g], &preds, 800, |v, op, n| v.cmp_op(op, n));
            assert_eq!(pos, expected, "f64 {op}");
        }
    }

    #[test]
    fn w64_chains_up_to_five_and_extremes() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u64>> = (0..5u64)
            .map(|c| (0..960u64).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let refs: Vec<&[u64]> = cols[..p].iter().map(|c| &c[..]).collect();
            let preds: Vec<(CmpOp, u64)> = vec![(CmpOp::Eq, 1); p];
            let sig = ScanSig::chain::<u64>(&preds, true);
            let (count, pos) = run(&sig, &refs);
            use fts_storage::NativeType;
            let expected = expected_typed(&refs, &preds, 960, |v, op, n| v.cmp_op(op, n));
            assert_eq!(count, expected.len() as u64, "P={p}");
            assert_eq!(pos, expected, "P={p}");
        }
        // All-match stresses the full/overflow flush paths.
        let all = vec![5u64; 2048];
        let sig = ScanSig::chain::<u64>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 5)], false);
        let (count, _) = run(&sig, &[&all[..], &all[..]]);
        assert_eq!(count, 2048);
    }

    /// Needles and operators for runs over values in `0..23`.
    const RUN_PREDS: [(CmpOp, u64); 5] = [
        (CmpOp::Ge, 3),
        (CmpOp::Le, 17),
        (CmpOp::Ne, 11),
        (CmpOp::Lt, 20),
        (CmpOp::Gt, 1),
    ];

    /// Chains reading `cols[layout[k]]` for predicate `k`: runs in driver
    /// position, in follower position and spanning three predicates, in
    /// both output modes.
    fn check_run_layouts<T: Copy + fts_storage::NativeType>(
        elem: JitElem,
        cols: &[Vec<T>],
        to_bits: impl Fn(u64) -> u64,
        from_bits: impl Fn(u64) -> T,
    ) {
        let layouts: [&[usize]; 5] = [
            &[0, 0],
            &[0, 0, 1],
            &[1, 0, 0],
            &[1, 0, 0, 0, 1],
            &[0, 0, 1, 1],
        ];
        for layout in layouts {
            let refs: Vec<&[T]> = layout.iter().map(|&c| &cols[c][..]).collect();
            let preds: Vec<(CmpOp, T)> = RUN_PREDS[..layout.len()]
                .iter()
                .map(|&(op, n)| (op, from_bits(to_bits(n))))
                .collect();
            for emit in [false, true] {
                let sig = ScanSig {
                    elem,
                    preds: RUN_PREDS[..layout.len()]
                        .iter()
                        .map(|&(op, n)| JitPred::plain(op, to_bits(n)))
                        .collect(),
                    emit_positions: emit,
                }
                .with_columns(layout);
                assert!(sig.stages().len() < layout.len(), "{layout:?} has a run");
                let (count, pos) = run(&sig, &refs);
                let rows = cols[0].len() / elem.lanes() * elem.lanes();
                let expected = expected_typed(&refs, &preds, rows, |v, op, n| v.cmp_op(op, n));
                assert_eq!(count, expected.len() as u64, "{elem:?} {layout:?}");
                if emit {
                    assert_eq!(pos, expected, "{elem:?} {layout:?}");
                }
            }
        }
    }

    #[test]
    fn same_column_runs_compare_one_fetch() {
        if skip() {
            return;
        }
        let raw: Vec<Vec<u64>> = (0..2u64)
            .map(|c| (0..1000u64).map(|i| (i * (7 + c * 4) + c) % 23).collect())
            .collect();
        let u32s: Vec<Vec<u32>> = raw
            .iter()
            .map(|c| c.iter().map(|&v| v as u32).collect())
            .collect();
        check_run_layouts(JitElem::U32, &u32s, |n| n, |b| b as u32);
        let f32s: Vec<Vec<f32>> = raw
            .iter()
            .map(|c| c.iter().map(|&v| v as f32).collect())
            .collect();
        check_run_layouts(
            JitElem::F32,
            &f32s,
            |n| (n as f32).to_bits() as u64,
            |b| f32::from_bits(b as u32),
        );
        let base = u32::MAX as u64 - 5;
        let u64s: Vec<Vec<u64>> = raw
            .iter()
            .map(|c| c.iter().map(|&v| base + v).collect())
            .collect();
        check_run_layouts(JitElem::U64, &u64s, |n| base + n, |b| b);
        let i64s: Vec<Vec<i64>> = raw
            .iter()
            .map(|c| c.iter().map(|&v| (v as i64 - 12) << 40).collect())
            .collect();
        check_run_layouts(
            JitElem::I64,
            &i64s,
            |n| ((n as i64 - 12) << 40) as u64,
            |b| b as i64,
        );
    }

    #[test]
    fn a_run_loads_its_column_once() {
        // A two-predicate run on one column drives alone: no flush
        // subroutine, so no gather; the second compare is masked into `k1`.
        let range =
            ScanSig::chain::<u32>(&[(CmpOp::Ge, 10), (CmpOp::Le, 35)], false).with_columns([0, 0]);
        let pair = ScanSig::chain::<u32>(&[(CmpOp::Ge, 10), (CmpOp::Le, 35)], false);
        let code = |sig: &ScanSig| compile_avx512(sig).unwrap().code;
        assert!(code(&range).len() < code(&pair).len());
        let one = ScanSig::chain::<u32>(&[(CmpOp::Ge, 10)], false);
        // The run adds one needle broadcast and one compare to the
        // one-predicate kernel: far less than a flush subroutine.
        assert!(
            code(&range).len() < code(&one).len() + 32,
            "{} vs {}",
            code(&range).len(),
            code(&one).len()
        );
        let mut bad = ScanSig::chain::<u32>(&[(CmpOp::Eq, 1)], false);
        bad.preds[0].same_column = true;
        assert!(matches!(
            compile_avx512(&bad),
            Err(JitError::BadPredicate { index: 0, .. })
        ));
        let mixed = ScanSig {
            elem: JitElem::U32,
            preds: vec![
                JitPred::plain(CmpOp::Eq, 1),
                JitPred {
                    same_column: true,
                    ..JitPred::packed(4, CmpOp::Eq, 1)
                },
            ],
            emit_positions: false,
        };
        assert!(matches!(
            compile_avx512(&mixed),
            Err(JitError::BadPredicate { index: 1, .. })
        ));
    }

    #[test]
    fn packed_rejections_name_the_predicate() {
        let reject = |elem: JitElem, preds: Vec<JitPred>| match compile_avx512(&ScanSig {
            elem,
            preds,
            emit_positions: false,
        }) {
            Err(JitError::BadPredicate { index, .. }) => index,
            Err(e) => panic!("expected BadPredicate, got {e}"),
            Ok(_) => panic!("expected BadPredicate, got a kernel"),
        };
        let plain = JitPred::plain(CmpOp::Eq, 1);
        // A driver wider than 16 bits.
        assert_eq!(
            reject(JitElem::U32, vec![JitPred::packed(20, CmpOp::Eq, 1)]),
            0
        );
        // Widths outside 1–32 bits, as driver and as follower.
        assert_eq!(
            reject(JitElem::U32, vec![JitPred::packed(0, CmpOp::Eq, 0)]),
            0
        );
        assert_eq!(
            reject(JitElem::U32, vec![plain, JitPred::packed(33, CmpOp::Eq, 1)]),
            1
        );
        // A needle above the width's mask.
        assert_eq!(
            reject(
                JitElem::U32,
                vec![plain, plain, JitPred::packed(4, CmpOp::Lt, 16)]
            ),
            2
        );
        // Packed columns occur only in u32 chains.
        assert_eq!(
            reject(JitElem::I32, vec![plain, JitPred::packed(8, CmpOp::Eq, 1)]),
            1
        );
        // The message names the predicate and the reason.
        let err = compile_avx512(&ScanSig {
            elem: JitElem::U32,
            preds: vec![JitPred::packed(20, CmpOp::Eq, 1)],
            emit_positions: false,
        });
        let text = err.err().expect("rejected").to_string();
        assert!(
            text.contains("predicate 0") && text.contains("16 bits"),
            "{text}"
        );
    }

    #[test]
    fn emitted_code_is_reasonably_sized() {
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let code = compile_avx512(&sig).unwrap().code;
        assert!(
            code.len() > 100 && code.len() < 4096,
            "{} bytes",
            code.len()
        );
    }

    // --- bit-packed columns ---------------------------------------------

    mod packed {
        use super::super::*;
        use crate::ir::JitPred;
        use crate::kernel::{CompiledKernel, JitBackend, JitCol, RunError};
        use fts_core::fused::packed::{scan_packed_reference, PackedPred};
        use fts_core::TypedPred;
        use fts_storage::bitpack::PackedColumn;

        fn skip() -> bool {
            if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
                eprintln!("skipping: no AVX-512 VBMI2");
                return true;
            }
            false
        }

        fn u32_sig(preds: Vec<JitPred>, emit_positions: bool) -> ScanSig {
            ScanSig {
                elem: JitElem::U32,
                preds,
                emit_positions,
            }
        }

        fn compile(sig: ScanSig) -> Result<CompiledKernel, JitError> {
            CompiledKernel::compile(sig, JitBackend::Avx512)
        }

        fn check(sig: ScanSig, cols: &[JitCol<'_, u32>], reference: &[PackedPred<'_>]) {
            let expected = scan_packed_reference(reference);
            let k = compile(sig).unwrap();
            let out = k.run_cols(cols).unwrap();
            assert_eq!(out.positions().unwrap(), &expected);
        }

        #[test]
        fn packed_driver_all_narrow_widths() {
            if skip() {
                return;
            }
            for bits in 1..=16u8 {
                let mask = mask_of(bits);
                let values: Vec<u32> = (0..1003u32)
                    .map(|i| i.wrapping_mul(2654435761) & mask)
                    .collect();
                let col = PackedColumn::pack(&values, bits).unwrap();
                let plain: Vec<u32> = (0..1003).map(|i| i % 3).collect();
                for op in CmpOp::ALL {
                    let sig = u32_sig(
                        vec![
                            JitPred::packed(bits, op, mask / 2),
                            JitPred::plain(CmpOp::Eq, 1),
                        ],
                        true,
                    );
                    check(
                        sig,
                        &[JitCol::Packed(&col), JitCol::Plain(&plain)],
                        &[
                            PackedPred::Packed {
                                col: &col,
                                op,
                                needle: mask / 2,
                            },
                            PackedPred::Plain(TypedPred::eq(&plain[..], 1)),
                        ],
                    );
                }
            }
        }

        #[test]
        fn packed_follow_up_any_width() {
            if skip() {
                return;
            }
            for bits in [3u8, 7, 11, 16, 21, 29, 32] {
                let mask = mask_of(bits);
                let a: Vec<u32> = (0..900).map(|i| i % 5).collect();
                let values: Vec<u32> = (0..900u32)
                    .map(|i| i.wrapping_mul(2246822519) & mask)
                    .collect();
                let col = PackedColumn::pack(&values, bits).unwrap();
                for op in CmpOp::ALL {
                    let sig = u32_sig(
                        vec![
                            JitPred::plain(CmpOp::Eq, 2),
                            JitPred::packed(bits, op, mask / 2),
                        ],
                        true,
                    );
                    check(
                        sig,
                        &[JitCol::Plain(&a), JitCol::Packed(&col)],
                        &[
                            PackedPred::Plain(TypedPred::eq(&a[..], 2)),
                            PackedPred::Packed {
                                col: &col,
                                op,
                                needle: mask / 2,
                            },
                        ],
                    );
                }
            }
        }

        #[test]
        fn fully_packed_three_predicate_chain_and_count_mode() {
            if skip() {
                return;
            }
            let cols: Vec<PackedColumn> = [4u8, 9, 13]
                .iter()
                .map(|&bits| {
                    let mask = mask_of(bits);
                    let values: Vec<u32> = (0..1600u32)
                        .map(|i| i.wrapping_mul(9973 + bits as u32) & mask)
                        .collect();
                    PackedColumn::pack(&values, bits).unwrap()
                })
                .collect();
            let preds: Vec<JitPred> = cols
                .iter()
                .map(|c| JitPred::packed(c.bits(), CmpOp::Le, mask_of(c.bits()) / 2))
                .collect();
            let refs: Vec<JitCol<'_, u32>> = cols.iter().map(JitCol::Packed).collect();
            let reference: Vec<PackedPred<'_>> = cols
                .iter()
                .map(|c| PackedPred::Packed {
                    col: c,
                    op: CmpOp::Le,
                    needle: mask_of(c.bits()) / 2,
                })
                .collect();
            let expected = scan_packed_reference(&reference);

            let k = compile(u32_sig(preds.clone(), true)).unwrap();
            assert_eq!(k.run_cols(&refs).unwrap().positions().unwrap(), &expected);

            let k = compile(u32_sig(preds, false)).unwrap();
            assert_eq!(k.run_cols(&refs).unwrap().count(), expected.len() as u64);
            assert!(k.compile_time().as_millis() < 100);
        }

        #[test]
        fn validation() {
            if skip() {
                return;
            }
            // Wide driver rejected at compile time.
            let err = compile(u32_sig(vec![JitPred::packed(20, CmpOp::Eq, 1)], false));
            assert!(matches!(err, Err(JitError::BadPredicate { index: 0, .. })));
            // Width mismatch rejected at run time.
            let sig = u32_sig(vec![JitPred::packed(4, CmpOp::Eq, 1)], false);
            let k = compile(sig).unwrap();
            let col = PackedColumn::pack(&[1u32, 2, 3], 5).unwrap();
            assert_eq!(
                k.run_cols(&[JitCol::<u32>::Packed(&col)]).unwrap_err(),
                RunError::StorageMismatch
            );
        }

        #[test]
        fn high_registers_only_for_packed_chains() {
            if skip() {
                return;
            }
            // zmm15/zmm16 hold the funnel constants once any column is
            // packed; zmm17 holds a packed driver's value mask. A plain
            // chain's code never touches them.
            let disasm = |preds: Vec<JitPred>| compile(u32_sig(preds, true)).unwrap().disassemble();
            let plain = JitPred::plain(CmpOp::Eq, 5);
            let packed = JitPred::packed(7, CmpOp::Eq, 5);
            let Some(all_plain) = disasm(vec![plain, plain]) else {
                eprintln!("objdump unavailable — skipping");
                return;
            };
            let follower = disasm(vec![plain, packed]).unwrap();
            let driver = disasm(vec![packed, plain]).unwrap();
            for reg in ["zmm15", "zmm16", "zmm17"] {
                assert!(!all_plain.contains(reg), "{reg} in a plain chain");
                assert!(driver.contains(reg), "{reg} missing for a packed driver");
            }
            assert!(follower.contains("zmm15") && follower.contains("zmm16"));
            assert!(
                !follower.contains("zmm17"),
                "no driver mask for a plain driver"
            );
        }

        #[test]
        fn tails_and_empty() {
            if skip() {
                return;
            }
            for rows in [0usize, 1, 15, 16, 17, 100] {
                let values: Vec<u32> = (0..rows as u32).map(|i| i % 4).collect();
                let col = PackedColumn::pack(&values, 2).unwrap();
                let sig = u32_sig(vec![JitPred::packed(2, CmpOp::Eq, 1)], true);
                let k = compile(sig).unwrap();
                let out = k.run_cols(&[JitCol::<u32>::Packed(&col)]).unwrap();
                let expected: Vec<u32> = (0..rows as u32)
                    .filter(|&i| values[i as usize] == 1)
                    .collect();
                assert_eq!(
                    out.positions().unwrap().as_slice(),
                    &expected[..],
                    "rows={rows}"
                );
            }
        }
    }
}
