//! JIT backend for fused scans over **bit-packed** columns — §V's runtime
//! code generation meeting §VII's compression future work. The emitted
//! kernel specializes, per column, not just operator and needle but the
//! *bit width*: the driver's unpack controls (`vpermd` word selectors,
//! funnel-shift offsets, load masks) are baked into per-kernel tables, and
//! the gather-side extraction multiplies positions by an immediate-derived
//! width before the two-gather `vpshrdvd` funnel.
//!
//! Register plan extends the 32-bit backend's (see `compile_avx512`):
//! `zmm15` = splat(31), `zmm16` = splat(1), `zmm17` = the driver column's
//! value mask — the EVEX-only high registers the rest of the kernel never
//! touches.

use fts_core::fused::MERGE16;
use fts_core::{OutputMode, ScanOutput};
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::{CmpOp, PosList};

use crate::asm::{Asm, Cond, Gpr, KReg, Label, Mem, Zmm};
use crate::ir::{JitError, KernelArgs, KernelFn, MAX_JIT_PREDICATES};
use crate::mem::ExecBuf;

const LANES: i8 = 16;

// Frame layout shared with the 32-bit backend.
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

static MASK_LUT: [u16; 17] = {
    let mut t = [0u16; 17];
    let mut c = 0;
    while c <= 16 {
        t[c] = if c == 16 { u16::MAX } else { (1u16 << c) - 1 };
        c += 1;
    }
    t
};

static IOTA16: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// One column of a packed-chain signature (unsigned 32-bit value domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedColSig {
    /// Plain `u32` column.
    Plain {
        /// Comparison operator.
        op: CmpOp,
        /// Literal.
        needle: u32,
    },
    /// Bit-packed column (driver supports widths 1–16; follow-ups 1–32).
    Packed {
        /// Bits per value.
        bits: u8,
        /// Comparison operator.
        op: CmpOp,
        /// Literal (must fit the width; resolve out-of-domain literals
        /// before building the signature, as `fts-core::fused::packed`
        /// does).
        needle: u32,
    },
}

impl PackedColSig {
    fn op(&self) -> CmpOp {
        match self {
            PackedColSig::Plain { op, .. } | PackedColSig::Packed { op, .. } => *op,
        }
    }

    fn needle(&self) -> u32 {
        match self {
            PackedColSig::Plain { needle, .. } | PackedColSig::Packed { needle, .. } => *needle,
        }
    }
}

/// A packed-chain signature (the kernel-cache key for this backend).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedScanSig {
    /// Columns in evaluation order.
    pub preds: Vec<PackedColSig>,
    /// Whether positions are emitted.
    pub emit_positions: bool,
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

/// Both alignment variants, 256 bytes apart.
#[repr(C, align(64))]
struct DriverTables {
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

fn mask_cmp_imm(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Lt => 1,
        CmpOp::Le => 2,
        CmpOp::Ne => 4,
        CmpOp::Ge => 5,
        CmpOp::Gt => 6,
    }
}

/// Emit the match output (fresh positions in zmm7, size in rax).
fn emit_output(a: &mut Asm, sig: &PackedScanSig) {
    if sig.emit_positions {
        a.vmovdqu32_store(Mem::base_index_scale(Gpr::Rbx, Gpr::R11, 4), Zmm(7), None);
    }
    a.add_r64_r64(Gpr::R11, Gpr::Rax);
}

/// Push of the fresh batch into stage `s` (same discipline as the plain
/// backend).
fn emit_push(a: &mut Asm, s: usize, flush: &[Label]) {
    let fits = a.new_label();
    let after = a.new_label();
    let skip_full = a.new_label();

    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
    a.add_r64_r64(Gpr::R9, Gpr::Rax);
    a.cmp_r64_imm8(Gpr::R9, LANES);
    a.jcc(Cond::Be, fits);
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, rax_off(s)), Gpr::Rax);
    a.vmovdqu32_store(Mem::base_disp(Gpr::Rbp, zmm_off(s)), Zmm(7), None);
    a.call(flush[s]);
    a.vmovdqu32_load(Zmm(7), Mem::base_disp(Gpr::Rbp, zmm_off(s)), None, false);
    a.mov_r64_mem(Gpr::Rax, Mem::base_disp(Gpr::Rbp, rax_off(s)));
    a.vmovdqa32_rr(plist_reg(s), Zmm(7));
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
    a.jmp(after);

    a.bind(fits);
    a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
    a.shl_r64_imm8(Gpr::R9, 6);
    a.vmovdqu32_load(
        Zmm(13),
        Mem::base_index_scale(Gpr::R12, Gpr::R9, 1),
        None,
        false,
    );
    a.vpermt2d(plist_reg(s), Zmm(13), Zmm(7));
    a.add_r64_r64(Gpr::Rsi, Gpr::Rax);
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rsi);

    a.bind(after);
    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.cmp_r64_imm8(Gpr::Rsi, LANES);
    a.jcc(Cond::Ne, skip_full);
    a.call(flush[s]);
    a.bind(skip_full);
}

/// Flush subroutine body for stage `s`: fetch the pending positions'
/// values (plain gather, or packed two-gather funnel extraction), compare
/// masked, forward survivors.
fn emit_flush_body(a: &mut Asm, s: usize, sig: &PackedScanSig, flush: &[Label]) {
    let done = a.new_label();
    a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
    a.test_r64_r64(Gpr::Rsi, Gpr::Rsi);
    a.jcc(Cond::E, done);

    a.mov_r64_imm64(Gpr::R9, MASK_LUT.as_ptr() as u64);
    a.movzx_r32_m16(Gpr::Rax, Mem::base_index_scale(Gpr::R9, Gpr::Rsi, 2));
    a.kmovw_k_r32(KReg(2), Gpr::Rax);
    a.xor_r32_r32(Gpr::R10, Gpr::R10);
    a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::R10);
    a.mov_r64_mem(Gpr::R10, Mem::base_disp(Gpr::Rdi, 8 * s as i32));

    match sig.preds[s] {
        PackedColSig::Plain { .. } => {
            a.vpxord(Zmm(0), Zmm(0), Zmm(0));
            a.vpgatherdd(Zmm(0), Gpr::R10, plist_reg(s), 4, KReg(2));
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
        }
        PackedColSig::Packed { bits, .. } => {
            // bit = pos * bits; widx = bit >> 5; off = bit & 31.
            a.mov_r32_imm32(Gpr::Rsi, bits as u32);
            a.vpbroadcastd_r32(Zmm(13), Gpr::Rsi);
            a.vpmulld(Zmm(14), plist_reg(s), Zmm(13));
            a.vpsrld_imm(Zmm(13), Zmm(14), 5);
            a.vpandd(Zmm(14), Zmm(14), Zmm(15)); // & 31
                                                 // lo = words[widx] (masked gather consumes k2 → rebuild).
            a.vpxord(Zmm(0), Zmm(0), Zmm(0));
            a.vpgatherdd(Zmm(0), Gpr::R10, Zmm(13), 4, KReg(2));
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
            // hi = words[widx + 1] — the guard word keeps this in bounds.
            a.vpaddd(Zmm(13), Zmm(13), Zmm(16));
            a.vpxord(Zmm(7), Zmm(7), Zmm(7));
            a.vpgatherdd(Zmm(7), Gpr::R10, Zmm(13), 4, KReg(2));
            a.kmovw_k_r32(KReg(2), Gpr::Rax);
            // val = ((hi:lo) >> off) & mask(bits).
            a.vpshrdvd(Zmm(0), Zmm(7), Zmm(14));
            a.mov_r32_imm32(Gpr::Rsi, mask_of(bits));
            a.vpbroadcastd_r32(Zmm(13), Gpr::Rsi);
            a.vpandd(Zmm(0), Zmm(0), Zmm(13));
        }
    }
    a.vpcmpud(
        KReg(2),
        Zmm(0),
        needle_reg(s),
        mask_cmp_imm(sig.preds[s].op()),
        Some(KReg(2)),
    );
    a.kortestw(KReg(2), KReg(2));
    a.jcc(Cond::E, done);
    a.kmovw_r32_k(Gpr::Rax, KReg(2));
    a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
    a.vpcompressd(Zmm(7), plist_reg(s), KReg(2), true);
    if s == sig.preds.len() - 1 {
        emit_output(a, sig);
    } else {
        emit_push(a, s + 1, flush);
    }
    a.bind(done);
    a.ret();
}

fn compile(sig: &PackedScanSig, tables: Option<&DriverTables>) -> Result<Vec<u8>, JitError> {
    let p = sig.preds.len();
    let mut a = Asm::new();
    let flush: Vec<Label> = (0..p).map(|_| a.new_label()).collect();

    a.push_r64(Gpr::Rbp);
    a.mov_r64_r64(Gpr::Rbp, Gpr::Rsp);
    a.push_r64(Gpr::Rbx);
    a.push_r64(Gpr::R12);
    a.sub_r64_imm32(Gpr::Rsp, FRAME);

    a.xor_r32_r32(Gpr::Rax, Gpr::Rax);
    for s in 1..p {
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
    }
    a.mov_r64_mem(Gpr::R8, Mem::base(Gpr::Rdi));
    a.mov_r64_mem(Gpr::Rcx, Mem::base_disp(Gpr::Rdi, 64));
    if sig.emit_positions {
        a.mov_r64_mem(Gpr::Rbx, Mem::base_disp(Gpr::Rdi, 72));
    }
    a.xor_r32_r32(Gpr::R11, Gpr::R11);
    a.mov_r64_imm64(Gpr::R12, MERGE16.as_ptr() as u64);
    for (i, pred) in sig.preds.iter().enumerate() {
        a.mov_r32_imm32(Gpr::Rax, pred.needle());
        a.vpbroadcastd_r32(needle_reg(i), Gpr::Rax);
    }
    a.mov_r64_imm64(Gpr::Rax, IOTA16.as_ptr() as u64);
    a.vmovdqu32_load(Zmm(6), Mem::base(Gpr::Rax), None, false);
    a.vpxord(Zmm(8), Zmm(8), Zmm(8));
    for s in 1..p {
        let r = plist_reg(s);
        a.vpxord(r, r, r);
    }
    // Packed-scan constants in the EVEX-only high registers.
    a.mov_r32_imm32(Gpr::Rax, 31);
    a.vpbroadcastd_r32(Zmm(15), Gpr::Rax);
    a.mov_r32_imm32(Gpr::Rax, 1);
    a.vpbroadcastd_r32(Zmm(16), Gpr::Rax);
    let driver_bits = match sig.preds[0] {
        PackedColSig::Packed { bits, .. } => {
            a.mov_r32_imm32(Gpr::Rax, mask_of(bits));
            a.vpbroadcastd_r32(Zmm(17), Gpr::Rax);
            Some(bits as i8)
        }
        PackedColSig::Plain { .. } => None,
    };
    a.xor_r32_r32(Gpr::Rdx, Gpr::Rdx);

    let top = a.new_label();
    let next_block = a.new_label();
    let loop_end = a.new_label();
    a.bind(top);
    a.cmp_r64_r64(Gpr::Rdx, Gpr::Rcx);
    a.jcc(Cond::Ae, loop_end);
    match driver_bits {
        None => {
            a.vmovdqu32_load(
                Zmm(0),
                Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4),
                None,
                false,
            );
        }
        Some(bits) => {
            let t = tables.expect("driver tables prepared");
            // base_bit = rdx * bits; r9 = word index; rax = variant offset.
            a.imul_r64_r64_imm8(Gpr::Rax, Gpr::Rdx, bits);
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
                Zmm(0),
                Mem::base_index_scale(Gpr::R8, Gpr::R9, 4),
                Some(KReg(3)),
                true,
            );
            a.vmovdqu32_load(Zmm(13), Mem::base(Gpr::R10), None, false);
            a.vpermd(Zmm(14), Zmm(13), Zmm(0)); // lo words
            a.vmovdqu32_load(Zmm(13), Mem::base_disp(Gpr::R10, 64), None, false);
            a.vpermd(Zmm(13), Zmm(13), Zmm(0)); // hi words
            a.vmovdqu32_load(Zmm(0), Mem::base_disp(Gpr::R10, 128), None, false); // offs
            a.vpshrdvd(Zmm(14), Zmm(13), Zmm(0));
            a.vpandd(Zmm(14), Zmm(14), Zmm(17));
            a.vmovdqa32_rr(Zmm(0), Zmm(14)); // values where the cmp expects them
        }
    }
    a.vpcmpud(
        KReg(1),
        Zmm(0),
        needle_reg(0),
        mask_cmp_imm(sig.preds[0].op()),
        None,
    );
    a.kortestw(KReg(1), KReg(1));
    a.jcc(Cond::E, next_block);
    a.kmovw_r32_k(Gpr::Rax, KReg(1));
    a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
    a.vpbroadcastd_r32(Zmm(14), Gpr::Rdx);
    a.vpaddd(Zmm(14), Zmm(14), Zmm(6));
    a.vpcompressd(Zmm(7), Zmm(14), KReg(1), true);
    if p == 1 {
        emit_output(&mut a, sig);
    } else {
        emit_push(&mut a, 1, &flush);
    }
    a.bind(next_block);
    a.add_r64_imm8(Gpr::Rdx, LANES);
    a.jmp(top);

    a.bind(loop_end);
    for &stage in &flush[1..p] {
        a.call(stage);
    }
    a.mov_r64_r64(Gpr::Rax, Gpr::R11);
    a.add_r64_imm32(Gpr::Rsp, FRAME);
    a.pop_r64(Gpr::R12);
    a.pop_r64(Gpr::Rbx);
    a.pop_r64(Gpr::Rbp);
    a.ret();

    for s in 1..p {
        a.bind(flush[s]);
        emit_flush_body(&mut a, s, sig, &flush);
    }
    Ok(a.finish())
}

/// Column data handed to [`CompiledPackedKernel::run`].
#[derive(Debug, Clone, Copy)]
pub enum PackedColRef<'a> {
    /// Plain `u32` slice.
    Plain(&'a [u32]),
    /// A packed column (its width must match the signature's).
    Packed(&'a PackedColumn),
}

/// Run-time errors of the packed kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedRunError {
    /// Column count or kind/width disagrees with the signature.
    SigMismatch,
    /// Columns have different lengths.
    LengthMismatch,
    /// `rows * bits` exceeds the 32-bit bit-address range of the
    /// vectorized extraction.
    TooLarge,
}

impl std::fmt::Display for PackedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedRunError::SigMismatch => write!(f, "columns do not match the signature"),
            PackedRunError::LengthMismatch => write!(f, "columns have different lengths"),
            PackedRunError::TooLarge => write!(f, "rows x bits exceeds 32-bit bit addresses"),
        }
    }
}

impl std::error::Error for PackedRunError {}

/// A JIT-compiled fused scan over (possibly) bit-packed columns.
pub struct CompiledPackedKernel {
    sig: PackedScanSig,
    buf: ExecBuf,
    /// Unpack tables the emitted code references by absolute address.
    _tables: Option<Box<DriverTables>>,
    compile_time: std::time::Duration,
}

impl CompiledPackedKernel {
    /// Compile `sig`. Requires AVX-512 + VBMI2; the driver column must be
    /// plain or packed at ≤ 16 bits (wider packed columns can only be
    /// follow-up predicates — put them later in the chain, where the
    /// two-gather extraction handles any width ≤ 32).
    pub fn compile(sig: PackedScanSig) -> Result<CompiledPackedKernel, JitError> {
        if sig.preds.is_empty() || sig.preds.len() > MAX_JIT_PREDICATES {
            return Err(JitError::BadChainLength(sig.preds.len()));
        }
        if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
            return Err(JitError::IsaUnavailable);
        }
        for (i, pred) in sig.preds.iter().enumerate() {
            if let PackedColSig::Packed { bits, needle, .. } = pred {
                let driver_ok = i != 0 || *bits <= 16;
                if *bits == 0 || *bits > 32 || !driver_ok || *needle > mask_of(*bits) {
                    return Err(JitError::BadChainLength(sig.preds.len()));
                }
            }
        }
        let start = std::time::Instant::now();
        let tables = match sig.preds[0] {
            PackedColSig::Packed { bits, .. } => Some(driver_tables(bits as u32)),
            PackedColSig::Plain { .. } => None,
        };
        let code = compile(&sig, tables.as_deref())?;
        let buf = ExecBuf::new(&code)?;
        Ok(CompiledPackedKernel {
            sig,
            buf,
            _tables: tables,
            compile_time: start.elapsed(),
        })
    }

    /// The machine code.
    pub fn machine_code(&self) -> &[u8] {
        self.buf.code()
    }

    /// Compile + map time.
    pub fn compile_time(&self) -> std::time::Duration {
        self.compile_time
    }

    /// Execute over the given columns.
    pub fn run(&self, cols: &[PackedColRef<'_>]) -> Result<ScanOutput, PackedRunError> {
        if cols.len() != self.sig.preds.len() {
            return Err(PackedRunError::SigMismatch);
        }
        let mut rows = None;
        for (col, pred) in cols.iter().zip(&self.sig.preds) {
            let len = match (col, pred) {
                (PackedColRef::Plain(d), PackedColSig::Plain { .. }) => d.len(),
                (PackedColRef::Packed(p), PackedColSig::Packed { bits, .. })
                    if p.bits() == *bits =>
                {
                    if p.len() as u64 * *bits as u64 >= 1 << 31 {
                        return Err(PackedRunError::TooLarge);
                    }
                    p.len()
                }
                _ => return Err(PackedRunError::SigMismatch),
            };
            match rows {
                None => rows = Some(len),
                Some(r) if r == len => {}
                _ => return Err(PackedRunError::LengthMismatch),
            }
        }
        let rows = rows.expect("non-empty chain");
        if rows > i32::MAX as usize {
            return Err(PackedRunError::TooLarge);
        }

        let rows_kernel = rows / 16 * 16;
        let mut out: Vec<u32> = if self.sig.emit_positions {
            vec![0; rows_kernel + 16]
        } else {
            Vec::new()
        };
        let mut args = KernelArgs {
            cols: [std::ptr::null(); 8],
            rows: rows_kernel as u64,
            out: if self.sig.emit_positions {
                out.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        for (i, col) in cols.iter().enumerate() {
            args.cols[i] = match col {
                PackedColRef::Plain(d) => d.as_ptr() as *const u8,
                PackedColRef::Packed(p) => p.words().as_ptr() as *const u8,
            };
        }
        // SAFETY: ISA verified at compile; columns validated (kinds, widths,
        // lengths, guard words come with PackedColumn); out has slack.
        let f: KernelFn = unsafe { std::mem::transmute(self.buf.entry()) };
        // SAFETY: see above.
        let mut count = unsafe { f(&args) };
        out.truncate(count as usize);

        // Tail rows, row-wise.
        for row in rows_kernel..rows {
            use fts_storage::NativeType;
            let hit = cols.iter().zip(&self.sig.preds).all(|(col, pred)| {
                let v = match col {
                    PackedColRef::Plain(d) => d[row],
                    PackedColRef::Packed(p) => p.get(row),
                };
                v.cmp_op(pred.op(), pred.needle())
            });
            if hit {
                count += 1;
                if self.sig.emit_positions {
                    out.push(row as u32);
                }
            }
        }
        Ok(if self.sig.emit_positions {
            ScanOutput::Positions(PosList::from_vec(out))
        } else {
            ScanOutput::Count(count)
        })
    }

    /// Coerce into an [`OutputMode`] like the plain kernels.
    pub fn run_mode(
        &self,
        cols: &[PackedColRef<'_>],
        mode: OutputMode,
    ) -> Result<ScanOutput, PackedRunError> {
        let out = self.run(cols)?;
        Ok(match mode {
            OutputMode::Count => ScanOutput::Count(out.count()),
            OutputMode::Positions => out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_core::fused::packed::{scan_packed_reference, PackedPred};
    use fts_core::TypedPred;

    fn skip() -> bool {
        if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
            eprintln!("skipping: no AVX-512 VBMI2");
            return true;
        }
        false
    }

    fn check(sig: PackedScanSig, cols: &[PackedColRef<'_>], reference: &[PackedPred<'_>]) {
        let expected = scan_packed_reference(reference);
        let k = CompiledPackedKernel::compile(sig).unwrap();
        let out = k.run(cols).unwrap();
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
                let sig = PackedScanSig {
                    preds: vec![
                        PackedColSig::Packed {
                            bits,
                            op,
                            needle: mask / 2,
                        },
                        PackedColSig::Plain {
                            op: CmpOp::Eq,
                            needle: 1,
                        },
                    ],
                    emit_positions: true,
                };
                check(
                    sig,
                    &[PackedColRef::Packed(&col), PackedColRef::Plain(&plain)],
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
                let sig = PackedScanSig {
                    preds: vec![
                        PackedColSig::Plain {
                            op: CmpOp::Eq,
                            needle: 2,
                        },
                        PackedColSig::Packed {
                            bits,
                            op,
                            needle: mask / 2,
                        },
                    ],
                    emit_positions: true,
                };
                check(
                    sig,
                    &[PackedColRef::Plain(&a), PackedColRef::Packed(&col)],
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
        let preds: Vec<PackedColSig> = cols
            .iter()
            .map(|c| PackedColSig::Packed {
                bits: c.bits(),
                op: CmpOp::Le,
                needle: mask_of(c.bits()) / 2,
            })
            .collect();
        let refs: Vec<PackedColRef<'_>> = cols.iter().map(PackedColRef::Packed).collect();
        let reference: Vec<PackedPred<'_>> = cols
            .iter()
            .map(|c| PackedPred::Packed {
                col: c,
                op: CmpOp::Le,
                needle: mask_of(c.bits()) / 2,
            })
            .collect();
        let expected = scan_packed_reference(&reference);

        let k = CompiledPackedKernel::compile(PackedScanSig {
            preds: preds.clone(),
            emit_positions: true,
        })
        .unwrap();
        assert_eq!(k.run(&refs).unwrap().positions().unwrap(), &expected);

        let k = CompiledPackedKernel::compile(PackedScanSig {
            preds,
            emit_positions: false,
        })
        .unwrap();
        assert_eq!(k.run(&refs).unwrap().count(), expected.len() as u64);
        assert!(k.compile_time().as_millis() < 100);
    }

    #[test]
    fn validation() {
        if skip() {
            return;
        }
        // Wide driver rejected at compile time.
        let err = CompiledPackedKernel::compile(PackedScanSig {
            preds: vec![PackedColSig::Packed {
                bits: 20,
                op: CmpOp::Eq,
                needle: 1,
            }],
            emit_positions: false,
        });
        assert!(err.is_err());
        // Width mismatch rejected at run time.
        let sig = PackedScanSig {
            preds: vec![PackedColSig::Packed {
                bits: 4,
                op: CmpOp::Eq,
                needle: 1,
            }],
            emit_positions: false,
        };
        let k = CompiledPackedKernel::compile(sig).unwrap();
        let col = PackedColumn::pack(&[1u32, 2, 3], 5).unwrap();
        assert_eq!(
            k.run(&[PackedColRef::Packed(&col)]).unwrap_err(),
            PackedRunError::SigMismatch
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
            let sig = PackedScanSig {
                preds: vec![PackedColSig::Packed {
                    bits: 2,
                    op: CmpOp::Eq,
                    needle: 1,
                }],
                emit_positions: true,
            };
            let k = CompiledPackedKernel::compile(sig).unwrap();
            let out = k.run(&[PackedColRef::Packed(&col)]).unwrap();
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
