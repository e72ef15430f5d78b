//! The scalar JIT backend: emits the exact tuple-at-a-time loop of paper
//! §II, specialized for one chain (needles as immediates, operators as
//! condition codes, chain length unrolled). This is the JIT equivalent of
//! the *SISD (no vec)* baseline and the comparison point for the
//! `ablation_jit` benchmark: how much of the fused scan's win comes from
//! specialization alone, and how much from AVX-512.
//!
//! Supports `u32` and `i32` chains over plain columns (float compares need
//! SSE `ucomiss` plumbing, and packed columns an unpack, that the AVX-512
//! backend covers anyway).

use crate::asm::{Asm, Cond, Gpr, Mem};
use crate::ir::{JitElem, JitError, ScanSig, Storage};

/// Condition that means "the predicate HOLDS" after `cmp value, needle`.
fn holds_cond(elem: JitElem, op: fts_storage::CmpOp) -> Cond {
    use fts_storage::CmpOp::*;
    match (elem, op) {
        (_, Eq) => Cond::E,
        (_, Ne) => Cond::Ne,
        (JitElem::U32, Lt) => Cond::B,
        (JitElem::U32, Le) => Cond::Be,
        (JitElem::U32, Gt) => Cond::A,
        (JitElem::U32, Ge) => Cond::Ae,
        (JitElem::I32, Lt) => Cond::L,
        (JitElem::I32, Le) => Cond::Le,
        (JitElem::I32, Gt) => Cond::G,
        (JitElem::I32, Ge) => Cond::Ge,
        _ => unreachable!("scalar backend accepts u32/i32 only"),
    }
}

/// Emit the specialized scalar loop for `sig`; returns the machine code.
///
/// Register plan: `rdi` args, `r8..r11` cached column pointers (first 4),
/// `rbp` scratch pointer for deeper predicates, `rcx` rows, `rdx` row
/// index, `rsi` loaded value, `rbx` out pointer, `rax` match count.
pub fn compile_scalar(sig: &ScanSig) -> Result<Vec<u8>, JitError> {
    if sig.is_empty() || sig.len() > 8 {
        return Err(JitError::BadChainLength(sig.len()));
    }
    if !matches!(sig.elem, JitElem::U32 | JitElem::I32) {
        return Err(JitError::ElemUnsupported(sig.elem));
    }
    if let Some(index) = sig.preds.iter().position(|p| p.storage != Storage::Plain) {
        return Err(JitError::BadPredicate {
            index,
            reason: "the scalar backend reads plain columns only",
        });
    }

    let mut a = Asm::new();
    let cached = [Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11];

    a.push_r64(Gpr::Rbx);
    a.push_r64(Gpr::Rbp);
    for (i, reg) in cached.iter().enumerate().take(sig.len().min(4)) {
        a.mov_r64_mem(*reg, Mem::base_disp(Gpr::Rdi, 8 * i as i32));
    }
    a.mov_r64_mem(Gpr::Rcx, Mem::base_disp(Gpr::Rdi, 64));
    if sig.emit_positions {
        a.mov_r64_mem(Gpr::Rbx, Mem::base_disp(Gpr::Rdi, 72));
    }
    a.xor_r32_r32(Gpr::Rax, Gpr::Rax);
    a.xor_r32_r32(Gpr::Rdx, Gpr::Rdx);

    let top = a.new_label();
    let skip = a.new_label();
    let done = a.new_label();

    a.bind(top);
    a.cmp_r64_r64(Gpr::Rdx, Gpr::Rcx);
    a.jcc(Cond::Ae, done);

    for (i, pred) in sig.preds.iter().enumerate() {
        if i < 4 {
            a.mov_r32_mem(Gpr::Rsi, Mem::base_index_scale(cached[i], Gpr::Rdx, 4));
        } else {
            a.mov_r64_mem(Gpr::Rbp, Mem::base_disp(Gpr::Rdi, 8 * i as i32));
            a.mov_r32_mem(Gpr::Rsi, Mem::base_index_scale(Gpr::Rbp, Gpr::Rdx, 4));
        }
        // The needle is an immediate — this is the specialization the paper
        // wants from the JIT.
        a.cmp_r32_imm32(Gpr::Rsi, pred.needle_bits as u32);
        a.jcc(holds_cond(sig.elem, pred.op).negate(), skip);
    }
    if sig.emit_positions {
        a.mov_mem_r32(Mem::base_index_scale(Gpr::Rbx, Gpr::Rax, 4), Gpr::Rdx);
    }
    a.inc_r64(Gpr::Rax);

    a.bind(skip);
    a.inc_r64(Gpr::Rdx);
    a.jmp(top);

    a.bind(done);
    a.pop_r64(Gpr::Rbp);
    a.pop_r64(Gpr::Rbx);
    a.ret();
    Ok(a.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelArgs, KernelFn};
    use crate::mem::ExecBuf;
    use fts_storage::CmpOp;

    fn run_u32(sig: &ScanSig, cols: &[&[u32]]) -> (u64, Vec<u32>) {
        let code = compile_scalar(sig).unwrap();
        let buf = ExecBuf::new(&code).unwrap();
        let rows = cols[0].len();
        let mut out = vec![0u32; rows + 16];
        let mut args = KernelArgs {
            cols: [std::ptr::null(); 8],
            rows: rows as u64,
            out: if sig.emit_positions {
                out.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        for (i, c) in cols.iter().enumerate() {
            args.cols[i] = c.as_ptr() as *const u8;
        }
        // SAFETY: the compiled code implements KernelFn over valid columns.
        let f: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
        // SAFETY: args outlives the call; out has rows+16 slack.
        let count = unsafe { f(&args) };
        out.truncate(count as usize);
        (count, out)
    }

    #[test]
    fn two_predicate_count_and_positions() {
        let a: Vec<u32> = (0..1000).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..1000).map(|i| i % 4).collect();
        let expected: Vec<u32> = (0..1000u32)
            .filter(|&i| a[i as usize] == 5 && b[i as usize] == 2)
            .collect();

        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], false);
        let (count, _) = run_u32(&sig, &[&a, &b]);
        assert_eq!(count, expected.len() as u64);

        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let (count, pos) = run_u32(&sig, &[&a, &b]);
        assert_eq!(count, expected.len() as u64);
        assert_eq!(pos, expected);
    }

    #[test]
    fn all_u32_operators() {
        let a: Vec<u32> = (0..500).map(|i| i % 13).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::chain::<u32>(&[(op, 6)], true);
            let (_, pos) = run_u32(&sig, &[&a]);
            let expected: Vec<u32> = (0..500u32)
                .filter(|&i| {
                    use fts_storage::NativeType;
                    a[i as usize].cmp_op(op, 6)
                })
                .collect();
            assert_eq!(pos, expected, "{op}");
        }
    }

    #[test]
    fn signed_operators_with_negatives() {
        let a: Vec<i32> = (0..500).map(|i| (i % 9) - 4).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::chain::<i32>(&[(op, -1)], false);
            let code = compile_scalar(&sig).unwrap();
            let buf = ExecBuf::new(&code).unwrap();
            let mut args = KernelArgs {
                cols: [std::ptr::null(); 8],
                rows: a.len() as u64,
                out: std::ptr::null_mut(),
            };
            args.cols[0] = a.as_ptr() as *const u8;
            // SAFETY: compiled KernelFn over a valid column.
            let f: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
            // SAFETY: args outlives the call; count mode needs no out.
            let count = unsafe { f(&args) };
            let expected = a
                .iter()
                .filter(|&&v| {
                    use fts_storage::NativeType;
                    v.cmp_op(op, -1)
                })
                .count() as u64;
            assert_eq!(count, expected, "{op}");
        }
    }

    #[test]
    fn five_predicates_uses_memory_operands() {
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..300u32).map(|i| (i * (c + 3)) % 3).collect())
            .collect();
        let refs: Vec<&[u32]> = cols.iter().map(|c| &c[..]).collect();
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 0); 5], true);
        let (count, pos) = run_u32(&sig, &refs);
        let expected: Vec<u32> = (0..300u32)
            .filter(|&i| cols.iter().all(|c| c[i as usize] == 0))
            .collect();
        assert_eq!(count, expected.len() as u64);
        assert_eq!(pos, expected);
    }

    #[test]
    fn rejects_bad_signatures() {
        assert!(matches!(
            compile_scalar(&ScanSig::chain::<u32>(&[], false)),
            Err(JitError::BadChainLength(0))
        ));
        assert!(matches!(
            compile_scalar(&ScanSig::chain::<f32>(&[(CmpOp::Eq, 1.0)], false)),
            Err(JitError::ElemUnsupported(JitElem::F32))
        ));
    }

    #[test]
    fn empty_input_returns_zero() {
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], false);
        let empty: &[u32] = &[];
        let (count, _) = run_u32(&sig, &[empty]);
        assert_eq!(count, 0);
    }
}
