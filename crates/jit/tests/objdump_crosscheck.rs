//! Cross-validates the emitter against GNU binutils: every instruction the
//! scan compilers use is emitted, disassembled with `objdump -b binary`,
//! and the mnemonic + operands are checked. Skips cleanly when objdump is
//! not installed (the differential execution tests still cover semantics).

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use fts_jit::asm::{Asm, Cond, Gpr, KReg, Mem, Vl, Zmm};

fn disassemble(code: &[u8]) -> Option<Vec<String>> {
    // One file per call: the test harness runs tests on parallel threads
    // of one process, so a per-process name would be clobbered.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("fts-jit-objdump-{}-{call}.bin", std::process::id()));
    let mut f = std::fs::File::create(&path).ok()?;
    f.write_all(code).ok()?;
    drop(f);
    let out = Command::new("objdump")
        .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
        .arg(&path)
        .output()
        .ok()?;
    let _ = std::fs::remove_file(&path);
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // Keep only instruction lines: "   0:\t62 f1 ...\tvmovdqu32 ..."
    Some(
        text.lines()
            .filter_map(|l| {
                let mut parts = l.splitn(3, '\t');
                let addr = parts.next()?.trim();
                let _bytes = parts.next()?;
                let insn = parts.next()?.trim();
                if addr.ends_with(':') {
                    Some(insn.split_whitespace().collect::<Vec<_>>().join(" "))
                } else {
                    None
                }
            })
            .collect(),
    )
}

/// Assert that the single emitted instruction disassembles to `expect`
/// (whitespace-normalized, allowing objdump comment suffixes).
fn check(build: impl FnOnce(&mut Asm), expect: &str) {
    let mut a = Asm::new();
    build(&mut a);
    let code = a.finish();
    let Some(lines) = disassemble(&code) else {
        eprintln!("objdump unavailable — skipping");
        return;
    };
    // Multi-line disassembly means objdump mis-parsed our single insn.
    assert_eq!(
        lines.len(),
        1,
        "expected one instruction, got {lines:?} for {code:02x?}"
    );
    // objdump annotates "{evex}" when a VEX form would also encode the
    // instruction; the bytes are still a valid EVEX encoding.
    let got = lines[0].strip_prefix("{evex} ").unwrap_or(&lines[0]);
    assert!(
        got == expect || got.starts_with(expect),
        "emitted {code:02x?}\n  objdump: {got}\n expected: {expect}"
    );
}

#[test]
fn scalar_instructions() {
    check(
        |a| a.mov_r64_imm64(Gpr::R15, 0x1122_3344_5566_7788),
        "movabs r15,0x1122334455667788",
    );
    check(|a| a.mov_r32_imm32(Gpr::Rax, 42), "mov eax,0x2a");
    check(|a| a.mov_r64_r64(Gpr::Rbx, Gpr::Rdi), "mov rbx,rdi");
    check(
        |a| a.mov_r64_mem(Gpr::R8, Mem::base_disp(Gpr::Rdi, 64)),
        "mov r8,QWORD PTR [rdi+0x40]",
    );
    check(
        |a| a.mov_r32_mem(Gpr::Rsi, Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4)),
        "mov esi,DWORD PTR [r8+rdx*4]",
    );
    check(
        |a| a.mov_mem_r32(Mem::base_index_scale(Gpr::Rbx, Gpr::Rax, 4), Gpr::Rdx),
        "mov DWORD PTR [rbx+rax*4],edx",
    );
    check(
        |a| a.mov_mem_r64(Mem::base_disp(Gpr::Rsp, 8), Gpr::Rcx),
        "mov QWORD PTR [rsp+0x8],rcx",
    );
    check(|a| a.xor_r32_r32(Gpr::Rax, Gpr::Rax), "xor eax,eax");
    check(|a| a.add_r64_r64(Gpr::Rax, Gpr::Rsi), "add rax,rsi");
    check(|a| a.add_r64_imm8(Gpr::Rdx, 16), "add rdx,0x10");
    check(|a| a.sub_r64_imm8(Gpr::Rsp, 32), "sub rsp,0x20");
    check(|a| a.add_r64_imm32(Gpr::Rsp, 400), "add rsp,0x190");
    check(|a| a.sub_r64_imm32(Gpr::Rsp, 400), "sub rsp,0x190");
    check(|a| a.inc_r64(Gpr::R12), "inc r12");
    check(|a| a.cmp_r64_r64(Gpr::Rdx, Gpr::Rcx), "cmp rdx,rcx");
    check(|a| a.cmp_r32_imm32(Gpr::Rsi, 5), "cmp esi,0x5");
    check(|a| a.cmp_r64_imm8(Gpr::R13, 16), "cmp r13,0x10");
    check(|a| a.test_r64_r64(Gpr::Rax, Gpr::Rax), "test rax,rax");
    check(|a| a.shl_r64_imm8(Gpr::Rax, 6), "shl rax,0x6");
    check(|a| a.popcnt_r32_r32(Gpr::Rax, Gpr::Rsi), "popcnt eax,esi");
    check(
        |a| a.movzx_r32_m16(Gpr::Rax, Mem::base_index_scale(Gpr::R9, Gpr::Rsi, 2)),
        "movzx eax,WORD PTR [r9+rsi*2]",
    );
    check(|a| a.push_r64(Gpr::R12), "push r12");
    check(|a| a.pop_r64(Gpr::Rbx), "pop rbx");
    check(|a| a.ret(), "ret");
}

#[test]
fn branch_instructions() {
    // jmp/jcc need a bound label; disassemble a two-instruction buffer.
    let mut a = Asm::new();
    let l = a.new_label();
    a.jcc(Cond::Ne, l);
    a.bind(l);
    a.ret();
    let code = a.finish();
    if let Some(lines) = disassemble(&code) {
        assert!(lines[0].starts_with("jne"), "{lines:?}");
        assert_eq!(lines[1], "ret");
    }

    let mut a = Asm::new();
    let l = a.new_label();
    a.call(l);
    a.bind(l);
    a.ret();
    if let Some(lines) = disassemble(&a.finish()) {
        assert!(lines[0].starts_with("call"), "{lines:?}");
    }
}

#[test]
fn opmask_instructions() {
    check(|a| a.kmovw_k_r32(KReg(2), Gpr::Rax), "kmovw k2,eax");
    check(|a| a.kmovw_k_r32(KReg(1), Gpr::R10), "kmovw k1,r10d");
    check(|a| a.kmovw_r32_k(Gpr::Rsi, KReg(3)), "kmovw esi,k3");
    check(|a| a.kortestw(KReg(1), KReg(1)), "kortestw k1,k1");
}

#[test]
fn evex_instructions() {
    check(
        |a| {
            a.vmovdqu32_load(
                Vl::Z512,
                Zmm(0),
                Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4),
                None,
                false,
            )
        },
        "vmovdqu32 zmm0,ZMMWORD PTR [r8+rdx*4]",
    );
    check(
        |a| a.vmovdqu32_load(Vl::Z512, Zmm(3), Mem::base(Gpr::Rdi), Some(KReg(1)), true),
        "vmovdqu32 zmm3{k1}{z},ZMMWORD PTR [rdi]",
    );
    check(
        |a| {
            a.vmovdqu32_store(
                Vl::Z512,
                Mem::base_index_scale(Gpr::Rbx, Gpr::Rax, 4),
                Zmm(7),
                None,
            )
        },
        "vmovdqu32 ZMMWORD PTR [rbx+rax*4],zmm7",
    );
    check(
        |a| a.vpbroadcastd_r32(Vl::Z512, Zmm(1), Gpr::Rax),
        "vpbroadcastd zmm1,eax",
    );
    check(
        |a| a.vmovdqa32_rr(Vl::Z512, Zmm(9), Zmm(7)),
        "vmovdqa32 zmm9,zmm7",
    );
    check(
        |a| {
            a.vmovdqu32_load(
                Vl::Z512,
                Zmm(13),
                Mem::base_index_scale(Gpr::R12, Gpr::R9, 1),
                None,
                false,
            )
        },
        "vmovdqu32 zmm13,ZMMWORD PTR [r12+r9*1]",
    );
    check(
        |a| a.vmovdqu32_store(Vl::Z512, Mem::base_disp(Gpr::Rbp, -128), Zmm(7), None),
        "vmovdqu32 ZMMWORD PTR [rbp-0x80],zmm7",
    );
    check(
        |a| {
            a.vmovdqu32_load(
                Vl::Z512,
                Zmm(7),
                Mem::base_disp(Gpr::Rbp, -192),
                None,
                false,
            )
        },
        "vmovdqu32 zmm7,ZMMWORD PTR [rbp-0xc0]",
    );
    check(
        |a| a.vpbroadcastd_r32(Vl::Z512, Zmm(14), Gpr::R9),
        "vpbroadcastd zmm14,r9d",
    );
    check(
        |a| a.vpxord(Vl::Z512, Zmm(11), Zmm(11), Zmm(11)),
        "vpxord zmm11,zmm11,zmm11",
    );
    check(
        |a| a.vpaddd(Vl::Z512, Zmm(6), Zmm(5), Zmm(14)),
        "vpaddd zmm6,zmm5,zmm14",
    );
    check(
        |a| a.vpcmpud(KReg(1), Zmm(0), Zmm(1), 0, None),
        "vpcmpequd k1,zmm0,zmm1",
    );
    check(
        |a| a.vpcmpud(KReg(1), Zmm(0), Zmm(1), 6, None),
        "vpcmpnleud k1,zmm0,zmm1",
    );
    check(
        |a| a.vpcmpud(KReg(2), Zmm(12), Zmm(2), 1, Some(KReg(1))),
        "vpcmpltud k2{k1},zmm12,zmm2",
    );
    // A same-column run's later compares write the mask under itself.
    check(
        |a| a.vpcmpud(KReg(1), Zmm(0), Zmm(2), 2, Some(KReg(1))),
        "vpcmpleud k1{k1},zmm0,zmm2",
    );
    check(
        |a| a.vpcmpud(KReg(2), Zmm(0), Zmm(3), 4, Some(KReg(2))),
        "vpcmpnequd k2{k2},zmm0,zmm3",
    );
    check(
        |a| a.vcmpps(KReg(1), Zmm(0), Zmm(2), 0x0E, Some(KReg(1))),
        "vcmpgtps k1{k1},zmm0,zmm2",
    );
    check(
        |a| a.vpcmpd(KReg(1), Zmm(0), Zmm(1), 4, None),
        "vpcmpneqd k1,zmm0,zmm1",
    );
    check(
        |a| a.vcmpps(KReg(1), Zmm(0), Zmm(1), 0, None),
        "vcmpeqps k1,zmm0,zmm1",
    );
    check(
        |a| a.vpcompressd(Vl::Z512, Zmm(7), Zmm(6), KReg(1), true),
        "vpcompressd zmm7{k1}{z},zmm6",
    );
    check(
        |a| a.vpermt2d(Vl::Z512, Zmm(8), Zmm(13), Zmm(7)),
        "vpermt2d zmm8,zmm13,zmm7",
    );
    check(
        |a| a.vpgatherdd(Zmm(12), Gpr::R9, Zmm(8), 4, KReg(2)),
        "vpgatherdd zmm12{k2},DWORD PTR [r9+zmm8*4]",
    );
    check(
        |a| a.vpgatherdd(Zmm(12), Gpr::Rbp, Zmm(8), 4, KReg(2)),
        "vpgatherdd zmm12{k2},DWORD PTR [rbp+zmm8*4+0x0]",
    );
}

#[test]
fn packed_scan_instructions() {
    check(
        |a| a.imul_r64_r64_imm8(Gpr::Rax, Gpr::Rdx, 13),
        "imul rax,rdx,0xd",
    );
    check(|a| a.shr_r64_imm8(Gpr::R9, 5), "shr r9,0x5");
    check(|a| a.and_r64_imm8(Gpr::Rax, 31), "and rax,0x1f");
    check(
        |a| a.vpshrdvd(Zmm(4), Zmm(5), Zmm(6)),
        "vpshrdvd zmm4,zmm5,zmm6",
    );
    check(
        |a| a.vpermd(Zmm(3), Zmm(13), Zmm(2)),
        "vpermd zmm3,zmm13,zmm2",
    );
    check(
        |a| a.vpmulld(Zmm(14), Zmm(9), Zmm(13)),
        "vpmulld zmm14,zmm9,zmm13",
    );
    check(
        |a| a.vpsrld_imm(Zmm(15), Zmm(14), 5),
        "vpsrld zmm15,zmm14,0x5",
    );
    check(
        |a| a.vpandd(Zmm(14), Zmm(14), Zmm(13)),
        "vpandd zmm14,zmm14,zmm13",
    );
    // High registers (zmm16+) exercise the EVEX R'/V' extension bits.
    check(
        |a| a.vpbroadcastd_r32(Vl::Z512, Zmm(17), Gpr::Rax),
        "vpbroadcastd zmm17,eax",
    );
    check(
        |a| a.vpandd(Zmm(0), Zmm(0), Zmm(16)),
        "vpandd zmm0,zmm0,zmm16",
    );
    check(
        |a| a.vpaddd(Vl::Z512, Zmm(13), Zmm(13), Zmm(17)),
        "vpaddd zmm13,zmm13,zmm17",
    );
    check(
        |a| a.vpshrdvd(Zmm(0), Zmm(7), Zmm(16)),
        "vpshrdvd zmm0,zmm7,zmm16",
    );
    check(
        |a| a.vpermd(Zmm(20), Zmm(21), Zmm(22)),
        "vpermd zmm20,zmm21,zmm22",
    );
}

#[test]
fn evex_64bit_and_ymm_instructions() {
    check(
        |a| {
            a.vmovdqu64_load(
                Zmm(0),
                Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 8),
                None,
                false,
            )
        },
        "vmovdqu64 zmm0,ZMMWORD PTR [r8+rdx*8]",
    );
    check(
        |a| a.vmovdqu64_load(Zmm(2), Mem::base(Gpr::Rdi), Some(KReg(1)), true),
        "vmovdqu64 zmm2{k1}{z},ZMMWORD PTR [rdi]",
    );
    check(
        |a| a.vpbroadcastq_r64(Zmm(3), Gpr::Rax),
        "vpbroadcastq zmm3,rax",
    );
    check(
        |a| a.vpcmpuq(KReg(1), Zmm(0), Zmm(1), 1, None),
        "vpcmpltuq k1,zmm0,zmm1",
    );
    check(
        |a| a.vpcmpq(KReg(2), Zmm(0), Zmm(1), 4, Some(KReg(1))),
        "vpcmpneqq k2{k1},zmm0,zmm1",
    );
    check(
        |a| a.vpcmpq(KReg(1), Zmm(0), Zmm(2), 1, Some(KReg(1))),
        "vpcmpltq k1{k1},zmm0,zmm2",
    );
    check(
        |a| a.vcmppd(KReg(1), Zmm(0), Zmm(5), 0, None),
        "vcmpeqpd k1,zmm0,zmm5",
    );
    check(
        |a| {
            a.vmovdqu32_load(
                Vl::Y256,
                Zmm(13),
                Mem::base_index_scale(Gpr::R12, Gpr::R9, 1),
                None,
                false,
            )
        },
        "vmovdqu32 ymm13,YMMWORD PTR [r12+r9*1]",
    );
    check(
        |a| {
            a.vmovdqu32_store(
                Vl::Y256,
                Mem::base_index_scale(Gpr::Rbx, Gpr::R11, 4),
                Zmm(7),
                None,
            )
        },
        "vmovdqu32 YMMWORD PTR [rbx+r11*4],ymm7",
    );
    check(
        |a| a.vmovdqa32_rr(Vl::Y256, Zmm(9), Zmm(7)),
        "vmovdqa32 ymm9,ymm7",
    );
    check(
        |a| a.vpxord(Vl::Y256, Zmm(8), Zmm(8), Zmm(8)),
        "vpxord ymm8,ymm8,ymm8",
    );
    check(
        |a| a.vpaddd(Vl::Y256, Zmm(6), Zmm(5), Zmm(14)),
        "vpaddd ymm6,ymm5,ymm14",
    );
    check(
        |a| a.vpbroadcastd_r32(Vl::Y256, Zmm(14), Gpr::Rdx),
        "vpbroadcastd ymm14,edx",
    );
    check(
        |a| a.vpcompressd(Vl::Y256, Zmm(7), Zmm(14), KReg(1), true),
        "vpcompressd ymm7{k1}{z},ymm14",
    );
    check(
        |a| a.vpermt2d(Vl::Y256, Zmm(9), Zmm(13), Zmm(7)),
        "vpermt2d ymm9,ymm13,ymm7",
    );
    check(
        |a| a.vpgatherdq(Zmm(0), Gpr::R10, Zmm(9), 8, KReg(2)),
        "vpgatherdq zmm0{k2},QWORD PTR [r10+ymm9*8]",
    );
}
