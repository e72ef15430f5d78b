//! Inspect what the JIT layer generates for a predicate chain (paper §V):
//! the specialized C++ source (the paper's chosen abstraction level), the
//! EVEX machine code our "ASM level" backend emits, compile time, kernel
//! cache behaviour — then execute the kernel and check it against the
//! interpreter.
//!
//! Usage: `cargo run --release --example jit_explorer`

use fused_table_scan::core::{reference, TypedPred};
use fused_table_scan::jit::{source_gen, CompiledKernel, JitBackend, KernelCache, ScanSig};
use fused_table_scan::simd::has_avx512;
use fused_table_scan::storage::CmpOp;

fn hexdump(bytes: &[u8]) -> String {
    bytes
        .chunks(16)
        .enumerate()
        .map(|(i, chunk)| {
            let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
            format!("  {:04x}: {}", i * 16, hex.join(" "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    // The paper's running query: a = 5 AND b = 2.
    let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], false);

    println!("=== chain signature ===============================================");
    println!("{sig:#?}");
    println!(
        "\nstatic variants this replaces: {} (10 types x 6 operators, 2 predicates — §V)\n",
        source_gen::static_variant_count(2)
    );

    println!("=== generated C++ (the paper's codegen level) =====================");
    println!("{}", source_gen::generate_cpp(&sig).expect("codegen"));

    println!("=== generated x86-64 machine code (scalar backend) ================");
    let scalar = CompiledKernel::compile(sig.clone(), JitBackend::Scalar).expect("scalar compile");
    println!(
        "{} bytes, compiled in {:?}\n{}\n",
        scalar.machine_code().len(),
        scalar.compile_time(),
        hexdump(scalar.machine_code())
    );

    if has_avx512() {
        println!("=== generated EVEX machine code (AVX-512 fused backend) ===========");
        let fused =
            CompiledKernel::compile(sig.clone(), JitBackend::Avx512).expect("avx512 compile");
        println!(
            "{} bytes, compiled in {:?}\n{}\n",
            fused.machine_code().len(),
            fused.compile_time(),
            hexdump(fused.machine_code())
        );
        match fused.disassemble() {
            Some(asm) => {
                println!("=== disassembly (objdump) ==========================================");
                println!("{asm}\n");
            }
            None => println!(
                "tip: objdump -D -b binary -m i386:x86-64 -M intel <dump> disassembles this\n"
            ),
        }

        // Execute and verify against the interpreter.
        let a: Vec<u32> = (0..100_000).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..100_000).map(|i| i % 4 + 1).collect();
        let expected =
            reference::scan_count(&[TypedPred::eq(&a[..], 5u32), TypedPred::eq(&b[..], 2u32)]);
        let got = fused.run(&[&a[..], &b[..]]).expect("run").count();
        assert!(got > 0, "workload must produce matches");
        assert_eq!(got, expected);
        println!("executed JIT kernel: COUNT(*) = {got} (matches the interpreter)\n");

        println!("=== kernel cache ==================================================");
        let cache = KernelCache::new(JitBackend::Avx512);
        for _ in 0..5 {
            let _ = cache.get_or_compile(&sig).expect("cache");
        }
        let other = ScanSig::chain::<u32>(&[(CmpOp::Lt, 100)], true);
        let _ = cache.get_or_compile(&other).expect("cache");
        println!("{cache:?}");
    } else {
        println!("(no AVX-512 on this host — EVEX backend skipped)");
    }
}
