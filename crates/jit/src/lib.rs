//! # fts-jit — runtime code generation for the Fused Table Scan
//!
//! Paper §V: the fused operator's code depends on runtime parameters (data
//! types, comparison operators, literals, chain length) whose static cross
//! product is infeasible, so the DBMS generates the code at query time.
//! This crate is that JIT layer:
//!
//! * [`asm`] — a from-scratch x86-64 emitter (legacy, VEX-opmask and
//!   EVEX/AVX-512 encodings), cross-validated against binutils;
//! * [`mem`] — W^X executable memory via raw Linux syscalls;
//! * [`ir`] — the chain signature ([`ScanSig`]: element kind, predicates
//!   with each column's storage — plain, or bit-packed at some width —
//!   and output mode; nothing else, so each kernel has exactly one cache
//!   key) and the kernel ABI;
//! * [`compile_scalar`] — specialized tuple-at-a-time code (§II's loop);
//! * [`compile_avx512`] — the fused scan of Fig. 3 as native EVEX code:
//!   one loop skeleton at a 16 × 32-bit or 8 × 64-bit lane geometry, with
//!   a per-column fetch that loads or gathers plain columns and unpacks
//!   or funnels bit-packed ones (§VII);
//! * [`kernel`] — the one kernel type: validates plain and packed
//!   columns, runs the code, and handles the tail rows after the last
//!   full block;
//! * [`cache`] — the compiled-kernel cache, LRU-bounded and keyed by
//!   [`ScanSig`] ("especially when compiled operators are cached for
//!   future use, we do not see the additional compile time as a deciding
//!   bottleneck", §V);
//! * [`source_gen`] — the C++ code-template generator the paper's Hyrise
//!   prototype uses, reproduced as a text artifact.

#![warn(missing_docs)]

pub mod asm;
pub mod cache;
pub mod compile_avx512;
pub mod compile_scalar;
pub mod ir;
pub mod kernel;
pub mod mem;
pub mod source_gen;

pub use cache::{CacheStats, KernelCache};
pub use ir::{
    JitElem, JitError, JitPred, KernelArgs, KernelFn, ScanSig, Storage, MAX_JIT_PREDICATES,
};
pub use kernel::{CompiledKernel, JitBackend, JitCol};
pub use mem::{ExecBuf, ExecError};
