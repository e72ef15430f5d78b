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
//! * [`ir`] — the chain signature ([`ScanSig`]: element kind, predicates,
//!   output mode — nothing else, so each kernel has exactly one cache
//!   key) and the kernel ABI;
//! * [`compile_scalar`] — specialized tuple-at-a-time code (§II's loop);
//! * [`compile_avx512`] — the fused scan of Fig. 3 as native EVEX code
//!   (32- and 64-bit element chains);
//! * [`compile_packed`] — the fused scan over bit-packed columns (§VII):
//!   per-width unpack controls and gather-side funnel extraction baked
//!   into the emitted code;
//! * [`kernel`] — safe wrappers that validate inputs, run the code, and
//!   handle the non-multiple-of-16 tail;
//! * [`cache`] — the compiled-kernel cache, one LRU-bounded
//!   implementation for plain and packed signatures ("especially when
//!   compiled operators are cached for future use, we do not see the
//!   additional compile time as a deciding bottleneck", §V);
//! * [`source_gen`] — the C++ code-template generator the paper's Hyrise
//!   prototype uses, reproduced as a text artifact.

#![warn(missing_docs)]

pub mod asm;
pub mod cache;
pub mod compile_avx512;
pub mod compile_packed;
pub mod compile_scalar;
pub mod ir;
pub mod kernel;
pub mod mem;
pub mod source_gen;

pub use cache::{CacheSig, CacheStats, KernelCache};
pub use compile_packed::{CompiledPackedKernel, PackedColRef, PackedColSig, PackedScanSig};
pub use ir::{JitElem, JitError, JitPred, KernelArgs, KernelFn, ScanSig, MAX_JIT_PREDICATES};
pub use kernel::{CompiledKernel, JitBackend};
pub use mem::{ExecBuf, ExecError};
