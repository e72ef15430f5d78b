//! A minimal x86-64 assembler: registers, code buffer, and the instruction
//! subset the scan compilers emit (legacy, VEX-opmask, and EVEX/AVX-512).

pub mod encoder;
pub mod reg;

pub use encoder::{Asm, Label, Map, Pp, Vl};
pub use reg::{Cond, Gpr, KReg, Mem, Zmm};
