//! Register names for the x86-64 emitter.

/// General-purpose 64-bit registers (hardware encoding order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Gpr {
    /// Hardware register number (0–15).
    #[inline]
    pub fn num(self) -> u8 {
        self as u8
    }

    /// Low three encoding bits.
    #[inline]
    pub fn low3(self) -> u8 {
        self.num() & 7
    }

    /// Extension bit (REX.B / REX.R / REX.X).
    #[inline]
    pub fn ext(self) -> u8 {
        self.num() >> 3
    }
}

/// A ZMM vector register (0–31; this emitter uses 0–17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Zmm(pub u8);

impl Zmm {
    /// Low three encoding bits.
    #[inline]
    pub fn low3(self) -> u8 {
        self.0 & 7
    }

    /// Bit 3 (EVEX.R/X/B extension).
    #[inline]
    pub fn ext3(self) -> u8 {
        (self.0 >> 3) & 1
    }

    /// Bit 4 (EVEX.R'/V' extension).
    #[inline]
    pub fn ext4(self) -> u8 {
        (self.0 >> 4) & 1
    }
}

/// An AVX-512 opmask register k0–k7. k0 means "no masking" in the `aaa`
/// field, so maskable instructions take `Option<KReg>` style parameters
/// with k0 reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KReg(pub u8);

impl KReg {
    /// Encoding bits (0–7).
    #[inline]
    pub fn num(self) -> u8 {
        self.0 & 7
    }
}

/// A memory operand `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mem {
    /// Base register.
    pub base: Gpr,
    /// Optional scaled index: (register, log2(scale)) with scale ∈ {1,2,4,8}.
    pub index: Option<(Gpr, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base]`.
    pub fn base(base: Gpr) -> Mem {
        Mem {
            base,
            index: None,
            disp: 0,
        }
    }

    /// `[base + disp]`.
    pub fn base_disp(base: Gpr, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    /// `[base + index * scale]` with `scale ∈ {1, 2, 4, 8}`.
    pub fn base_index_scale(base: Gpr, index: Gpr, scale: u8) -> Mem {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "scale must be 1/2/4/8");
        assert!(index != Gpr::Rsp, "rsp cannot be an index register");
        Mem {
            base,
            index: Some((index, scale.trailing_zeros() as u8)),
            disp: 0,
        }
    }
}

/// Condition codes for `Jcc` (low nibble of the 0F 8x opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    /// Overflow.
    O = 0x0,
    No = 0x1,
    /// Below (unsigned <).
    B = 0x2,
    /// Above or equal (unsigned >=).
    Ae = 0x3,
    /// Equal / zero.
    E = 0x4,
    /// Not equal / not zero.
    Ne = 0x5,
    /// Below or equal (unsigned <=).
    Be = 0x6,
    /// Above (unsigned >).
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    /// Less (signed <).
    L = 0xC,
    /// Greater or equal (signed >=).
    Ge = 0xD,
    /// Less or equal (signed <=).
    Le = 0xE,
    /// Greater (signed >).
    G = 0xF,
}

impl Cond {
    /// The negated condition (used to emit "skip unless" branches).
    pub fn negate(self) -> Cond {
        match self {
            Cond::O => Cond::No,
            Cond::No => Cond::O,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::Le => Cond::G,
            Cond::G => Cond::Le,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_encoding_bits() {
        assert_eq!(Gpr::Rax.low3(), 0);
        assert_eq!(Gpr::Rax.ext(), 0);
        assert_eq!(Gpr::R8.low3(), 0);
        assert_eq!(Gpr::R8.ext(), 1);
        assert_eq!(Gpr::R15.low3(), 7);
        assert_eq!(Gpr::R15.ext(), 1);
        assert_eq!(Gpr::Rsp.num(), 4);
    }

    #[test]
    fn zmm_extension_bits() {
        assert_eq!(Zmm(5).low3(), 5);
        assert_eq!(Zmm(5).ext3(), 0);
        assert_eq!(Zmm(13).low3(), 5);
        assert_eq!(Zmm(13).ext3(), 1);
        assert_eq!(Zmm(13).ext4(), 0);
        assert_eq!(Zmm(21).ext4(), 1);
    }

    #[test]
    fn cond_negation_is_involution() {
        for c in [
            Cond::B,
            Cond::Ae,
            Cond::E,
            Cond::Ne,
            Cond::Le,
            Cond::G,
            Cond::L,
            Cond::Ge,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_rejected() {
        let _ = Mem::base_index_scale(Gpr::Rax, Gpr::Rcx, 3);
    }
}
