//! Safe wrappers around compiled kernels.
//!
//! A [`CompiledKernel`] owns the executable code for one [`ScanSig`] (and
//! a packed driver's unpack tables) and exposes one validated, safe run
//! routine, [`CompiledKernel::run_cols`], for plain and bit-packed columns
//! alike: it checks the column count, element type, storage, lengths and
//! same-column runs against the signature, allocates the position buffer with the slack the
//! vector stores need, and (for the AVX-512 backend) evaluates the
//! non-multiple-of-block tail rows after the kernel's drain so emitted
//! positions stay ascending. [`CompiledKernel::run`] is its plain-slice
//! shorthand.

use std::time::{Duration, Instant};

use fts_core::{OutputMode, ScanOutput};
use fts_simd::has_avx512;
use fts_storage::{NativeType, PackedColumn, PosList};

use crate::compile_avx512::{compile_avx512, DriverTables, Emitted};
use crate::compile_scalar::compile_scalar;
use crate::ir::{JitElem, JitError, KernelArgs, KernelFn, ScanSig, Storage};
use crate::mem::ExecBuf;

/// Which code generator produced a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitBackend {
    /// Specialized tuple-at-a-time loop (§II's code with immediates).
    Scalar,
    /// The fused AVX-512 scan of Fig. 3.
    Avx512,
}

/// Element types a kernel can run over.
pub trait JitRunElem: NativeType {
    /// The IR-level element kind.
    const ELEM: JitElem;

    /// Reconstruct a value from its lane bits.
    fn from_bits(bits: u64) -> Self;

    /// The value's lane bits, as a needle's `JitPred::needle_bits` holds
    /// them: the inverse of [`JitRunElem::from_bits`].
    fn to_bits(self) -> u64;
}

impl JitRunElem for u32 {
    const ELEM: JitElem = JitElem::U32;
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
    fn to_bits(self) -> u64 {
        self as u64
    }
}

impl JitRunElem for i32 {
    const ELEM: JitElem = JitElem::I32;
    fn from_bits(bits: u64) -> Self {
        bits as u32 as i32
    }
    fn to_bits(self) -> u64 {
        self as u32 as u64
    }
}

impl JitRunElem for f32 {
    const ELEM: JitElem = JitElem::F32;
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    fn to_bits(self) -> u64 {
        f32::to_bits(self) as u64
    }
}

impl JitRunElem for u64 {
    const ELEM: JitElem = JitElem::U64;
    fn from_bits(bits: u64) -> Self {
        bits
    }
    fn to_bits(self) -> u64 {
        self
    }
}

impl JitRunElem for i64 {
    const ELEM: JitElem = JitElem::I64;
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
    fn to_bits(self) -> u64 {
        self as u64
    }
}

impl JitRunElem for f64 {
    const ELEM: JitElem = JitElem::F64;
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
}

/// One column handed to [`CompiledKernel::run_cols`].
#[derive(Debug, Clone, Copy)]
pub enum JitCol<'a, T> {
    /// Plain values, one element per row.
    Plain(&'a [T]),
    /// A bit-packed `u32` column; its width must match the signature's.
    Packed(&'a PackedColumn),
}

/// Errors when running a compiled kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Number of columns differs from the signature's predicate count.
    ColumnCountMismatch {
        /// Predicates in the signature.
        expected: usize,
        /// Columns passed.
        got: usize,
    },
    /// The element type differs from the signature's.
    ElemMismatch,
    /// A column's storage (plain or packed, and a packed column's width)
    /// differs from its predicate's, or a predicate the signature puts on
    /// the previous predicate's column got another column.
    StorageMismatch,
    /// Columns have different lengths.
    LengthMismatch,
    /// More rows than a 32-bit gather index (or, for a packed column,
    /// a 32-bit bit address) can reach.
    TooManyRows(usize),
    /// The kernel was compiled in count mode but positions were requested
    /// (or vice versa — the signature fixes the output mode).
    ModeMismatch,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ColumnCountMismatch { expected, got } => {
                write!(f, "signature has {expected} predicates, got {got} columns")
            }
            RunError::ElemMismatch => write!(f, "element type mismatch"),
            RunError::StorageMismatch => write!(f, "column storage differs from the signature"),
            RunError::LengthMismatch => write!(f, "columns have different lengths"),
            RunError::TooManyRows(n) => write!(f, "{n} rows exceed 32-bit index range"),
            RunError::ModeMismatch => write!(f, "kernel compiled for the other output mode"),
        }
    }
}

impl std::error::Error for RunError {}

/// One JIT-compiled scan kernel, ready to execute.
///
/// ```
/// use fts_jit::{CompiledKernel, JitBackend, ScanSig};
/// use fts_storage::CmpOp;
///
/// // Specialize §II's loop for `a = 5 AND b = 1` (needles become
/// // immediates in the emitted machine code).
/// let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 1)], false);
/// let kernel = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
/// let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
/// let b: Vec<u32> = (0..100).map(|i| i % 4).collect();
/// assert_eq!(kernel.run(&[&a[..], &b[..]]).unwrap().count(), 5);
/// ```
pub struct CompiledKernel {
    sig: ScanSig,
    backend: JitBackend,
    buf: ExecBuf,
    /// A packed driver's unpack tables, which the code addresses directly.
    _tables: Option<Box<DriverTables>>,
    compile_time: Duration,
}

impl CompiledKernel {
    /// Generate and map the code for `sig` with the chosen backend.
    ///
    /// The AVX-512 backend refuses to compile on hosts without AVX-512
    /// (and, for chains with packed columns, VBMI2), so a successfully
    /// compiled kernel is always runnable. Only the AVX-512 backend reads
    /// packed columns.
    pub fn compile(sig: ScanSig, backend: JitBackend) -> Result<CompiledKernel, JitError> {
        let start = Instant::now();
        let Emitted { code, tables } = match backend {
            JitBackend::Scalar => Emitted {
                code: compile_scalar(&sig)?,
                tables: None,
            },
            JitBackend::Avx512 => {
                let vbmi2 = || std::arch::is_x86_feature_detected!("avx512vbmi2");
                if !has_avx512() || (sig.has_packed() && !vbmi2()) {
                    return Err(JitError::IsaUnavailable);
                }
                compile_avx512(&sig)?
            }
        };
        let buf = ExecBuf::new(&code)?;
        Ok(CompiledKernel {
            sig,
            backend,
            buf,
            _tables: tables,
            compile_time: start.elapsed(),
        })
    }

    /// The signature the kernel was specialized for.
    pub fn sig(&self) -> &ScanSig {
        &self.sig
    }

    /// Which backend emitted the code.
    pub fn backend(&self) -> JitBackend {
        self.backend
    }

    /// Code generation + mapping time (the cost the kernel cache amortizes).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// The machine code (for disassembly, e.g. the `jit_explorer` example).
    pub fn machine_code(&self) -> &[u8] {
        self.buf.code()
    }

    /// Disassemble the kernel with binutils `objdump`, if installed.
    /// Returns Intel-syntax assembly, one instruction per line.
    pub fn disassemble(&self) -> Option<String> {
        use std::io::Write as _;
        let path = std::env::temp_dir().join(format!(
            "fts-jit-disasm-{}-{:p}.bin",
            std::process::id(),
            self.buf.code()
        ));
        let mut f = std::fs::File::create(&path).ok()?;
        f.write_all(self.buf.code()).ok()?;
        drop(f);
        let out = std::process::Command::new("objdump")
            .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
            .arg(&path)
            .output();
        let _ = std::fs::remove_file(&path);
        let out = out.ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let body: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("<.data>:"))
            .skip(1)
            .collect();
        Some(body.join("\n"))
    }

    /// Execute the kernel over plain columns (shorthand for
    /// [`CompiledKernel::run_cols`] with every column
    /// [`JitCol::Plain`]).
    pub fn run<T: JitRunElem>(&self, cols: &[&[T]]) -> Result<ScanOutput, RunError> {
        let cols: Vec<JitCol<'_, T>> = cols.iter().map(|&c| JitCol::Plain(c)).collect();
        self.run_cols(&cols)
    }

    /// Execute the kernel over `cols`, one per predicate. The output mode
    /// is fixed by the signature (`emit_positions`).
    pub fn run_cols<T: JitRunElem>(&self, cols: &[JitCol<'_, T>]) -> Result<ScanOutput, RunError> {
        if T::ELEM != self.sig.elem {
            return Err(RunError::ElemMismatch);
        }
        if cols.len() != self.sig.len() {
            return Err(RunError::ColumnCountMismatch {
                expected: self.sig.len(),
                got: cols.len(),
            });
        }
        let same = |a: &JitCol<'_, T>, b: &JitCol<'_, T>| match (a, b) {
            (JitCol::Plain(a), JitCol::Plain(b)) => {
                std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
            }
            (JitCol::Packed(a), JitCol::Packed(b)) => std::ptr::eq(*a, *b),
            _ => false,
        };
        let mut lens = Vec::with_capacity(cols.len());
        for (i, (col, pred)) in cols.iter().zip(&self.sig.preds).enumerate() {
            // A run's later predicates compare what the stage's first one
            // read, so they must name that column.
            if pred.same_column && (i == 0 || !same(col, &cols[i - 1])) {
                return Err(RunError::StorageMismatch);
            }
            lens.push(match (col, pred.storage) {
                (JitCol::Plain(d), Storage::Plain) => d.len(),
                (JitCol::Packed(p), Storage::Packed { bits }) if p.bits() == bits => {
                    // The gather-side extraction addresses bits in 32 bits.
                    if p.len() as u64 * bits as u64 >= 1 << 31 {
                        return Err(RunError::TooManyRows(p.len()));
                    }
                    p.len()
                }
                _ => return Err(RunError::StorageMismatch),
            });
        }
        let rows = lens[0];
        if lens.iter().any(|&len| len != rows) {
            return Err(RunError::LengthMismatch);
        }
        if rows > i32::MAX as usize {
            return Err(RunError::TooManyRows(rows));
        }

        // The AVX-512 kernel consumes whole blocks (16 rows for 32-bit
        // elements, 8 for 64-bit); the scalar kernel consumes every row.
        let rows_kernel = match self.backend {
            JitBackend::Scalar => rows,
            JitBackend::Avx512 => {
                let lanes = self.sig.elem.lanes();
                rows / lanes * lanes
            }
        };

        let mut out: Vec<u32> = if self.sig.emit_positions {
            // Slack for the full-register position stores.
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
                JitCol::Plain(d) => d.as_ptr() as *const u8,
                JitCol::Packed(p) => p.words().as_ptr() as *const u8,
            };
        }
        // SAFETY: the code was generated for exactly this signature; the
        // columns were validated above (kinds, widths, lengths; packed
        // columns carry the guard word the funnel's second gather reads);
        // `out` has the required slack; the AVX-512 backend verified ISA
        // support at compile time.
        let f: KernelFn = unsafe { std::mem::transmute(self.buf.entry()) };
        // SAFETY: see above.
        let mut count = unsafe { f(&args) };
        out.truncate(count as usize);

        // Tail rows (AVX-512 backend only): evaluated after the kernel's
        // drain, so appended positions remain ascending. Packed columns
        // hold `u32` values (they occur only in `u32` chains).
        for row in rows_kernel..rows {
            let hit = self.sig.preds.iter().zip(cols).all(|(p, col)| match col {
                JitCol::Plain(d) => d[row].cmp_op(p.op, T::from_bits(p.needle_bits)),
                JitCol::Packed(c) => c.get(row).cmp_op(p.op, p.needle_bits as u32),
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

    /// Convenience: run and coerce into the requested [`OutputMode`]
    /// (positions kernels can serve count queries; not vice versa).
    pub fn run_mode<T: JitRunElem>(
        &self,
        cols: &[&[T]],
        mode: OutputMode,
    ) -> Result<ScanOutput, RunError> {
        let out = self.run(cols)?;
        match (mode, out) {
            (OutputMode::Count, o) => Ok(ScanOutput::Count(o.count())),
            (OutputMode::Positions, o @ ScanOutput::Positions(_)) => Ok(o),
            (OutputMode::Positions, ScanOutput::Count(_)) => Err(RunError::ModeMismatch),
        }
    }
}

impl std::fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledKernel({:?}, {} preds, {} bytes, compiled in {:?})",
            self.backend,
            self.sig.len(),
            self.buf.code_len(),
            self.compile_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::CmpOp;

    #[test]
    fn scalar_backend_end_to_end() {
        let a: Vec<u32> = (0..1003).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..1003).map(|i| i % 4).collect();
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        let out = k.run(&[&a[..], &b[..]]).unwrap();
        let expected: Vec<u32> = (0..1003u32)
            .filter(|&i| a[i as usize] == 5 && b[i as usize] == 2)
            .collect();
        assert_eq!(out.positions().unwrap().as_slice(), &expected[..]);
        assert!(k.compile_time() < Duration::from_secs(1));
        assert!(!k.machine_code().is_empty());
    }

    #[test]
    fn avx512_backend_handles_tails() {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        for rows in [0usize, 1, 15, 16, 17, 1003] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 3).collect();
            let b: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 0), (CmpOp::Eq, 1)], true);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let out = k.run(&[&a[..], &b[..]]).unwrap();
            let expected: Vec<u32> = (0..rows as u32)
                .filter(|&i| a[i as usize] == 0 && b[i as usize] == 1)
                .collect();
            assert_eq!(
                out.positions().unwrap().as_slice(),
                &expected[..],
                "rows={rows}"
            );
        }
    }

    #[test]
    fn avx512_w64_backend_handles_tails() {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        for rows in [0usize, 1, 7, 8, 9, 505] {
            let a: Vec<u64> = (0..rows as u64).map(|i| i % 3).collect();
            let b: Vec<f64> = (0..rows).map(|i| (i % 2) as f64).collect();
            let sig = ScanSig::chain::<u64>(&[(CmpOp::Eq, 0)], true);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let out = k.run(&[&a[..]]).unwrap();
            let expected: Vec<u32> = (0..rows as u32).filter(|&i| a[i as usize] == 0).collect();
            assert_eq!(
                out.positions().unwrap().as_slice(),
                &expected[..],
                "rows={rows}"
            );

            let sig = ScanSig::chain::<f64>(&[(CmpOp::Eq, 1.0)], false);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let expected = b.iter().filter(|&&v| v == 1.0).count() as u64;
            assert_eq!(k.run(&[&b[..]]).unwrap().count(), expected, "rows={rows}");
        }
    }

    #[test]
    fn validation_errors() {
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], false);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        let a = [1u32, 2];
        let b = [1u32];
        assert_eq!(
            k.run(&[&a[..]]).unwrap_err(),
            RunError::ColumnCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            k.run(&[&a[..], &b[..]]).unwrap_err(),
            RunError::LengthMismatch
        );
        let ai = [1i32, 2];
        assert_eq!(
            k.run(&[&ai[..], &ai[..]]).unwrap_err(),
            RunError::ElemMismatch
        );

        // Count-mode kernel cannot serve position queries.
        let out = k.run(&[&a[..], &a[..]]).unwrap();
        assert!(matches!(out, ScanOutput::Count(_)));
        assert_eq!(
            k.run_mode(&[&a[..], &a[..]], OutputMode::Positions)
                .unwrap_err(),
            RunError::ModeMismatch
        );
    }

    #[test]
    fn disassemble_produces_assembly_when_objdump_exists() {
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], false);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        match k.disassemble() {
            Some(asm) => {
                assert!(asm.contains("ret"), "{asm}");
                assert!(asm.contains("cmp"), "{asm}");
            }
            None => eprintln!("objdump unavailable — skipping"),
        }
    }

    #[test]
    fn count_mode_agrees_with_positions_mode() {
        if !has_avx512() {
            return;
        }
        let a: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let kc = CompiledKernel::compile(
            ScanSig::chain::<u32>(&[(CmpOp::Lt, 3)], false),
            JitBackend::Avx512,
        )
        .unwrap();
        let kp = CompiledKernel::compile(
            ScanSig::chain::<u32>(&[(CmpOp::Lt, 3)], true),
            JitBackend::Avx512,
        )
        .unwrap();
        let c = kc.run(&[&a[..]]).unwrap().count();
        let p = kp.run(&[&a[..]]).unwrap();
        assert_eq!(c, p.count());
        // A positions kernel can serve count queries.
        assert_eq!(
            kp.run_mode(&[&a[..]], OutputMode::Count).unwrap().count(),
            c
        );
    }
}
