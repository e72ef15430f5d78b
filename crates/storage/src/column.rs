//! Dynamically typed column data.
//!
//! A [`Column`] is a type-erased, cache-line-aligned vector of one of the ten
//! [`DataType`]s. The query layer carries `Column`s; kernels downcast to the
//! native slice once at the boundary via [`Column::as_native`] or the
//! [`crate::with_native`] dispatch macro.

use crate::aligned::AlignedBuf;
use crate::types::{DataType, NativeType, Value};

/// Type-erased column values (one variant per [`DataType`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 1-byte signed integers.
    I8(AlignedBuf<i8>),
    /// 2-byte signed integers.
    I16(AlignedBuf<i16>),
    /// 4-byte signed integers.
    I32(AlignedBuf<i32>),
    /// 8-byte signed integers.
    I64(AlignedBuf<i64>),
    /// 1-byte unsigned integers.
    U8(AlignedBuf<u8>),
    /// 2-byte unsigned integers.
    U16(AlignedBuf<u16>),
    /// 4-byte unsigned integers.
    U32(AlignedBuf<u32>),
    /// 8-byte unsigned integers.
    U64(AlignedBuf<u64>),
    /// Single-precision floats.
    F32(AlignedBuf<f32>),
    /// Double-precision floats.
    F64(AlignedBuf<f64>),
}

/// Dispatch a generic expression over the native type of a [`Column`].
///
/// ```
/// # use fts_storage::{Column, NativeType, with_native};
/// let col = Column::from_vec(vec![1u32, 2, 3]);
/// let sum: f64 = with_native!(&col, values => {
///     values.iter().map(|&v| v.to_value().as_f64().unwrap()).sum()
/// });
/// assert_eq!(sum, 6.0);
/// ```
#[macro_export]
macro_rules! with_native {
    ($col:expr, $slice:ident => $body:expr) => {
        match $col {
            $crate::Column::I8(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::I16(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::I32(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::I64(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::U8(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::U16(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::U32(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::U64(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::F32(buf) => {
                let $slice = buf.as_slice();
                $body
            }
            $crate::Column::F64(buf) => {
                let $slice = buf.as_slice();
                $body
            }
        }
    };
}

impl Column {
    /// Build a column from a plain vector (copies into aligned storage).
    pub fn from_vec<T: NativeType>(values: Vec<T>) -> Column {
        T::wrap_column(AlignedBuf::from_slice(&values))
    }

    /// Build a column from a slice (copies into aligned storage).
    pub fn from_slice<T: NativeType>(values: &[T]) -> Column {
        T::wrap_column(AlignedBuf::from_slice(values))
    }

    /// Build a column of `len` values produced by `f(row)`.
    pub fn from_fn<T: NativeType>(len: usize, f: impl FnMut(usize) -> T) -> Column {
        T::wrap_column(AlignedBuf::from_fn(len, f))
    }

    /// The data type of the stored values.
    pub fn data_type(&self) -> DataType {
        with_native!(self, _s => {
            fn ty<T: NativeType>(_: &[T]) -> DataType { T::DATA_TYPE }
            ty(_s)
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_native!(self, s => s.len())
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Downcast to the native slice, or `None` on a type mismatch.
    pub fn as_native<T: NativeType>(&self) -> Option<&[T]> {
        T::unwrap_column(self).map(|b| b.as_slice())
    }

    /// Read one row as a dynamic [`Value`]. Panics if out of bounds.
    pub fn value_at(&self, row: usize) -> Value {
        with_native!(self, s => s[row].to_value())
    }

    /// Minimum and maximum value (ignoring NaN), or `None` for an empty or
    /// all-NaN column. Used to seed column statistics.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        with_native!(self, s => {
            fn go<T: NativeType>(s: &[T]) -> Option<(Value, Value)> {
                let mut it = s.iter().copied().filter(|v| v.is_ordered_with(*v));
                let first = it.next()?;
                let (mut lo, mut hi) = (first, first);
                for v in it {
                    if v < lo { lo = v; }
                    if v > hi { hi = v; }
                }
                Some((lo.to_value(), hi.to_value()))
            }
            go(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metadata() {
        let col = Column::from_vec(vec![5u32, 2, 9]);
        assert_eq!(col.data_type(), DataType::U32);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col.value_at(2), Value::U32(9));
    }

    #[test]
    fn downcast_success_and_failure() {
        let col = Column::from_slice(&[1i16, -2, 3]);
        assert_eq!(col.as_native::<i16>(), Some(&[1i16, -2, 3][..]));
        assert!(col.as_native::<u16>().is_none());
        assert!(col.as_native::<i32>().is_none());
    }

    #[test]
    fn from_fn_all_types() {
        for ty in DataType::ALL {
            let col = match ty {
                DataType::I8 => Column::from_fn(10, |i| i as i8),
                DataType::I16 => Column::from_fn(10, |i| i as i16),
                DataType::I32 => Column::from_fn(10, |i| i as i32),
                DataType::I64 => Column::from_fn(10, |i| i as i64),
                DataType::U8 => Column::from_fn(10, |i| i as u8),
                DataType::U16 => Column::from_fn(10, |i| i as u16),
                DataType::U32 => Column::from_fn(10, |i| i as u32),
                DataType::U64 => Column::from_fn(10, |i| i as u64),
                DataType::F32 => Column::from_fn(10, |i| i as f32),
                DataType::F64 => Column::from_fn(10, |i| i as f64),
            };
            assert_eq!(col.data_type(), ty);
            assert_eq!(col.len(), 10);
            assert_eq!(col.value_at(3).as_f64(), Some(3.0));
        }
    }

    #[test]
    fn min_max_skips_nan() {
        let col = Column::from_vec(vec![3.0f64, f64::NAN, -1.0, 7.5]);
        assert_eq!(col.min_max(), Some((Value::F64(-1.0), Value::F64(7.5))));
        let empty = Column::from_vec(Vec::<u8>::new());
        assert_eq!(empty.min_max(), None);
        let all_nan = Column::from_vec(vec![f32::NAN; 3]);
        assert_eq!(all_nan.min_max(), None);
    }

    #[test]
    fn with_native_macro_dispatches() {
        let col = Column::from_vec(vec![1u8, 2, 3, 4]);
        let n = with_native!(&col, s => s.len());
        assert_eq!(n, 4);
    }
}
