//! Lineitem-shaped tables: generation, the plain table and its encoded
//! twin, and the byte accounting behind `stored_bytes_ratio`.

use std::time::Instant;

use fts_storage::{Column, ColumnDef, DataType, Layout, Table};

use crate::rng::{mix, Rng};

pub const SHIPDATE: usize = 0;
pub const DISCOUNT: usize = 1;
pub const QUANTITY: usize = 2;
pub const PARTKEY: usize = 3;
pub const PRICE: usize = 4;
pub const NCOLS: usize = 5;

/// One column's value domain: `lo + step * k` for `k` in `0..n`, drawn
/// uniformly (no clustering, so calibration never sees drift).
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    pub name: &'static str,
    pub lo: i64,
    pub step: i64,
    pub n: i64,
}

impl Domain {
    pub fn value(&self, k: i64) -> i64 {
        self.lo + self.step * k.clamp(0, self.n - 1)
    }
}

pub const DOMAINS: [Domain; NCOLS] = [
    // Days since 1970 for 1992-01-01 ..= 1998-12-31.
    Domain {
        name: "shipdate",
        lo: 8035,
        step: 1,
        n: 2557,
    },
    Domain {
        name: "discount",
        lo: 0,
        step: 1,
        n: 11,
    },
    Domain {
        name: "quantity",
        lo: 1,
        step: 1,
        n: 50,
    },
    Domain {
        name: "partkey",
        lo: 1,
        step: 1,
        n: 2_000_000,
    },
    // Cents, on a 1-dollar grid: 900.00 ..= 104 900.00.
    Domain {
        name: "extendedprice",
        lo: 90_000,
        step: 100,
        n: 104_001,
    },
];

/// Layout of each column in the encoded twin: the `u32` columns spread
/// over dict, packed, FoR and byte-sliced; the `i64` column is
/// dictionary-encoded.
pub const ENCODED_LAYOUTS: [Layout; NCOLS] = [
    Layout::Dict,
    Layout::For,
    Layout::Packed,
    Layout::ByteSliced,
    Layout::Dict,
];

/// The generated column vectors (the reference oracle reads these).
pub struct Dataset {
    pub u32s: [Vec<u32>; 4],
    pub price: Vec<i64>,
}

impl Dataset {
    pub fn rows(&self) -> usize {
        self.price.len()
    }

    /// Fold every generated value into `h`.
    pub fn digest(&self, mut h: u64) -> u64 {
        for col in &self.u32s {
            for &v in col {
                h = fold(h, v as u64);
            }
        }
        for &v in &self.price {
            h = fold(h, v as u64);
        }
        h
    }
}

pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(5)
}

pub fn generate(seed: u64, rows: usize) -> Dataset {
    let column = |c: usize| {
        let d = DOMAINS[c];
        let mut rng = Rng::new(mix(seed, c as u64));
        (0..rows).map(move |_| d.value(rng.below(d.n as u64) as i64))
    };
    Dataset {
        u32s: [0, 1, 2, 3].map(|c| column(c).map(|v| v as u32).collect()),
        price: column(PRICE).collect(),
    }
}

pub fn schema() -> Vec<ColumnDef> {
    DOMAINS
        .iter()
        .enumerate()
        .map(|(c, d)| {
            let ty = if c == PRICE {
                DataType::I64
            } else {
                DataType::U32
            };
            ColumnDef::new(d.name, ty)
        })
        .collect()
}

/// The two tables of one set-up, with the time spent building them.
pub struct Tables {
    pub plain: Table,
    pub encoded: Table,
    /// Seconds to assemble the plain chunked table from the vectors.
    pub build_s: f64,
    /// Seconds spent in the `with_*` encoders.
    pub encode_s: f64,
}

/// Build the plain table (consuming the vectors) and its encoded twin.
pub fn build_tables(data: Dataset, chunk_rows: usize) -> Tables {
    let started = Instant::now();
    let Dataset { u32s, price } = data;
    let mut columns: Vec<Column> = u32s.into_iter().map(Column::from_vec).collect();
    columns.push(Column::from_vec(price));
    let plain = Table::from_chunked_columns(schema(), columns, chunk_rows).expect("schema matches");
    let build_s = started.elapsed().as_secs_f64();

    let cols_of = |layout: Layout| -> Vec<usize> {
        (0..NCOLS)
            .filter(|&c| ENCODED_LAYOUTS[c] == layout)
            .collect()
    };
    let started = Instant::now();
    let encoded = plain
        .with_dictionary_encoding(&cols_of(Layout::Dict))
        .and_then(|t| t.with_bitpacking(&cols_of(Layout::Packed)))
        .and_then(|t| t.with_for_encoding(&cols_of(Layout::For)))
        .and_then(|t| t.with_byte_slicing(&cols_of(Layout::ByteSliced)))
        .expect("encodable columns");
    let encode_s = started.elapsed().as_secs_f64();
    Tables {
        plain,
        encoded,
        build_s,
        encode_s,
    }
}

/// Heap bytes of every segment, summed per layout (in `Layout::ALL`
/// order).
pub fn heap_bytes_by_layout(tables: &[&Table]) -> [u64; 5] {
    let mut out = [0u64; 5];
    for t in tables {
        for chunk in t.chunks() {
            for seg in chunk.segments() {
                let i = Layout::ALL
                    .iter()
                    .position(|&l| l == seg.layout())
                    .expect("every layout is listed");
                out[i] += seg.heap_bytes() as u64;
            }
        }
    }
    out
}

/// Logical bytes of a table's rows: 4 per `u32` value, 8 per `i64`.
pub fn logical_bytes(t: &Table) -> u64 {
    t.rows() as u64 * (4 * 4 + 8)
}
