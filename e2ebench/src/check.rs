//! Answer checks: an engine result or a wire response body against the
//! oracle's answer.

use fts_query::QueryResult;
use fts_storage::Value;

use crate::oracle::{Answer, Num};

fn num(v: &Value) -> Num {
    match *v {
        Value::I8(x) => Num::Int(x.into()),
        Value::I16(x) => Num::Int(x.into()),
        Value::I32(x) => Num::Int(x.into()),
        Value::I64(x) => Num::Int(x.into()),
        Value::U8(x) => Num::Int(x.into()),
        Value::U16(x) => Num::Int(x.into()),
        Value::U32(x) => Num::Int(x.into()),
        Value::U64(x) => Num::Int(x.into()),
        Value::F32(x) => Num::Float(x.into()),
        Value::F64(x) => Num::Float(x),
    }
}

fn same_rows(got: &[Vec<Num>], want: &[Vec<Num>]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.matches(*b)))
}

fn compare(got: Answer, want: &Answer) -> Result<(), String> {
    let ok = match (&got, want) {
        (Answer::Count(a), Answer::Count(b)) => a == b,
        (Answer::Row(a), Answer::Row(b)) => {
            same_rows(std::slice::from_ref(a), std::slice::from_ref(b))
        }
        (Answer::Rows(a), Answer::Rows(b)) => same_rows(a, b),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("got {got}, expected {want}"))
    }
}

/// Check an `Engine::query` result.
pub fn check_result(r: &QueryResult, want: &Answer) -> Result<(), String> {
    let got = match (r, want) {
        (QueryResult::Count(n), _) => Answer::Count(*n),
        (QueryResult::Rows { rows, .. }, Answer::Row(_)) if rows.len() == 1 => {
            Answer::Row(rows[0].iter().map(num).collect())
        }
        (QueryResult::Rows { rows, .. }, _) => {
            Answer::Rows(rows.iter().map(|r| r.iter().map(num).collect()).collect())
        }
        (QueryResult::Explain(text), _) => return Err(format!("unexpected plan: {text}")),
    };
    compare(got, want)
}

fn parse_cell(cell: &str) -> Result<Num, String> {
    let cell = cell.trim();
    cell.parse::<i128>()
        .map(Num::Int)
        .or_else(|_| cell.parse::<f64>().map(Num::Float))
        .map_err(|_| format!("unparseable cell {cell:?}"))
}

/// Check a response body as the server renders it: `COUNT(*) = n`, or a
/// header line, one line per row with ` | ` between cells, and a
/// `(k row(s))` trailer.
pub fn check_body(body: &str, want: &Answer) -> Result<(), String> {
    if let Some(n) = body.strip_prefix("COUNT(*) = ") {
        let n = n
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("bad count body {body:?}"))?;
        return compare(Answer::Count(n), want);
    }
    let lines: Vec<&str> = body.lines().collect();
    if lines.len() < 2 {
        return Err(format!("short body {body:?}"));
    }
    let rows = lines[1..lines.len() - 1]
        .iter()
        .map(|l| {
            l.split(" | ")
                .map(parse_cell)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let trailer = format!("({} row(s))", rows.len());
    if lines[lines.len() - 1] != trailer {
        return Err(format!("bad trailer in {body:?}"));
    }
    let got = match want {
        Answer::Row(_) if rows.len() == 1 => Answer::Row(rows.into_iter().next().expect("one")),
        _ => Answer::Rows(rows),
    };
    compare(got, want)
}
