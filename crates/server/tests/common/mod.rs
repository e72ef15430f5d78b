//! Helpers shared by the server's wire-level test binaries: a
//! deterministic `orders` table, a loopback server, and a one-statement
//! client.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use fts_query::Engine;
use fts_server::{QueryServer, Request, Response, ServerConfig};
use fts_storage::{Column, ColumnDef, DataType, Table};

pub const ROWS: usize = 40_960;
pub const CHUNK: usize = 1024;

/// Deterministic table: quantity cycles 0..50, discount cycles 0..11,
/// price is a linear ramp — every predicate's true count is computable.
pub fn test_table() -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("discount", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(ROWS, |i| (i % 50) as u32),
            Column::from_fn(ROWS, |i| (i % 11) as u32),
            Column::from_fn(ROWS, |i| i as i64),
        ],
        CHUNK,
    )
    .expect("test table")
}

pub fn start_server(config: ServerConfig) -> (Arc<QueryServer>, SocketAddr) {
    let engine = Engine::new();
    engine.register("orders", test_table());
    serve(engine, config)
}

pub fn serve(engine: Engine, config: ServerConfig) -> (Arc<QueryServer>, SocketAddr) {
    let server = Arc::new(QueryServer::new(Arc::new(engine), config));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = accept.serve(listener);
    });
    (server, addr)
}

/// One statement over a fresh connection.
pub fn roundtrip(addr: SocketAddr, statement: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    Request {
        statement: statement.to_string(),
    }
    .write(&mut writer)
    .expect("write");
    Response::read(&mut reader)
        .expect("read")
        .expect("response")
}
