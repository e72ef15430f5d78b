//! The wire front door: an in-process `QueryServer::serve` on loopback
//! and framed clients.
//!
//! `serve` is an accept loop that only returns when the listener errors.
//! The benchmark connects every client first and then runs `serve` on a
//! non-blocking listener: it accepts the queued connections (each gets
//! the server's own connection thread) and returns on `WouldBlock`. No
//! accept thread is left polling during the timed phase, and closing the
//! clients ends every connection thread.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fts_query::Engine;
use fts_server::{QueryServer, Request, Response, ServerConfig};

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// One round trip: write the request frame, read the response frame.
    pub fn call(&mut self, statement: &str) -> io::Result<Response> {
        self.send(statement)?;
        self.receive()
    }

    fn send(&mut self, statement: &str) -> io::Result<()> {
        Request {
            statement: statement.to_string(),
        }
        .write(&mut self.writer)
    }

    fn receive(&mut self) -> io::Result<Response> {
        Response::read(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }
}

/// A running server with its connected clients.
pub struct Wire {
    pub server: Arc<QueryServer>,
    pub clients: Vec<Client>,
}

/// Start a server with the shipped defaults over `engine` and connect
/// `n` clients, each answered once (`PING`) before this returns.
pub fn start(engine: Arc<Engine>, n: usize) -> io::Result<Wire> {
    let server = Arc::new(QueryServer::new(engine, ServerConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut clients = (0..n)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    for c in &mut clients {
        c.send("PING")?;
        c.set_read_timeout(Some(Duration::from_millis(20)))?;
    }
    let mut answered = vec![false; n];
    for _ in 0..100 {
        if let Err(e) = server.serve(listener.try_clone()?) {
            if e.kind() != io::ErrorKind::WouldBlock {
                return Err(e);
            }
        }
        for (c, done) in clients.iter_mut().zip(&mut answered) {
            if *done {
                continue;
            }
            match c.receive() {
                Ok(r) if r.is_ok() => *done = true,
                Ok(r) => return Err(io::Error::other(format!("PING: {}", r.body()))),
                // Not accepted yet: the PING waits in the socket and is
                // answered once the next `serve` accepts the connection.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        if answered.iter().all(|&a| a) {
            for c in &clients {
                c.set_read_timeout(None)?;
            }
            return Ok(Wire { server, clients });
        }
    }
    Err(io::Error::other("clients were never accepted"))
}

impl Wire {
    /// Close every client and wait until the server's connection threads
    /// have let go of it.
    pub fn stop(self) -> Result<(), String> {
        let Wire { server, clients } = self;
        drop(clients);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&server) > 1 {
            if Instant::now() > deadline {
                return Err("server connection threads did not exit".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}
