//! A tiny blocking client for the wire protocol — used by the
//! integration tests. One request, one reply, in order.

use jobsched_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that never answers should fail the caller, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Send one request object, wait for its reply.
    pub fn request(&mut self, req: Json) -> Result<Json, String> {
        self.raw_line(&req.to_string_compact())
    }

    /// Send one raw line (protocol-robustness tests send garbage here).
    pub fn raw_line(&mut self, line: &str) -> Result<Json, String> {
        let mut framed = line.to_string();
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("connection closed by daemon".into());
        }
        jobsched_json::parse(reply.trim()).map_err(|e| format!("bad reply JSON: {e}"))
    }

    /// Read one reply line without sending anything — for tests that
    /// push several frames in one write and collect the replies.
    pub fn read_reply(&mut self) -> Result<Json, String> {
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("connection closed by daemon".into());
        }
        jobsched_json::parse(reply.trim()).map_err(|e| format!("bad reply JSON: {e}"))
    }

    /// Send a request and insist the reply has `"ok": true`.
    pub fn expect_ok(&mut self, req: Json) -> Result<Json, String> {
        let reply = self.request(req)?;
        match reply.get("ok").and_then(|v| v.as_bool()) {
            Some(true) => Ok(reply),
            _ => Err(format!("daemon refused: {}", reply.to_string_compact())),
        }
    }
}
