//! The daemon as a child process, and the client's side of the wire.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nsky_server::json::{self, Value};

/// A spawned `nsky-server`. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawns the daemon on `edges` (an OS-chosen port) and returns once
    /// it has loaded the graph and bound its listener.
    pub fn spawn(bin: &Path, edges: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .arg(edges)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        proc.stdout.read_line(&mut line)?;
        proc.addr = line
            .strip_prefix("nsky-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))?
            .to_owned();
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// One request on a fresh connection, decoded (untimed helper).
    pub fn ask(&self, request: &str) -> io::Result<Value> {
        let mut out = Vec::new();
        let line = format!("{request}\n");
        exchange_fresh(&self.addr, line.as_bytes(), &mut out, false)?;
        decode(&out)
    }

    /// Sends `shutdown`, then waits for the drained daemon to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = self.ask(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("server did not drain within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut rest = Vec::new();
        self.stdout.read_to_end(&mut rest)?;
        asked.map(drop)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Client-side instants of one exchange. `connected`, `sent` and
/// `first_byte` are only read on traced exchanges.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

impl Timing {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One long-lived connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line (with its newline) and reads the response
    /// line into `out`. The latency window opens at the first byte sent.
    pub fn exchange(&mut self, line: &[u8], out: &mut Vec<u8>, traced: bool) -> io::Result<Timing> {
        let start = Instant::now();
        self.exchange_from(start, start, line, out, traced)
    }

    fn exchange_from(
        &mut self,
        start: Instant,
        connected: Instant,
        line: &[u8],
        out: &mut Vec<u8>,
        traced: bool,
    ) -> io::Result<Timing> {
        out.clear();
        self.writer.write_all(line)?;
        let (sent, first_byte) = if traced {
            let sent = Instant::now();
            self.reader.fill_buf()?;
            (sent, Instant::now())
        } else {
            (start, start)
        };
        self.reader.read_until(b'\n', out)?;
        let end = Instant::now();
        if out.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response's newline",
            ));
        }
        Ok(Timing {
            start,
            connected,
            sent,
            first_byte,
            end,
        })
    }
}

/// One request on its own connection; the latency window opens before
/// `connect`.
pub fn exchange_fresh(
    addr: &str,
    line: &[u8],
    out: &mut Vec<u8>,
    traced: bool,
) -> io::Result<Timing> {
    let start = Instant::now();
    let mut conn = Conn::open(addr)?;
    let connected = if traced { Instant::now() } else { start };
    conn.exchange_from(start, connected, line, out, traced)
}

/// Decodes one response line.
pub fn decode(line: &[u8]) -> io::Result<Value> {
    let text = std::str::from_utf8(line)
        .map_err(|_| io::Error::other("response is not UTF-8"))?
        .trim_end();
    json::parse(text).map_err(|e| io::Error::other(format!("response is not JSON: {e}")))
}
