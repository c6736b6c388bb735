//! The nonblocking, readiness-driven connection layer.
//!
//! One event-loop thread owns every connection: a nonblocking listener,
//! per-connection read/write buffers, and an idle-connection sweeper.
//! Slow work never runs here — `dispatch` either answers inline
//! (ping/stats/shutdown, parse errors, backpressure rejections) or
//! hands the request to the worker pool, whose completion lands back on
//! this thread through an mpsc channel. Thousands of idle clients
//! therefore cost two buffers each and zero threads.
//!
//! The standard library exposes no `poll(2)`, so readiness is
//! approximated: every socket is nonblocking and the loop scans them
//! per tick, sleeping adaptively (downwards of a millisecond when
//! traffic flows, backing off to [`MAX_SLEEP`] when quiet). The sleep
//! doubles as the response wait — `recv_timeout` on the completion
//! channel wakes the loop the moment a worker finishes, so response
//! latency does not pay the idle backoff.
//!
//! Pipelined requests are drained together: every complete line in the
//! read buffer is dispatched in one wakeup (`batched_requests` counts
//! lines arriving two-or-more to a drain).
//!
//! A line is at most [`MAX_LINE`] bytes. A longer one is answered with
//! one error (id 0), after which the connection's input is read and
//! dropped and its write half shut, so a client that never sends a
//! newline holds a bounded buffer, not an ever-growing one.

use crate::proto::Response;
use crate::server::{Dispatched, Inner};
use crate::Backend;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Identifies one connection for the lifetime of the daemon (never
/// reused, so late responses for closed connections are dropped rather
/// than misdelivered).
pub(crate) type ConnId = u64;

/// Event-loop sleep floor while traffic flows.
const MIN_SLEEP: Duration = Duration::from_micros(200);
/// Event-loop sleep ceiling when every connection is quiet.
const MAX_SLEEP: Duration = Duration::from_millis(10);
/// Bound on flushing outstanding responses after shutdown.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);
/// Longest request line the daemon buffers: four times the largest
/// request the tests send (a 4 MB source text).
const MAX_LINE: usize = 16 << 20;

/// A connection's unread bytes, split into newline-terminated request
/// lines. Each byte is searched for `\n` once, however many reads a line
/// arrives in: `scanned` remembers how far earlier pumps looked.
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no `\n`.
    scanned: usize,
}

impl LineBuf {
    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Calls `f` on every complete line in arrival order (at `eof` the
    /// unterminated tail is one too), trimmed, blank lines skipped, then
    /// drops them from the buffer in one move. Returns how many it
    /// passed on. A line that is valid UTF-8 is borrowed, not copied.
    fn drain_lines(&mut self, eof: bool, mut f: impl FnMut(&str)) -> usize {
        let mut lines = 0;
        let mut emit = |raw: &[u8]| {
            let text = String::from_utf8_lossy(raw);
            let text = text.trim();
            if !text.is_empty() {
                f(text);
                lines += 1;
            }
        };
        let mut start = 0;
        while let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + i;
            emit(&self.buf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        if eof {
            emit(&self.buf[start..]);
            start = self.buf.len();
        }
        self.buf.drain(..start);
        self.scanned = self.buf.len();
        lines
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: LineBuf,
    wbuf: Vec<u8>,
    /// `wbuf[..wsent]` is already on the socket.
    wsent: usize,
    last_activity: Instant,
    /// Requests handed to the pool whose responses have not come back.
    pending: usize,
    /// Peer sent EOF; close once `wbuf` drains and `pending` hits 0.
    closing: bool,
    /// Unrecoverable socket error; drop at the next reap.
    dead: bool,
    /// A line passed [`MAX_LINE`]: its error is queued, input is dropped
    /// as it arrives, and the write half shuts once the error is out.
    overlong: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: LineBuf::default(),
            wbuf: Vec::new(),
            wsent: 0,
            last_activity: Instant::now(),
            pending: 0,
            closing: false,
            dead: false,
            overlong: false,
        }
    }

    fn queue_response(&mut self, resp: &Response) {
        self.wbuf.extend_from_slice(resp.to_json().as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// A partial write advances `wsent`; the sent prefix is dropped once
    /// it is all of `wbuf`, or at least half of it (so each byte is moved
    /// at most once more, and a reader that stalls cannot pin a sent
    /// prefix in memory).
    fn flush_writes(&mut self) -> bool {
        let mut moved = false;
        while self.wsent < self.wbuf.len() && !self.dead {
            match self.stream.write(&self.wbuf[self.wsent..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.wsent += n;
                    self.last_activity = Instant::now();
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.wsent >= self.wbuf.len() - self.wsent {
            self.wbuf.drain(..self.wsent);
            self.wsent = 0;
        }
        if self.overlong && self.wbuf.is_empty() {
            let _ = self.stream.shutdown(Shutdown::Write);
        }
        moved
    }

    /// Reads into `rbuf` until the socket would block, or until `rbuf`
    /// holds more than [`MAX_LINE`] bytes for the caller to frame.
    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        while !self.closing && !self.dead && self.rbuf.buf.len() <= MAX_LINE {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closing = true,
                Ok(n) => {
                    if !self.overlong {
                        self.rbuf.buf.extend_from_slice(&chunk[..n]);
                    }
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }
}

pub(crate) struct EventLoop<B: Backend> {
    listener: TcpListener,
    inner: Arc<Inner<B>>,
    idle_timeout: Option<Duration>,
    conns: HashMap<ConnId, Conn>,
    next_id: ConnId,
    reported_open: u64,
    tx: mpsc::Sender<(ConnId, Response)>,
    rx: mpsc::Receiver<(ConnId, Response)>,
}

impl<B: Backend> EventLoop<B> {
    pub(crate) fn new(
        listener: TcpListener,
        inner: Arc<Inner<B>>,
        idle_timeout: Option<Duration>,
    ) -> EventLoop<B> {
        let (tx, rx) = mpsc::channel();
        EventLoop {
            listener,
            inner,
            idle_timeout,
            conns: HashMap::new(),
            next_id: 1,
            reported_open: 0,
            tx,
            rx,
        }
    }

    /// Serves until shutdown, then flushes outstanding responses.
    pub(crate) fn run(mut self) {
        let _ = self.listener.set_nonblocking(true);
        let mut sleep = MIN_SLEEP;
        loop {
            let mut activity = self.drain_responses();
            activity |= self.accept_new();
            activity |= self.pump();
            self.reap();
            if self.inner.shutdown_requested() {
                break;
            }
            if activity {
                sleep = MIN_SLEEP;
                continue;
            }
            match self.rx.recv_timeout(sleep) {
                Ok((cid, resp)) => {
                    self.deliver(cid, &resp);
                    sleep = MIN_SLEEP;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => sleep = (sleep * 2).min(MAX_SLEEP),
                // Unreachable: this loop owns a sender.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.drain_on_shutdown();
    }

    fn drain_responses(&mut self) -> bool {
        let mut any = false;
        while let Ok((cid, resp)) = self.rx.try_recv() {
            self.deliver(cid, &resp);
            any = true;
        }
        any
    }

    fn deliver(&mut self, cid: ConnId, resp: &Response) {
        // A response for a connection that went away is dropped.
        if let Some(conn) = self.conns.get_mut(&cid) {
            conn.pending = conn.pending.saturating_sub(1);
            conn.queue_response(resp);
            conn.flush_writes();
        }
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(id, Conn::new(stream));
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        any
    }

    /// One pass over every connection: flush pending output, read and
    /// dispatch whatever arrived.
    fn pump(&mut self) -> bool {
        let mut any = false;
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            any |= conn.flush_writes();
            conn.fill();
            // Lines are dispatched straight out of the read buffer, which
            // is taken out of `conn` while the replies go into it.
            let mut rbuf = std::mem::take(&mut conn.rbuf);
            let lines = rbuf.drain_lines(conn.closing, |line| {
                match self.inner.dispatch(id, line, &self.tx) {
                    Dispatched::Reply(resp) => conn.queue_response(&resp),
                    Dispatched::Async => conn.pending += 1,
                    Dispatched::Shutdown(resp) => {
                        conn.queue_response(&resp);
                        self.inner.begin_shutdown();
                    }
                }
            });
            conn.rbuf = rbuf;
            // What is left is one unterminated line.
            if conn.rbuf.buf.len() > MAX_LINE {
                conn.rbuf = LineBuf::default();
                conn.overlong = true;
                let error = format!("bad request: line longer than {MAX_LINE} bytes");
                conn.queue_response(&self.inner.error(0, error, None));
                conn.flush_writes();
                any = true;
            }
            if lines >= 2 {
                self.inner.note_batched(lines as u64);
            }
            if lines > 0 {
                any = true;
                conn.flush_writes();
            }
            self.conns.insert(id, conn);
        }
        any
    }

    /// Drops dead and fully-drained-EOF connections, sweeps idle ones,
    /// and keeps the `open_connections` gauge current.
    fn reap(&mut self) {
        let idle_timeout = self.idle_timeout;
        let mut idle_closed = 0u64;
        self.conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            let quiescent = c.pending == 0 && c.wbuf.is_empty() && c.rbuf.is_empty();
            if c.closing && c.pending == 0 && c.wbuf.is_empty() {
                return false;
            }
            if let Some(limit) = idle_timeout {
                if quiescent && c.last_activity.elapsed() >= limit {
                    idle_closed += 1;
                    return false;
                }
            }
            true
        });
        if idle_closed > 0 {
            self.inner.note_idle_closed(idle_closed);
        }
        let open = self.conns.len() as u64;
        if open != self.reported_open {
            self.inner.set_open_connections(open);
            self.reported_open = open;
        }
    }

    /// After shutdown: run remaining pool jobs, then flush their
    /// responses out (bounded by [`SHUTDOWN_DRAIN`]).
    fn drain_on_shutdown(mut self) {
        self.inner.pool_shutdown();
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while Instant::now() < deadline {
            self.drain_responses();
            let mut outstanding = false;
            for conn in self.conns.values_mut() {
                conn.flush_writes();
                outstanding |= !conn.dead && (!conn.wbuf.is_empty() || conn.pending > 0);
            }
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LineBuf;

    fn lines(buf: &mut LineBuf, eof: bool) -> Vec<String> {
        let mut out = Vec::new();
        let n = buf.drain_lines(eof, |line| out.push(line.to_string()));
        assert_eq!(n, out.len());
        out
    }

    #[test]
    fn lines_are_framed_across_reads() {
        let mut buf = LineBuf::default();
        buf.buf.extend_from_slice(b"{\"a\":1}\n\r\n  {\"b\"");
        assert_eq!(lines(&mut buf, false), ["{\"a\":1}"]);
        assert_eq!(lines(&mut buf, false), [""; 0]);
        buf.buf.extend_from_slice(b":2}\r\n\xff\n{\"c\":3}\ntail ");
        assert_eq!(
            lines(&mut buf, false),
            ["{\"b\":2}", "\u{fffd}", "{\"c\":3}"]
        );
        assert!(!buf.is_empty());
        // Only EOF makes the unterminated tail a line.
        assert_eq!(lines(&mut buf, true), ["tail"]);
        assert!(buf.is_empty());
        assert_eq!(lines(&mut buf, true), [""; 0]);
    }

    /// A 4 MB line arriving 1 KB at a time, framed after every read as
    /// the event loop does: rescanning the buffer from byte 0 each time
    /// would be 8 GB of byte compares.
    #[test]
    fn a_line_in_many_small_reads_is_scanned_once() {
        let start = std::time::Instant::now();
        let mut buf = LineBuf::default();
        let piece = [b'x'; 1024];
        for _ in 0..4096 {
            buf.buf.extend_from_slice(&piece);
            assert_eq!(buf.drain_lines(false, |_| panic!("no newline yet")), 0);
        }
        buf.buf.extend_from_slice(b"\nnext");
        let mut got = 0;
        assert_eq!(buf.drain_lines(false, |line| got = line.len()), 1);
        assert_eq!(got, 4 << 20);
        assert_eq!(buf.buf, b"next");
        let took = start.elapsed();
        assert!(took.as_secs() < 5, "framing 4 MB took {took:?}");
    }
}
