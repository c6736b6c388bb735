//! A blocking `earthd` client over one TCP connection.
//!
//! Requests are answered in order on the connection, so the client is a
//! simple write-line/read-line loop. Backpressure rejections
//! (`retry_after_ms`) are retried automatically with capped exponential
//! backoff — each attempt sleeps the larger of the server's hint and
//! `backoff_base_ms << attempt`, bounded by `backoff_cap_ms` — up to
//! [`Client::max_retries`] attempts. For cluster-aware routing and
//! dead-peer failover, see `cluster::ClusterClient`, which builds on
//! [`Client::request_once`].

use crate::proto::{Arg, CompileOptions, Request, RequestKind, Response};
use crate::stats::ServerStats;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What went wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The daemon sent something unintelligible.
    Protocol(String),
    /// The daemon answered with an error.
    Server {
        /// The daemon's single-line error message.
        error: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { error } => write!(f, "server error: {error}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// `kind` with id 0, no deadline and no `fwd` marker: [`Client::send`]
/// sets the id and the deadline each time it sends.
pub(crate) fn unsent(kind: RequestKind) -> Request {
    Request {
        id: 0,
        deadline_ms: None,
        fwd: false,
        kind,
    }
}

/// A blocking client. One request in flight at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Attempts per request when the daemon answers `retry_after_ms`
    /// (queue full). 1 disables retries.
    pub max_retries: u32,
    /// First backoff sleep; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling per sleep.
    pub backoff_cap_ms: u64,
    /// Deadline attached to every request (`None` = server default).
    pub deadline_ms: Option<u64>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            max_retries: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 2_000,
            deadline_ms: None,
        })
    }

    /// Sends `req` under this connection's next request id and deadline
    /// (re-addressed in place: a retry re-encodes the request, it does not
    /// clone it).
    pub(crate) fn send(&mut self, req: &mut Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        req.id = id;
        req.deadline_ms = self.deadline_ms;
        let mut line = req.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Protocol("daemon closed the connection".into()));
        }
        let resp = Response::from_json(reply.trim_end())
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        // id 0 marks a response to an unparseable request line.
        if resp.id() != id && resp.id() != 0 {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id(),
            )));
        }
        Ok(resp)
    }

    /// Sends one request with no retry policy. A server-side error is
    /// returned as the [`Response::Error`] value, not as `Err` — the
    /// caller decides what a rejection means (the cluster client turns
    /// backpressure into backoff and connection errors into ring
    /// evictions).
    ///
    /// # Errors
    ///
    /// Only connection and protocol failures.
    pub fn request_once(&mut self, kind: RequestKind) -> Result<Response, ClientError> {
        self.send(&mut unsent(kind))
    }

    /// Sends one request, retrying on backpressure with capped
    /// exponential backoff (the sleep is the larger of the server's
    /// `retry_after_ms` hint and `backoff_base_ms << attempt`, capped
    /// at `backoff_cap_ms`); a terminal server error becomes
    /// [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn request(&mut self, kind: RequestKind) -> Result<Response, ClientError> {
        let attempts = self.max_retries.max(1);
        let mut req = unsent(kind);
        for attempt in 0..attempts {
            match self.send(&mut req)? {
                Response::Error {
                    error,
                    retry_after_ms: Some(ms),
                    ..
                } => {
                    if attempt + 1 == attempts {
                        return Err(ClientError::Server { error });
                    }
                    let exp = self
                        .backoff_base_ms
                        .saturating_mul(1u64 << attempt.min(16))
                        .min(self.backoff_cap_ms);
                    std::thread::sleep(Duration::from_millis(exp.max(ms).min(self.backoff_cap_ms)));
                }
                Response::Error { error, .. } => return Err(ClientError::Server { error }),
                resp => return Ok(resp),
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// `ping`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(RequestKind::Ping)? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", &other)),
        }
    }

    /// `shutdown` (the daemon acks, then stops).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(RequestKind::Shutdown)? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", &other)),
        }
    }

    /// `stats`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(RequestKind::Stats)? {
            Response::Stats { stats, .. } => Ok(*stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// `compile`. The response is always [`Response::Compile`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn compile(&mut self, source: &str, opts: CompileOptions) -> Result<Response, ClientError> {
        let resp = self.request(RequestKind::Compile {
            source: source.to_string(),
            opts,
        })?;
        match resp {
            Response::Compile { .. } => Ok(resp),
            other => Err(unexpected("compile", &other)),
        }
    }

    /// `run`. The response is always [`Response::Run`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn run(
        &mut self,
        source: &str,
        opts: CompileOptions,
        entry: &str,
        nodes: u16,
        args: Vec<Arg>,
    ) -> Result<Response, ClientError> {
        let resp = self.request(RequestKind::Run {
            source: source.to_string(),
            opts,
            entry: entry.to_string(),
            nodes,
            args,
        })?;
        match resp {
            Response::Run { .. } => Ok(resp),
            other => Err(unexpected("run", &other)),
        }
    }

    /// `pgo`. The response is always [`Response::Pgo`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn pgo(
        &mut self,
        source: &str,
        entry: &str,
        nodes: u16,
        args: Vec<Arg>,
    ) -> Result<Response, ClientError> {
        let resp = self.request(RequestKind::Pgo {
            source: source.to_string(),
            entry: entry.to_string(),
            nodes,
            args,
        })?;
        match resp {
            Response::Pgo { .. } => Ok(resp),
            other => Err(unexpected("pgo", &other)),
        }
    }

    /// `lint`. The response is always [`Response::Lint`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn lint(&mut self, source: &str) -> Result<Response, ClientError> {
        let resp = self.request(RequestKind::Lint {
            source: source.to_string(),
        })?;
        match resp {
            Response::Lint { .. } => Ok(resp),
            other => Err(unexpected("lint", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected a `{wanted}` response, got {got:?}"))
}
