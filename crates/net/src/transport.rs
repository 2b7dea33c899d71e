//! The [`Transport`] trait and its TCP implementation.
//!
//! A transport is a bidirectional channel that carries whole afd-wire
//! frames: `send` writes one already-framed message, `recv` hands back
//! the next `(kind, payload)` within a deadline. Frames are *read on a
//! dedicated thread* and handed over a channel, so a peer that stops
//! answering surfaces as [`NetError::Timeout`] instead of a caller
//! stuck in `read(2)` forever — the property afd-stream's supervisor
//! deadlines are built on.
//!
//! [`TcpTransport`] is the one implementation. It either dials a
//! listener that may live on another machine ([`TcpTransport::connect`])
//! or launches a local `afd shard-worker --listen 127.0.0.1:0` child and
//! dials the address it announces ([`TcpTransport::spawn`], backed by a
//! [`WorkerProcess`]). `reconnect` relaunches that child if it has
//! exited, then redials with exponential backoff; a listener that
//! survived the connection loss accepts the new connection and the
//! supervisor's restore/replay brings the fresh session back.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use afd_wire::{read_frame_from, FrameReadError, StreamFrame};

use crate::command::WorkerCommand;
use crate::error::NetError;

/// How many trailing child stderr lines a [`WorkerProcess`] retains.
const STDERR_TAIL_LINES: usize = 12;

/// How long a launched worker may take to print `listening on ADDR`.
const ANNOUNCE_DEADLINE: Duration = Duration::from_secs(5);

/// How long [`Transport::diagnostics`] waits, when the peer likely
/// died, for the worker's stderr to catch up with the failure.
const DIAGNOSTICS_WAIT: Duration = Duration::from_millis(250);

/// Redial schedule for [`TcpTransport::reconnect`]: this many attempts,
/// sleeping [`INITIAL_BACKOFF`] before the second and doubling up to
/// [`MAX_BACKOFF`] (~0.8 s in all). It rides *inside* afd-stream's
/// per-respawn retry budget, so one supervisor retry absorbs a worker
/// listener that needs a moment to come back.
const RECONNECT_ATTEMPTS: u32 = 8;
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
const MAX_BACKOFF: Duration = Duration::from_millis(250);

/// A bidirectional framed channel to one peer.
///
/// Implementations own whatever machinery keeps the channel alive (a
/// child process, a socket, reader threads); the caller owns the
/// protocol spoken over it and the per-request deadline policy.
pub trait Transport: Send + std::fmt::Debug {
    /// Writes one complete, already-framed message to the peer.
    ///
    /// # Errors
    /// [`NetError::Write`] when the channel is closed.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// The next frame from the peer, or a typed error within `deadline`.
    ///
    /// # Errors
    /// [`NetError::Timeout`] when nothing arrived in time;
    /// [`NetError::Read`]/[`NetError::Decode`] when the peer closed the
    /// channel or sent bytes that fail the frame checksum.
    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError>;

    /// Tears the channel down and establishes a fresh one to the same
    /// peer recipe (relaunch an exited child; redial with backoff). The
    /// caller owns re-running any protocol handshake and restoring peer
    /// state afterwards.
    ///
    /// # Errors
    /// [`NetError::Spawn`]/[`NetError::Connect`] when no fresh channel
    /// could be brought up.
    fn reconnect(&mut self) -> Result<(), NetError>;

    /// True when [`Transport::reconnect`] can plausibly succeed — the
    /// hook afd-stream's supervisor keys recovery on.
    fn supports_reconnect(&self) -> bool {
        false
    }

    /// Out-of-band diagnostics for error attribution (a spawned
    /// worker's stderr tail). `likely_dead` lets the implementation
    /// briefly wait for the peer's last words first, so a message that
    /// raced the failure is included deterministically.
    fn diagnostics(&mut self, likely_dead: bool) -> Vec<String> {
        let _ = likely_dead;
        Vec::new()
    }

    /// Closes the channel gracefully after the protocol said goodbye
    /// (and stops a worker process the transport launched itself).
    ///
    /// # Errors
    /// [`NetError::Timeout`] when the peer did not wind down in time.
    fn finish(&mut self, deadline: Duration) -> Result<(), NetError>;

    /// A short human-readable peer identity (program path, socket
    /// address) for error messages.
    fn peer(&self) -> String;
}

// -------------------------------------------------------- frame reading

type FrameResult = Result<(u8, Vec<u8>), NetError>;

/// The receiving half of a transport: a reader thread decoding frames
/// off the channel, handing them over an mpsc so `recv` can time out.
#[derive(Debug)]
struct FrameRx {
    frames: mpsc::Receiver<FrameResult>,
    reader: Option<JoinHandle<()>>,
}

impl FrameRx {
    fn spawn<R: Read + Send + 'static>(source: R) -> Self {
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || reader_loop(source, &tx));
        FrameRx {
            frames: rx,
            reader: Some(reader),
        }
    }

    fn recv(&self, deadline: Duration) -> FrameResult {
        match self.frames.recv_timeout(deadline) {
            Ok(item) => item,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
                millis: deadline.as_millis() as u64,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Read(
                "transport reader thread ended (peer gone)".into(),
            )),
        }
    }

    fn join(&mut self) {
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop<R: Read>(source: R, tx: &mpsc::Sender<FrameResult>) {
    let mut source = BufReader::new(source);
    loop {
        let item = match read_frame_from(&mut source) {
            Ok(StreamFrame::Frame(kind, payload)) => Ok((kind, payload)),
            Ok(StreamFrame::Eof) => Err(NetError::Read(
                "peer closed the channel (crashed, killed, or exited)".into(),
            )),
            Err(FrameReadError::Io(e)) => Err(NetError::Read(format!("read from peer: {e}"))),
            Err(FrameReadError::Decode(e)) => Err(NetError::Decode(format!("peer frame: {e}"))),
        };
        let done = item.is_err();
        if tx.send(item).is_err() || done {
            return;
        }
    }
}

// -------------------------------------------------------- local workers

/// The trailing stderr lines of a worker process, fed by a reader
/// thread. `seen` counts every line ever read and `closed` marks the
/// pipe's end, so [`Transport::diagnostics`] can wait for news.
#[derive(Debug, Default)]
struct StderrTail {
    state: Mutex<TailState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct TailState {
    lines: VecDeque<String>,
    seen: u64,
    closed: bool,
}

impl StderrTail {
    fn collect(&self, stderr: ChildStderr) {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            let mut tail = self.state();
            if tail.lines.len() == STDERR_TAIL_LINES {
                tail.lines.pop_front();
            }
            tail.lines.push_back(line);
            tail.seen += 1;
            self.changed.notify_all();
        }
        self.state().closed = true;
        self.changed.notify_all();
    }

    fn state(&self) -> MutexGuard<'_, TailState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The retained lines; with `after = Some(mark)`, first waits up to
    /// [`DIAGNOSTICS_WAIT`] until a line beyond `mark` arrives or the
    /// pipe closes (the worker exited).
    fn lines(&self, after: Option<u64>) -> Vec<String> {
        let mut tail = self.state();
        if let Some(mark) = after {
            tail = self
                .changed
                .wait_timeout_while(tail, DIAGNOSTICS_WAIT, |t| !t.closed && t.seen <= mark)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        tail.lines.iter().cloned().collect()
    }
}

/// A local `afd shard-worker --listen 127.0.0.1:0` child: launched from
/// a [`WorkerCommand`], its announced address read back under a
/// deadline, its stderr ring-buffered. Dropping it kills the child.
///
/// [`TcpTransport::spawn`] owns one and relaunches it when it exits;
/// tests and benches own one directly to get a listener to dial.
#[derive(Debug)]
pub struct WorkerProcess {
    cmd: WorkerCommand,
    child: Child,
    addr: SocketAddr,
    stderr: Arc<StderrTail>,
}

impl WorkerProcess {
    /// Launches the worker and waits for its `listening on ADDR` line.
    ///
    /// # Errors
    /// [`NetError::Spawn`] when the program cannot be started, or exits,
    /// prints anything else, or stays silent for 5 s (the child is then
    /// killed).
    pub fn launch(cmd: &WorkerCommand) -> Result<Self, NetError> {
        let program = cmd.program.display();
        let mut child = Command::new(&cmd.program)
            .args(["shard-worker", "--listen", "127.0.0.1:0"])
            .envs(cmd.envs.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| NetError::Spawn(format!("spawn {program}: {e}")))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let tail = Arc::new(StderrTail::default());
        let feed = Arc::clone(&tail);
        // Not joined: it ends when the pipe closes, which a child's own
        // children could hold open past the child's death.
        std::thread::spawn(move || feed.collect(stderr));
        match read_announcement(stdout) {
            Ok(addr) => Ok(WorkerProcess {
                cmd: cmd.clone(),
                child,
                addr,
                stderr: tail,
            }),
            Err(why) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(NetError::Spawn(format!("worker {program} {why}")))
            }
        }
    }

    /// The address the worker listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kills the worker outright — the fault every transport error path
    /// must survive.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Replaces the recipe a relaunch uses; the running worker is
    /// untouched.
    pub fn set_command(&mut self, cmd: WorkerCommand) {
        self.cmd = cmd;
    }

    /// Launches a fresh worker from the retained recipe unless the
    /// current one is still running.
    fn relaunch_if_exited(&mut self) -> Result<(), NetError> {
        if matches!(self.child.try_wait(), Ok(None)) {
            return Ok(());
        }
        *self = WorkerProcess::launch(&self.cmd)?;
        Ok(())
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reads a launched worker's first stdout line under
/// [`ANNOUNCE_DEADLINE`] and parses its address. The reader thread is
/// left to finish on its own: a silent child may never close the pipe.
fn read_announcement(stdout: ChildStdout) -> Result<SocketAddr, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout.take(512)).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(ANNOUNCE_DEADLINE).map_err(|_| {
        let millis = ANNOUNCE_DEADLINE.as_millis();
        format!("did not announce its address within {millis} ms")
    })?;
    if line.is_empty() {
        return Err("exited before announcing its address".into());
    }
    line.trim()
        .strip_prefix("listening on ")
        .and_then(|addr| addr.parse().ok())
        .ok_or_else(|| format!("announced {:?}, not `listening on ADDR`", line.trim()))
}

// ----------------------------------------------------------------- tcp

/// What one live TCP incarnation owns: the write half plus the reader
/// thread decoding frames off a clone of the stream.
#[derive(Debug)]
struct TcpIo {
    writer: TcpStream,
    rx: FrameRx,
}

impl TcpIo {
    fn open(addr: SocketAddr) -> Result<Self, NetError> {
        let writer =
            TcpStream::connect(addr).map_err(|e| NetError::Connect(format!("dial {addr}: {e}")))?;
        let _ = writer.set_nodelay(true);
        let read_half = writer
            .try_clone()
            .map_err(|e| NetError::Connect(format!("clone stream to {addr}: {e}")))?;
        Ok(TcpIo {
            writer,
            rx: FrameRx::spawn(read_half),
        })
    }
}

impl Drop for TcpIo {
    fn drop(&mut self) {
        // Unblock the reader thread so its join cannot hang.
        let _ = self.writer.shutdown(Shutdown::Both);
        self.rx.join();
    }
}

/// A framed channel over a TCP connection, optionally to a worker
/// process it launched itself.
///
/// [`Transport::reconnect`] first relaunches a spawned worker that has
/// exited, then redials with exponential backoff (8 attempts, ~0.8 s). What that recovers: a dropped connection,
/// a listener that is still (or again) accepting, a killed local
/// worker. What it cannot: a dialed listener that never comes back, or
/// a worker that will not relaunch — that surfaces as
/// [`NetError::Connect`]/[`NetError::Spawn`] and, through afd-stream's
/// retry budget, eventually poisons the session.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    io: Option<TcpIo>,
    /// The local worker behind `addr`, when this transport launched it.
    worker: Option<WorkerProcess>,
    /// The worker's stderr line count at the last `send`.
    mark: u64,
}

impl TcpTransport {
    /// Dials `addr` (an `IP:PORT` literal) once.
    ///
    /// # Errors
    /// [`NetError::Connect`] on a malformed address or a failed dial.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let addr = parse_listen_addr(addr)?;
        Ok(TcpTransport {
            addr,
            io: Some(TcpIo::open(addr)?),
            worker: None,
            mark: 0,
        })
    }

    /// Launches a local worker ([`WorkerProcess::launch`]) and dials it.
    /// The transport owns the child: its stderr tail rides on
    /// [`Transport::diagnostics`], and dropping the transport kills it.
    ///
    /// # Errors
    /// [`NetError::Spawn`] when the worker does not come up;
    /// [`NetError::Connect`] when its address cannot be dialed.
    pub fn spawn(cmd: &WorkerCommand) -> Result<Self, NetError> {
        let worker = WorkerProcess::launch(cmd)?;
        Ok(TcpTransport {
            addr: worker.addr(),
            io: Some(TcpIo::open(worker.addr())?),
            worker: Some(worker),
            mark: 0,
        })
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The worker this transport launched, if it did.
    pub fn worker_mut(&mut self) -> Option<&mut WorkerProcess> {
        self.worker.as_mut()
    }

    /// Drops the connection without redialing — the test hook that
    /// simulates losing a remote worker (the peer sees EOF and its
    /// session state is gone; the next request errors and recovery
    /// redials).
    pub fn sever(&mut self) {
        self.io = None;
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if let Some(worker) = &self.worker {
            self.mark = worker.stderr.state().seen;
        }
        match self.io.as_mut() {
            None => Err(NetError::Write(format!("not connected to {}", self.addr))),
            Some(io) => io
                .writer
                .write_all(frame)
                .and_then(|()| io.writer.flush())
                .map_err(|e| NetError::Write(format!("write to {}: {e}", self.addr))),
        }
    }

    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        match self.io.as_ref() {
            None => Err(NetError::Read(format!("not connected to {}", self.addr))),
            Some(io) => io.rx.recv(deadline),
        }
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.io = None;
        if let Some(worker) = &mut self.worker {
            worker.relaunch_if_exited()?;
            self.addr = worker.addr();
        }
        let mut backoff = INITIAL_BACKOFF;
        let mut last = String::new();
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            match TcpIo::open(self.addr) {
                Ok(io) => {
                    self.io = Some(io);
                    return Ok(());
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(NetError::Connect(format!(
            "reconnect to {}: {RECONNECT_ATTEMPTS} attempt(s) failed, last: {last}",
            self.addr
        )))
    }

    fn supports_reconnect(&self) -> bool {
        true
    }

    /// A spawned worker's stderr tail. When the peer likely died, waits
    /// up to 250 ms until the worker exits or writes a line after the
    /// last `send` (a listener outlives the session it ended, but
    /// announces the failure on stderr before closing the socket).
    fn diagnostics(&mut self, likely_dead: bool) -> Vec<String> {
        match &self.worker {
            Some(worker) => worker.stderr.lines(likely_dead.then_some(self.mark)),
            None => Vec::new(),
        }
    }

    fn finish(&mut self, _deadline: Duration) -> Result<(), NetError> {
        self.io = None;
        if let Some(worker) = &mut self.worker {
            // A listener serves until killed; its session just ended.
            worker.kill();
        }
        Ok(())
    }

    fn peer(&self) -> String {
        self.addr.to_string()
    }
}

// ----------------------------------------------------------- addresses

/// Parses a listen address (`IP:PORT` literal; port 0 binds an
/// ephemeral port).
///
/// # Errors
/// [`NetError::Connect`] when the literal does not parse.
pub fn parse_listen_addr(s: &str) -> Result<SocketAddr, NetError> {
    s.parse::<SocketAddr>()
        .map_err(|e| NetError::Connect(format!("bad socket address {s:?}: {e}")))
}

/// Parses a connect address: like [`parse_listen_addr`] but port 0 is
/// rejected — nothing can be dialed on the ephemeral wildcard.
///
/// # Errors
/// [`NetError::Connect`] for a malformed literal or a zero port.
pub fn parse_connect_addr(s: &str) -> Result<SocketAddr, NetError> {
    let addr = parse_listen_addr(s)?;
    if addr.port() == 0 {
        return Err(NetError::Connect(format!(
            "bad socket address {s:?}: port 0 is bind-only (the listener prints its real port)"
        )));
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_wire::write_frame_to;
    use std::net::TcpListener;

    fn echo_listener() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve up to two connections so reconnect tests pass.
            for _ in 0..2 {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(StreamFrame::Frame(kind, payload)) = read_frame_from(&mut reader) {
                    if write_frame_to(&mut writer, kind.wrapping_add(1), &payload).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        afd_wire::write_frame(kind, payload, &mut out).unwrap();
        out
    }

    #[test]
    fn tcp_round_trip_and_reconnect() {
        let (addr, handle) = echo_listener();
        let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
        assert!(t.supports_reconnect());
        t.send(&framed(7, b"hello")).unwrap();
        let (kind, payload) = t.recv(Duration::from_secs(5)).unwrap();
        assert_eq!((kind, payload.as_slice()), (8, b"hello".as_slice()));

        // Severing simulates a lost worker: requests fail typed, and
        // reconnect dials a fresh connection to the same listener.
        t.sever();
        assert!(matches!(t.send(&framed(7, b"x")), Err(NetError::Write(_))));
        t.reconnect().unwrap();
        t.send(&framed(9, b"again")).unwrap();
        let (kind, _) = t.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(kind, 10);
        t.finish(Duration::from_millis(100)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn tcp_recv_deadline_is_typed() {
        // A listener that accepts but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
        match t.recv(Duration::from_millis(50)) {
            Err(NetError::Timeout { millis: 50 }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        drop(t);
        let _ = hold.join();
    }

    #[test]
    fn tcp_connect_failure_is_typed() {
        // Bind-then-drop yields a port with (very likely) no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match TcpTransport::connect(&addr.to_string()) {
            Err(NetError::Connect(_)) => {}
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn reconnect_backoff_gives_up_with_attempt_count() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (live, handle) = echo_listener();
        let mut t = TcpTransport::connect(&live.to_string()).unwrap();
        t.addr = addr; // Redirect reconnects at the dead port.
        match t.reconnect() {
            Err(NetError::Connect(msg)) => assert!(msg.contains("8 attempt(s)"), "{msg}"),
            other => panic!("expected connect error, got {other:?}"),
        }
        drop(t);
        // The echo thread serves two connections and this test opened
        // only one — poke the second accept so join cannot hang.
        drop(std::net::TcpStream::connect(live));
        let _ = handle.join();
    }

    #[test]
    fn address_parsing_is_typed() {
        assert!(parse_listen_addr("127.0.0.1:0").is_ok());
        assert!(parse_listen_addr("not-an-address").is_err());
        assert!(parse_listen_addr("127.0.0.1").is_err());
        assert!(parse_connect_addr("127.0.0.1:4100").is_ok());
        match parse_connect_addr("127.0.0.1:0") {
            Err(NetError::Connect(msg)) => assert!(msg.contains("port 0"), "{msg}"),
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn spawn_failure_is_typed() {
        // No such program; one that exits silently; one whose first
        // line is not the announcement (`echo` prints its arguments).
        for program in ["/definitely/not/a/binary", "true", "echo"] {
            match TcpTransport::spawn(&WorkerCommand::new(program)) {
                Err(NetError::Spawn(_)) => {}
                other => panic!("{program}: expected spawn error, got {other:?}"),
            }
        }
    }

    #[test]
    fn stderr_tail_wait_is_bounded_and_ends_when_the_pipe_closes() {
        let tail = StderrTail::default();
        let start = std::time::Instant::now();
        assert!(tail.lines(Some(0)).is_empty());
        assert!(start.elapsed() >= DIAGNOSTICS_WAIT);
        tail.state().closed = true;
        let start = std::time::Instant::now();
        assert!(tail.lines(Some(0)).is_empty());
        assert!(start.elapsed() < DIAGNOSTICS_WAIT);
    }
}
