//! `afd-net` — socket transports for the afd-wire framing.
//!
//! Everything this workspace says across a process boundary is one
//! byte format: the checksummed `afd-wire` frame (`AFDW` magic,
//! version, kind byte, length, FNV-1a checksum). This crate carries
//! those frames over real channels and knows nothing about what they
//! mean — it depends only on `afd-wire`, so both `afd-stream` (shard
//! workers) and `afd-serve` (the socket front door) can build their
//! protocols on it without a dependency cycle.
//!
//! # Architecture: the socket topology
//!
//! ```text
//!  coordinator (ShardedSession)                 clients (afd connect)
//!    RemoteShard<TcpTransport> ─── TCP ────▸ afd shard-worker --listen
//!      spawned: owns the child,                 (thread per connection,
//!        reads its port, tails stderr           one session each)
//!      dialed: any listener's address
//!    AfdServe front door (afd serve --listen) ◂── TCP ── afd_net::Client
//! ```
//!
//! * [`Transport`] — a bidirectional framed channel: `send` one framed
//!   message, `recv` the next `(kind, payload)` under a deadline.
//!   Frames are read on a dedicated thread per transport, so a silent
//!   peer is a typed [`NetError::Timeout`], never a blocked caller.
//! * [`TcpTransport`] — a TCP connection, either dialed to a known
//!   address or to a local worker it launched itself
//!   ([`TcpTransport::spawn`]). `reconnect` relaunches such a worker if
//!   it exited, then redials with exponential backoff — the one
//!   recovery path for a killed child and a dropped connection alike.
//! * [`WorkerProcess`] — a local `afd shard-worker --listen 127.0.0.1:0`
//!   child launched from a [`WorkerCommand`]: its `listening on ADDR`
//!   line is read under a deadline and its stderr tail rides along on
//!   diagnostics.
//! * [`Client`] — a blocking request/response client over TCP with a
//!   deadline on every request (what `afd connect` and the serve front
//!   door's typed client are built on).
//!
//! # Fault model over TCP
//!
//! A lost connection and a killed local worker are recovered the same
//! way: afd-stream's supervisor sees the typed transport error, calls
//! `reconnect` (relaunch if the worker exited, redial with backoff),
//! and restores the fresh worker session from its checkpoint + delta
//! log — bit-identical, because every maintained aggregate is an
//! integer. What reconnect *cannot* recover — an address nobody listens
//! on within the backoff schedule, a worker that will not relaunch, or
//! a retry budget exhausted by a flapping link — poisons the session.
//! Authentication and tenancy are a protocol concern (the serve front
//! door checks its shared token at registration); this crate moves
//! frames for anyone. TLS is a recorded follow-up — today the
//! transports assume a trusted network.

pub mod client;
pub mod command;
pub mod error;
pub mod transport;

pub use client::{Client, DEFAULT_CLIENT_DEADLINE};
pub use command::WorkerCommand;
pub use error::NetError;
pub use transport::{
    parse_connect_addr, parse_listen_addr, TcpTransport, Transport, WorkerProcess,
};
