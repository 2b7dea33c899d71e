//! Pluggable shard backends: where a [`crate::ShardedSession`]'s shards
//! actually live.
//!
//! The coordinator ([`crate::ShardedSession`]) only ever talks to shards
//! through [`ShardBackend`] — subscribe, apply a routed delta slice,
//! read the candidate's [`IncTable`] merge input and Y side keys, take a
//! snapshot, compact. Two topologies exist:
//!
//! * [`InProcShard`] — a [`StreamSession`] in the coordinator's address
//!   space (the original topology; zero overhead).
//! * [`RemoteShard`] — a worker session on the far side of an `afd-net`
//!   [`Transport`], speaking the checksummed `afd-wire` protocol.
//!   [`TcpShard`] (= `RemoteShard<TcpTransport>`) is an
//!   `afd shard-worker --listen` session over a **TCP connection**:
//!   either a local worker process the shard launched itself
//!   ([`TcpShard::spawn`]) or a listener dialed by address, possibly on
//!   another machine ([`TcpShard::connect`]). The coordinator keeps a
//!   mirror of the worker's per-candidate [`IncTable`]s and Y keys;
//!   after every mutating request the worker ships a [`StatePatch`] of
//!   just the groups and columns the request touched, which the
//!   coordinator applies and checks against the worker's scalar
//!   aggregates, then merges via [`IncTable::merge`] — **bit-identical**
//!   to the in-process path (every carried value is an integer), at
//!   O(delta) per apply rather than O(state).
//!
//! Mixed topologies go through `Box<dyn ShardBackend>`, which is itself
//! a [`ShardBackend`]; that is what `AfdEngine` holds.
//!
//! # Fault model and the recovery lifecycle
//!
//! A dead, hung, or corrupted worker never panics or blocks the
//! coordinator:
//!
//! * Every [`RemoteShard`] request carries a **deadline**: responses
//!   are read by a dedicated reader thread inside the transport, so a
//!   worker that stops answering surfaces as a typed
//!   [`TransportError`] ([`TransportErrorKind::Timeout`]) instead of a
//!   coordinator stuck in `read(2)` forever.
//! * A spawned worker's **stderr is captured** (piped, ring-buffered);
//!   its last lines ride along on every [`TransportError`], so a worker
//!   panic or injected fault is diagnosable from the coordinator's error.
//! * Backends that report [`ShardBackend::supports_recovery`] can be
//!   [`respawn`](ShardBackend::respawn)ed: the supervisor in
//!   [`crate::ShardedSession`] tears the incarnation down, brings up a
//!   fresh one (relaunch the worker if it exited, then **redial with
//!   backoff**), restores the shard's last checkpoint, replays the
//!   post-checkpoint delta log, and retries the in-flight request — see
//!   [`crate::RecoveryConfig`] for the cadence/budget knobs.
//! * Poisoning still happens, but only as the *last* resort: when the
//!   retry budget is exhausted (the listener never came back, the worker
//!   will not relaunch), when a backend cannot be respawned, or when a
//!   non-transport invariant breaks mid-fan-out. A poisoned session
//!   keeps serving its last consistent reads and refuses mutation with
//!   [`StreamError::Poisoned`].

use std::time::Duration;

use afd_net::{NetError, TcpTransport, Transport};
use afd_relation::{Fd, Relation, Schema, Value};
use afd_wire::encode_framed;

use crate::delta::{RowDelta, StreamError, TransportError, TransportErrorKind};
use crate::fault::AFD_WORKER_FAULTS_ENV;
use crate::session::{CompactionReport, StreamSession};
use crate::table::IncTable;
use crate::wire::{StatePatch, WorkerRequestRef, WorkerResponse, KIND_REQUEST, KIND_RESPONSE};

pub use afd_net::WorkerCommand;

/// Default per-request deadline for remote shards; override via
/// [`ShardBackend::configure`] (the engine plumbs
/// [`crate::RecoveryConfig::request_timeout_ms`] through).
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_millis(30_000);

/// One shard of a [`crate::ShardedSession`], wherever it lives.
///
/// The coordinator routes deltas and owns the cross-shard Y-id space;
/// the backend owns one shard's rows and per-candidate state. Contract:
/// after any `Ok` from a mutating call, [`ShardBackend::table`],
/// [`ShardBackend::n_y_side_ids`] and [`ShardBackend::y_side_values`]
/// reflect the post-call state.
pub trait ShardBackend: Send {
    /// Subscribes a candidate FD (validated by the coordinator first).
    ///
    /// # Errors
    /// [`StreamError`] — for [`RemoteShard`], transport failures too.
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError>;

    /// Applies one router-validated delta slice.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the worker died or sent garbage
    /// (in-process shards cannot fail here — the router validated).
    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError>;

    /// The candidate's current [`IncTable`] — the merge input.
    fn table(&self, cid: usize) -> &IncTable;

    /// Live rows in this shard.
    fn n_live(&self) -> usize;

    /// Y side ids assigned for candidate `cid` (dense, `0..n`).
    fn n_y_side_ids(&self, cid: usize) -> usize;

    /// The value-level Y key of side id `id` for candidate `cid`.
    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value>;

    /// The shard's live rows as a compact relation, local arrival order.
    ///
    /// # Errors
    /// [`StreamError::Transport`] for a remote shard whose channel failed.
    fn snapshot(&mut self) -> Result<Relation, StreamError>;

    /// Compacts with batch-kernel verification.
    ///
    /// # Errors
    /// [`StreamError::Diverged`] / [`StreamError::Transport`].
    fn compact(&mut self) -> Result<CompactionReport, StreamError>;

    /// Coordinator-assigned identity and request deadline. Remote
    /// backends use both (error attribution and the recv timeout);
    /// in-process shards ignore the call.
    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        let _ = (shard_index, deadline);
    }

    /// True when the supervisor may tear this backend down and rebuild
    /// it (a fresh, *empty* incarnation restored via checkpoint +
    /// replay). Defaults to `false`: failures poison the session as
    /// before.
    fn supports_recovery(&self) -> bool {
        false
    }

    /// Replaces the backend with a fresh, empty incarnation (for
    /// [`TcpShard`]: relaunch a spawned worker that exited, redial with
    /// backoff, and re-init the session). The caller owns restoring the
    /// shard's state afterwards.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when respawning is unsupported or the
    /// new incarnation cannot be brought up.
    fn respawn(&mut self) -> Result<(), StreamError> {
        Err(StreamError::Transport(TransportError::spawn(
            "backend does not support respawn".to_string(),
        )))
    }

    /// Asks the backend to exit cleanly within the request deadline.
    /// In-process shards have nothing to do; remote shards send a
    /// `Shutdown` request and wind the channel down.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the worker did not acknowledge
    /// in time (a spawned worker is still killed on drop).
    fn shutdown(&mut self) -> Result<(), StreamError> {
        Ok(())
    }
}

// ------------------------------------------------------------ in-process

/// The original topology: one [`StreamSession`] per shard, in the
/// coordinator's address space.
#[derive(Debug, Clone)]
pub struct InProcShard(StreamSession);

impl InProcShard {
    /// An empty in-process shard over `schema`.
    pub fn new(schema: Schema) -> Self {
        InProcShard(StreamSession::new(schema))
    }

    /// The wrapped session (tests and benches inspect it).
    pub fn session(&self) -> &StreamSession {
        &self.0
    }
}

impl ShardBackend for InProcShard {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        self.0.subscribe(fd.clone())
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.0.apply(delta).map(|_| ())
    }

    fn table(&self, cid: usize) -> &IncTable {
        self.0.table(cid)
    }

    fn n_live(&self) -> usize {
        self.0.relation().n_live()
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.0.n_y_side_ids(cid)
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.0.y_side_values(cid, id)
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        Ok(self.0.relation().snapshot())
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        self.0.compact()
    }
}

// --------------------------------------------------------------- remote

/// Maps a channel-level `afd-net` error into this crate's wire-codable
/// transport error kind. A failed (re)connect is classified as a spawn
/// failure: to the supervisor, "nobody listens there" and "the program
/// would not start" are the same unrecoverable-incarnation signal.
fn net_kind(e: NetError) -> TransportErrorKind {
    match e {
        NetError::Spawn(m) => TransportErrorKind::Spawn(m),
        NetError::Connect(m) => TransportErrorKind::Spawn(m),
        NetError::Write(m) => TransportErrorKind::Write(m),
        NetError::Read(m) => TransportErrorKind::Read(m),
        NetError::Timeout { millis } => TransportErrorKind::Timeout { millis },
        NetError::Decode(m) => TransportErrorKind::Decode(m),
    }
}

/// A shard session on the far side of an `afd-net` [`Transport`],
/// driven with checksummed wire frames.
///
/// The protocol is strict request/response, but responses arrive via
/// the transport's reader thread so every request carries a deadline
/// ([`ShardBackend::configure`]); a hung worker surfaces as
/// [`TransportErrorKind::Timeout`] instead of blocking the coordinator.
/// The shard keeps a **mirror** of the worker's per-candidate
/// [`IncTable`]s and Y side keys, and every mutating response carries a
/// [`StatePatch`] against it: the touched X groups and column totals,
/// the Y keys assigned since the last reply, the live row count, a
/// generation number and the worker's scalar aggregates. The coordinator
/// reads [`ShardBackend::table`] &co from the mirror, so score merges
/// never block on the worker between deltas. A patch that does not fit
/// the mirror (a generation gap, an out-of-range id, derived scalars
/// that differ from the worker's) is a [`TransportErrorKind::Decode`]
/// failure: the supervisor respawns the worker and restores it, which
/// resyncs the mirror from empty. The transport retains its recipe
/// (worker command, socket address), so the supervisor can
/// [`respawn`](ShardBackend::respawn) a failed incarnation.
#[derive(Debug)]
pub struct RemoteShard<T: Transport> {
    transport: T,
    schema: Schema,
    shard_index: Option<u32>,
    deadline: Duration,
    /// Live rows in the shard, per the last patch.
    n_live: u64,
    /// Generation of the last applied patch; `None` once a patch was
    /// refused, until a respawn starts a fresh incarnation.
    generation: Option<u64>,
    /// Per candidate, subscription order.
    mirrors: Vec<Mirror>,
}

/// The coordinator's copy of one candidate's worker-side state.
#[derive(Debug, Default)]
struct Mirror {
    table: IncTable,
    /// Y side keys in side-id order (dense, `0..n`).
    y_keys: Vec<Vec<Value>>,
}

/// A shard served by an `afd shard-worker --listen` process over TCP.
pub type TcpShard = RemoteShard<TcpTransport>;

impl<T: Transport> RemoteShard<T> {
    /// Wraps an established transport and initialises the worker's
    /// session over `schema` (the Init handshake).
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the handshake fails or times out.
    pub fn from_transport(transport: T, schema: &Schema) -> Result<Self, StreamError> {
        let mut shard = RemoteShard {
            transport,
            schema: schema.clone(),
            shard_index: None,
            deadline: DEFAULT_REQUEST_TIMEOUT,
            n_live: 0,
            generation: Some(0),
            mirrors: Vec::new(),
        };
        match shard.request(&WorkerRequestRef::Init(schema))? {
            WorkerResponse::Ok => Ok(shard),
            other => Err(shard.unexpected("Init", &other)),
        }
    }

    /// Builds the typed transport error for a failed protocol step:
    /// shard attribution plus the transport's diagnostics (a spawned
    /// worker's stderr tail). A worker whose output fails verification
    /// is as lost as one whose connection broke, and announces either on
    /// stderr before closing the socket, so the diagnostics wait for
    /// that line in both cases: it is then always in the tail.
    fn fail(&mut self, kind: TransportErrorKind) -> StreamError {
        let worker_died = matches!(
            kind,
            TransportErrorKind::Read(_)
                | TransportErrorKind::Write(_)
                | TransportErrorKind::Decode(_)
        );
        let stderr = self.transport.diagnostics(worker_died);
        let mut err = TransportError::of_kind(kind).with_stderr(stderr);
        err.shard = self.shard_index;
        StreamError::Transport(err)
    }

    fn fail_net(&mut self, e: NetError) -> StreamError {
        self.fail(net_kind(e))
    }

    fn unexpected(&mut self, req: &str, resp: &WorkerResponse) -> StreamError {
        match resp {
            WorkerResponse::Err(e) => e.clone(),
            other => self.fail(TransportErrorKind::Decode(format!(
                "unexpected worker response to {req}: {other:?}"
            ))),
        }
    }

    fn request(&mut self, req: &WorkerRequestRef<'_>) -> Result<WorkerResponse, StreamError> {
        let frame = match encode_framed(KIND_REQUEST, req) {
            Ok(frame) => frame,
            Err(e) => {
                return Err(self.fail(TransportErrorKind::Decode(format!("request encode: {e}"))))
            }
        };
        if let Err(e) = self.transport.send(&frame) {
            return Err(self.fail_net(e));
        }
        match self.transport.recv(self.deadline) {
            Ok((KIND_RESPONSE, payload)) => {
                use afd_wire::Decode;
                WorkerResponse::decode_exact(&payload).map_err(|e| {
                    self.fail(TransportErrorKind::Decode(format!("response decode: {e}")))
                })
            }
            Ok((kind, _)) => Err(self.fail(TransportErrorKind::Decode(format!(
                "worker sent unexpected frame kind {kind}"
            )))),
            Err(e) => Err(self.fail_net(e)),
        }
    }

    /// Applies a worker's patch to the mirrors, expecting `expected`
    /// candidates afterwards. A candidate is resynced exactly when it is
    /// new or its side ids were `renumbered` (compaction): a resync
    /// anywhere else would leave the coordinator's Y remaps stale.
    ///
    /// Any patch that does not fit is refused as a typed decode failure
    /// — the coordinator indexes into the mirrors, and this module's
    /// fault model says a corrupted worker must surface as a typed
    /// error, never a coordinator panic. A refused patch may have
    /// half-applied, so every later patch is refused too until a
    /// respawn resyncs the mirrors.
    fn accept_patch(
        &mut self,
        patch: StatePatch,
        expected: usize,
        renumbered: bool,
    ) -> Result<(), StreamError> {
        match self.try_patch(patch, expected, renumbered) {
            Ok(()) => Ok(()),
            Err(msg) => {
                self.generation = None;
                Err(self.fail(TransportErrorKind::Decode(format!("state patch: {msg}"))))
            }
        }
    }

    fn try_patch(
        &mut self,
        patch: StatePatch,
        expected: usize,
        renumbered: bool,
    ) -> Result<(), String> {
        let Some(generation) = self.generation else {
            return Err("mirror out of sync since an earlier refused patch".into());
        };
        if patch.generation != generation + 1 {
            return Err(format!(
                "generation gap: expected {}, got {}",
                generation + 1,
                patch.generation
            ));
        }
        if patch.candidates.len() != expected {
            return Err(format!(
                "carries {} candidate(s), coordinator tracks {expected}",
                patch.candidates.len()
            ));
        }
        if patch.n_live > u64::from(u32::MAX) {
            return Err(format!(
                "{} live rows exceed the row-id space",
                patch.n_live
            ));
        }
        let known = self.mirrors.len();
        self.mirrors.resize_with(expected, Mirror::default);
        for (cid, (cand, mirror)) in patch
            .candidates
            .into_iter()
            .zip(&mut self.mirrors)
            .enumerate()
        {
            if cand.reset != (renumbered || cid >= known) {
                return Err(format!(
                    "candidate {cid}: resync flag {} where {} expected",
                    cand.reset, !cand.reset
                ));
            }
            if cand.reset {
                *mirror = Mirror::default();
            }
            mirror.y_keys.extend(cand.y_keys);
            mirror
                .table
                .apply_patch(&cand.table, mirror.y_keys.len(), patch.n_live)
                .map_err(|e| format!("candidate {cid}: {e}"))?;
        }
        self.n_live = patch.n_live;
        self.generation = Some(patch.generation);
        Ok(())
    }
}

/// A failed dial or launch, before any shard exists to attribute it to.
fn spawn_err(e: NetError) -> StreamError {
    StreamError::Transport(TransportError::of_kind(net_kind(e)))
}

impl TcpShard {
    /// Launches one local `afd shard-worker --listen 127.0.0.1:0` from
    /// `cmd`, dials the address it announces and initialises a session
    /// over `schema`. The shard owns the worker: respawns relaunch it if
    /// it exited, and dropping the shard kills it.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the worker cannot be launched or
    /// never announces its address within the deadline
    /// ([`TransportErrorKind::Spawn`]), or fails the Init handshake.
    pub fn spawn(cmd: &WorkerCommand, schema: &Schema) -> Result<Self, StreamError> {
        let mut shard = Self::handshake(TcpTransport::spawn(cmd).map_err(spawn_err)?, schema)?;
        // Strip the fault-injection hook before any relaunch so an
        // injected fault fires at most once per plan, not once per
        // incarnation.
        let mut relaunch = cmd.clone();
        relaunch.remove_env(AFD_WORKER_FAULTS_ENV);
        shard.set_command(relaunch);
        Ok(shard)
    }

    /// Dials an `afd shard-worker --listen` address and initialises a
    /// worker session over `schema`.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the address is malformed, nobody
    /// accepts, or the Init handshake fails.
    pub fn connect(addr: &str, schema: &Schema) -> Result<Self, StreamError> {
        Self::handshake(TcpTransport::connect(addr).map_err(spawn_err)?, schema)
    }

    /// The Init handshake. A peer that closes or resets the connection
    /// before answering Init never came up as a worker, so that is a
    /// [`TransportErrorKind::Spawn`] failure like a refused dial, not a
    /// mid-session read or write fault.
    fn handshake(transport: TcpTransport, schema: &Schema) -> Result<Self, StreamError> {
        let peer = transport.peer();
        Self::from_transport(transport, schema).map_err(|e| match e {
            StreamError::Transport(mut te) => {
                if let TransportErrorKind::Read(m) | TransportErrorKind::Write(m) = &te.kind {
                    te.kind = TransportErrorKind::Spawn(format!("handshake with {peer}: {m}"));
                }
                StreamError::Transport(te)
            }
            other => other,
        })
    }

    /// Kills the spawned worker outright — the fault every transport
    /// error path must survive. A killed shard's next request returns
    /// [`StreamError::Transport`] (and a recovery-enabled session
    /// relaunches it). A dialed listener is not this shard's to kill:
    /// the call does nothing.
    pub fn kill(&mut self) {
        if let Some(worker) = self.transport.worker_mut() {
            worker.kill();
        }
    }

    /// Replaces the command relaunches of the spawned worker use. The
    /// running worker is untouched; fault tests point this at a broken
    /// program to make every recovery attempt fail and exhaust the
    /// retry budget.
    pub fn set_command(&mut self, cmd: WorkerCommand) {
        if let Some(worker) = self.transport.worker_mut() {
            worker.set_command(cmd);
        }
    }

    /// Drops the connection without redialing — the test hook that
    /// simulates losing a remote worker mid-stream.
    pub fn sever(&mut self) {
        self.transport.sever();
    }
}

impl<T: Transport> ShardBackend for RemoteShard<T> {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        let expected = self.mirrors.len() + 1;
        match self.request(&WorkerRequestRef::Subscribe(fd))? {
            WorkerResponse::Subscribed { cid, patch } => {
                self.accept_patch(patch, expected, false)?;
                Ok(cid as usize)
            }
            other => Err(self.unexpected("Subscribe", &other)),
        }
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        let expected = self.mirrors.len();
        match self.request(&WorkerRequestRef::Apply(delta))? {
            WorkerResponse::Applied(patch) => self.accept_patch(patch, expected, false),
            other => Err(self.unexpected("Apply", &other)),
        }
    }

    fn table(&self, cid: usize) -> &IncTable {
        &self.mirrors[cid].table
    }

    fn n_live(&self) -> usize {
        self.n_live as usize
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.mirrors[cid].y_keys.len()
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.mirrors[cid].y_keys[id as usize].clone()
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        match self.request(&WorkerRequestRef::Snapshot)? {
            WorkerResponse::Snapshot(rel) => Ok(rel),
            other => Err(self.unexpected("Snapshot", &other)),
        }
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        let expected = self.mirrors.len();
        match self.request(&WorkerRequestRef::Compact)? {
            WorkerResponse::Compacted { report, patch } => {
                self.accept_patch(patch, expected, true)?;
                Ok(report)
            }
            other => Err(self.unexpected("Compact", &other)),
        }
    }

    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        self.shard_index = Some(shard_index);
        self.deadline = deadline;
    }

    fn supports_recovery(&self) -> bool {
        self.transport.supports_reconnect()
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        if let Err(e) = self.transport.reconnect() {
            return Err(self.fail_net(e));
        }
        self.n_live = 0;
        self.generation = Some(0);
        self.mirrors.clear();
        let schema = self.schema.clone();
        match self.request(&WorkerRequestRef::Init(&schema))? {
            WorkerResponse::Ok => Ok(()),
            other => Err(self.unexpected("Init", &other)),
        }
    }

    fn shutdown(&mut self) -> Result<(), StreamError> {
        match self.request(&WorkerRequestRef::Shutdown) {
            Ok(WorkerResponse::Ok) => {}
            Ok(other) => {
                let e = self.unexpected("Shutdown", &other);
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        let deadline = self.deadline;
        if let Err(e) = self.transport.finish(deadline) {
            return Err(self.fail_net(e));
        }
        Ok(())
    }
}

impl<T: Transport> Drop for RemoteShard<T> {
    fn drop(&mut self) {
        // Best-effort graceful exit: ask, then let the transport's drop
        // close the channel (the worker sees EOF and ends its session;
        // a spawned worker is then killed and reaped).
        if let Ok(frame) = encode_framed(KIND_REQUEST, &WorkerRequestRef::Shutdown) {
            let _ = self.transport.send(&frame);
        }
    }
}

// ------------------------------------------------------------- dispatch

/// Runtime-selected backends: a boxed shard is a shard, so
/// `ShardedSession<Box<dyn ShardBackend>>` mixes topologies picked by
/// configuration (what `AfdEngine` holds).
impl<B: ShardBackend + ?Sized> ShardBackend for Box<B> {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        (**self).subscribe(fd)
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        (**self).apply(delta)
    }

    fn table(&self, cid: usize) -> &IncTable {
        (**self).table(cid)
    }

    fn n_live(&self) -> usize {
        (**self).n_live()
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        (**self).n_y_side_ids(cid)
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        (**self).y_side_values(cid, id)
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        (**self).snapshot()
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        (**self).compact()
    }

    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        (**self).configure(shard_index, deadline);
    }

    fn supports_recovery(&self) -> bool {
        (**self).supports_recovery()
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        (**self).respawn()
    }

    fn shutdown(&mut self) -> Result<(), StreamError> {
        (**self).shutdown()
    }
}

impl std::fmt::Debug for dyn ShardBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardBackend")
            .field("n_live", &self.n_live())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TablePatch;
    use crate::wire::CandidatePatch;
    use afd_relation::AttrId;

    #[test]
    fn in_proc_shard_round_trip() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut shard = InProcShard::new(schema);
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let cid = shard.subscribe(&fd).unwrap();
        shard
            .apply(&RowDelta::insert_only([
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(11)],
            ]))
            .unwrap();
        assert_eq!(shard.n_live(), 2);
        assert_eq!(shard.table(cid).n(), 2);
        assert_eq!(shard.n_y_side_ids(cid), 2);
        assert_eq!(shard.y_side_values(cid, 0), vec![Value::Int(10)]);
        let snap = shard.snapshot().unwrap();
        assert_eq!(snap.n_rows(), 2);
        let report = shard.compact().unwrap();
        assert_eq!(report.n_live, 2);
        // In-process shards neither recover nor need shutting down.
        assert!(!shard.supports_recovery());
        assert!(shard.respawn().is_err());
        assert!(shard.shutdown().is_ok());
    }

    #[test]
    fn spawn_failure_is_typed() {
        let cmd = WorkerCommand::new("/definitely/not/a/binary");
        let schema = Schema::new(["X", "Y"]).unwrap();
        match TcpShard::spawn(&cmd, &schema) {
            Err(StreamError::Transport(te)) => {
                assert!(matches!(te.kind, TransportErrorKind::Spawn(_)));
            }
            other => panic!("expected spawn transport error, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn worker_that_never_announces_fails_fast_as_spawn() {
        let dir = std::env::temp_dir().join(format!("afd-announce-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let schema = Schema::new(["X", "Y"]).unwrap();
        for (name, body) in [
            ("silent", "exec sleep 60"),
            ("wrong-line", "echo hello; exec sleep 60"),
            ("quits", "exit 3"),
        ] {
            let script = dir.join(name);
            // A child shell writes the script, so no descriptor of this
            // multi-threaded test process holds it open for writing when
            // it is executed (ETXTBSY).
            let made = std::process::Command::new("sh")
                .arg("-c")
                .arg(r#"printf '#!/bin/sh\n%s\n' "$1" > "$2" && chmod +x "$2""#)
                .args(["sh", body, script.to_str().unwrap()])
                .status()
                .unwrap();
            assert!(made.success());
            let start = std::time::Instant::now();
            match TcpShard::spawn(&WorkerCommand::new(&script), &schema) {
                Err(StreamError::Transport(te)) => {
                    assert!(matches!(te.kind, TransportErrorKind::Spawn(_)), "{te:?}");
                }
                other => panic!("{name}: expected a spawn error, got {other:?}"),
            }
            // The 5 s announcement deadline, not the script's 60 s sleep.
            assert!(start.elapsed() < Duration::from_secs(20), "{name} hung");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_connect_failure_is_typed_spawn() {
        // The listener stays bound for the whole test, so no concurrent
        // test can take its port. Its one connection is accepted and
        // dropped unanswered: a peer that goes away before the Init
        // handshake completes is a spawn-stage failure.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || drop(listener.accept()));
        let schema = Schema::new(["X", "Y"]).unwrap();
        match TcpShard::connect(&addr.to_string(), &schema) {
            Err(StreamError::Transport(te)) => {
                assert!(matches!(te.kind, TransportErrorKind::Spawn(_)), "{te:?}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
        peer.join().unwrap();
    }

    /// A transport that answers every request from a script of replies.
    #[derive(Debug)]
    struct Scripted(std::collections::VecDeque<WorkerResponse>);

    impl Transport for Scripted {
        fn send(&mut self, _frame: &[u8]) -> Result<(), NetError> {
            Ok(())
        }

        fn recv(&mut self, _deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
            use afd_wire::Encode;
            match self.0.pop_front() {
                Some(resp) => Ok((KIND_RESPONSE, resp.encode_to_vec())),
                None => Err(NetError::Read("script exhausted".into())),
            }
        }

        fn reconnect(&mut self) -> Result<(), NetError> {
            Err(NetError::Spawn(
                "scripted transports do not reconnect".into(),
            ))
        }

        fn finish(&mut self, _deadline: Duration) -> Result<(), NetError> {
            Ok(())
        }

        fn peer(&self) -> String {
            "script".into()
        }
    }

    /// The worker-side table every scripted shard subscribes with:
    /// X=0 {y0 ×3}, X=1 {y0 ×1, y1 ×1}.
    fn base_table() -> IncTable {
        let mut t = IncTable::new();
        for (x, y) in [(0, 0), (0, 0), (0, 0), (1, 0), (1, 1)] {
            t.insert(x, y);
        }
        t
    }

    fn state_patch(generation: u64, reset: bool, y_keys: usize, table: TablePatch) -> StatePatch {
        StatePatch {
            generation,
            n_live: 5,
            candidates: vec![CandidatePatch {
                reset,
                y_keys: (0..y_keys as i64).map(|v| vec![Value::Int(v)]).collect(),
                table,
            }],
        }
    }

    /// Subscribes a scripted shard to [`base_table`], then applies a
    /// delta whose reply carries each of `patches` in turn.
    fn apply_patches(patches: Vec<StatePatch>) -> Vec<Result<(), StreamError>> {
        let mut script = std::collections::VecDeque::from([
            WorkerResponse::Ok,
            WorkerResponse::Subscribed {
                cid: 0,
                patch: state_patch(1, true, 2, base_table().full_patch()),
            },
        ]);
        let n = patches.len();
        script.extend(patches.into_iter().map(WorkerResponse::Applied));
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut shard = RemoteShard::from_transport(Scripted(script), &schema).unwrap();
        shard.subscribe(&Fd::linear(AttrId(0), AttrId(1))).unwrap();
        assert_eq!(shard.table(0), &base_table());
        (0..n)
            .map(|_| shard.apply(&RowDelta::delete_only([0])))
            .collect()
    }

    fn assert_decode(result: &Result<(), StreamError>, needle: &str) {
        match result {
            Err(StreamError::Transport(te)) => match &te.kind {
                TransportErrorKind::Decode(msg) => {
                    assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
                }
                other => panic!("expected a Decode error, got {other:?}"),
            },
            other => panic!("expected a Decode error, got {other:?}"),
        }
    }

    fn patch_of(groups: Vec<(u32, Vec<(u32, u64)>)>, cols: Vec<(u32, u64)>) -> TablePatch {
        TablePatch {
            groups,
            cols,
            check: base_table().check_scalars(),
        }
    }

    #[test]
    fn honest_patch_applies_to_the_mirror() {
        let mut worker = base_table();
        worker.delete(1, 1);
        let patch = state_patch(2, false, 0, worker.patch(&[1], &[1]));
        assert!(apply_patches(vec![patch])[0].is_ok());
    }

    #[test]
    fn patch_removing_an_unknown_x_group_is_decode() {
        let results = apply_patches(vec![
            state_patch(2, false, 0, patch_of(vec![(7, vec![])], vec![])),
            // The mirror stays refused until a respawn resyncs it.
            state_patch(3, false, 0, patch_of(vec![], vec![])),
        ]);
        assert_decode(&results[0], "removes unknown X group 7");
        assert_decode(&results[1], "out of sync");
    }

    #[test]
    fn patch_with_a_count_underflow_is_decode() {
        // Column 0 drops from 4 to 1 while its cells still hold 4.
        let patch = patch_of(vec![], vec![(0, 1)]);
        assert_decode(
            &apply_patches(vec![state_patch(2, false, 0, patch)])[0],
            "under- or overflows",
        );
    }

    #[test]
    fn patch_with_a_y_id_beyond_the_keys_is_decode() {
        let patch = patch_of(vec![(0, vec![(2, 3)])], vec![]);
        assert_decode(
            &apply_patches(vec![state_patch(2, false, 0, patch)])[0],
            "Y id 2 beyond the 2 Y key(s)",
        );
    }

    #[test]
    fn resync_outside_subscribe_or_compaction_is_decode() {
        let patch = state_patch(2, true, 2, base_table().full_patch());
        assert_decode(&apply_patches(vec![patch])[0], "resync flag true");
    }

    #[test]
    fn patch_after_a_generation_gap_is_decode() {
        let patch = patch_of(vec![], vec![]);
        assert_decode(
            &apply_patches(vec![state_patch(3, false, 0, patch)])[0],
            "generation gap: expected 2, got 3",
        );
    }

    #[test]
    fn patch_with_mismatched_scalars_is_decode() {
        let mut patch = patch_of(vec![], vec![]);
        patch.check[0] += 1;
        assert_decode(
            &apply_patches(vec![state_patch(2, false, 0, patch)])[0],
            "scalar check failed",
        );
    }
}
