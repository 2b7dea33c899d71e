//! Timing decorators over the public `ShardBackend` and `Transport`
//! traits: the traced run wraps every shard (and every TCP transport)
//! in these, so layer times are taken from outside the program.

use afd_net::{NetError, Transport};
use afd_relation::{Fd, Relation, Value};
use afd_stream::{CompactionReport, IncTable, RowDelta, ShardBackend, StreamError};
use afd_wire::FRAME_OVERHEAD;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One shard apply as seen from outside: its wall time, and the
/// transport time and frame bytes it spent (zero for in-process shards).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApplySpan {
    pub total: Duration,
    pub send: Duration,
    pub recv: Duration,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

/// What the decorators of one shard recorded.
#[derive(Default)]
pub struct ShardProbe {
    /// Transport time and bytes since the current apply started.
    open: ApplySpan,
    pub applies: Vec<ApplySpan>,
    /// `ShardBackend::snapshot` calls — the supervisor's checkpoints.
    pub snapshots: Vec<Duration>,
}

pub type Probe = Arc<Mutex<ShardProbe>>;

pub fn lock(probe: &Probe) -> MutexGuard<'_, ShardProbe> {
    probe.lock().expect("a probe holder panicked")
}

/// A `ShardBackend` that records apply and snapshot spans.
pub struct TimedShard<B> {
    inner: B,
    probe: Probe,
}

impl<B: ShardBackend> TimedShard<B> {
    pub fn new(inner: B, probe: Probe) -> Self {
        TimedShard { inner, probe }
    }
}

impl<B: ShardBackend> ShardBackend for TimedShard<B> {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        self.inner.subscribe(fd)
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        lock(&self.probe).open = ApplySpan::default();
        let start = Instant::now();
        let result = self.inner.apply(delta);
        let total = start.elapsed();
        let mut probe = lock(&self.probe);
        let span = ApplySpan {
            total,
            ..probe.open
        };
        probe.applies.push(span);
        result
    }

    fn table(&self, cid: usize) -> &IncTable {
        self.inner.table(cid)
    }

    fn n_live(&self) -> usize {
        self.inner.n_live()
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.inner.n_y_side_ids(cid)
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.inner.y_side_values(cid, id)
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        let start = Instant::now();
        let result = self.inner.snapshot();
        lock(&self.probe).snapshots.push(start.elapsed());
        result
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        self.inner.compact()
    }

    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        self.inner.configure(shard_index, deadline);
    }

    fn supports_recovery(&self) -> bool {
        self.inner.supports_recovery()
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        self.inner.respawn()
    }

    fn shutdown(&mut self) -> Result<(), StreamError> {
        self.inner.shutdown()
    }
}

/// A `Transport` that adds its send/recv time and whole-frame bytes to
/// the open apply span of its shard's probe.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    probe: Probe,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, probe: Probe) -> Self {
        TimedTransport { inner, probe }
    }
}

impl std::fmt::Debug for ShardProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardProbe({} applies)", self.applies.len())
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let start = Instant::now();
        let result = self.inner.send(frame);
        let mut probe = lock(&self.probe);
        probe.open.send += start.elapsed();
        probe.open.bytes_out += frame.len() as u64;
        result
    }

    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        let start = Instant::now();
        let result = self.inner.recv(deadline);
        let mut probe = lock(&self.probe);
        probe.open.recv += start.elapsed();
        if let Ok((_, payload)) = &result {
            probe.open.bytes_in += (payload.len() + FRAME_OVERHEAD) as u64;
        }
        result
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.inner.reconnect()
    }

    fn supports_reconnect(&self) -> bool {
        self.inner.supports_reconnect()
    }

    fn diagnostics(&mut self, likely_dead: bool) -> Vec<String> {
        self.inner.diagnostics(likely_dead)
    }

    fn finish(&mut self, deadline: Duration) -> Result<(), NetError> {
        self.inner.finish(deadline)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
