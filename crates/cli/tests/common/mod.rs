//! Helpers shared by the shard-worker integration tests
//! (`process_shard.rs` for spawned workers, `net_shard.rs` for dialed
//! ones): fixtures, the two ways of bringing workers up, and the checks
//! both topologies must pass.

use afd_engine::{
    AfdEngine, DeltaRequest, EngineConfig, RestoreRequest, SnapshotRequest, StreamBackend,
    SubscribeRequest,
};
use afd_net::WorkerProcess;
use afd_relation::{AttrId, AttrSet, Fd, Schema, Value};
use afd_stream::{
    RecoveryConfig, RowDelta, RowId, ShardedSession, StreamSession, TcpShard, WorkerCommand,
    WorkerFault, WorkerFaultKind, AFD_WORKER_FAULTS_ENV,
};
use proptest::prelude::*;

pub fn worker() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_afd"))
}

pub fn faulty(fault: WorkerFault) -> WorkerCommand {
    worker().with_env(AFD_WORKER_FAULTS_ENV, fault.to_env())
}

pub fn schema3() -> Schema {
    Schema::new(["A", "B", "C"]).unwrap()
}

pub fn row(a: i64, b: i64, c: i64) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b), Value::Int(c)]
}

pub fn fixture_rows() -> Vec<Vec<Value>> {
    (0..48)
        .map(|i| row(i % 9, (i % 9) * 2 + i64::from(i == 13), i % 4))
        .collect()
}

/// How a test brings its workers up.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// The shard launches its own worker and relaunches it if it dies.
    Spawned,
    /// The test launches a listener and the shard dials its address.
    Dialed,
}

/// A listener the test launches itself, and its address.
pub fn listen(cmd: &WorkerCommand) -> (WorkerProcess, String) {
    let listener = WorkerProcess::launch(cmd).expect("listener launches");
    let addr = listener.addr().to_string();
    (listener, addr)
}

/// One shard per command. Dialed shards need their listeners alive:
/// keep the returned `WorkerProcess`es for as long as the shards.
pub fn shards(topology: Topology, cmds: &[WorkerCommand]) -> (Vec<TcpShard>, Vec<WorkerProcess>) {
    let mut owned = Vec::new();
    let shards = cmds
        .iter()
        .map(|cmd| match topology {
            Topology::Spawned => TcpShard::spawn(cmd, &schema3()).expect("worker spawns"),
            Topology::Dialed => {
                let (listener, addr) = listen(cmd);
                owned.push(listener);
                TcpShard::connect(&addr, &schema3()).expect("dial worker")
            }
        })
        .collect();
    (shards, owned)
}

/// A session keyed on column A over one shard per command.
pub fn session(
    topology: Topology,
    cmds: &[WorkerCommand],
) -> (ShardedSession<TcpShard>, Vec<WorkerProcess>) {
    let (backends, listeners) = shards(topology, cmds);
    let s = ShardedSession::with_backends(schema3(), AttrSet::single(AttrId(0)), backends)
        .expect("valid topology");
    (s, listeners)
}

/// One stream event: op selector, delete-target pick, cell values
/// (None = NULL).
pub type Event = (u8, u32, (Option<i64>, Option<i64>, Option<i64>));

pub fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            0u8..4, // 0 => delete (when possible), else insert
            0u32..4096,
            (
                prop::option::weighted(0.85, 0i64..5),
                prop::option::weighted(0.85, 0i64..4),
                prop::option::weighted(0.85, 0i64..3),
            ),
        ),
        1..28,
    )
}

/// Mirror of live row ids maintained alongside the sessions, turning
/// random events into valid deltas.
struct Mirror {
    live: Vec<RowId>,
    next_id: RowId,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            live: Vec::new(),
            next_id: 0,
        }
    }

    fn delta_from(&mut self, chunk: &[Event]) -> RowDelta {
        let base = self.next_id;
        let mut delta = RowDelta::new();
        for &(sel, pick, (a, b, c)) in chunk {
            let deletable: Vec<RowId> = self
                .live
                .iter()
                .copied()
                .filter(|&id| id < base && !delta.deletes.contains(&id))
                .collect();
            if sel == 0 && !deletable.is_empty() {
                let id = deletable[pick as usize % deletable.len()];
                delta.deletes.push(id);
                self.live.retain(|&l| l != id);
            } else {
                delta
                    .inserts
                    .push(vec![Value::from(a), Value::from(b), Value::from(c)]);
                self.live.push(self.next_id);
                self.next_id += 1;
            }
        }
        delta
    }
}

/// Drives `remote` (fresh, unsubscribed worker-backed sessions) beside an
/// unsharded and an in-process sharded session through `events`, and
/// checks every score read is bit-identical across all of them, that a
/// session rebuilt from each worker snapshot reads the same bits, and
/// that worker-side compaction verifies and changes no read.
pub fn check_remote_sessions(
    events: &[Event],
    mut remote: Vec<ShardedSession<TcpShard>>,
) -> Result<(), TestCaseError> {
    let fds = [
        Fd::linear(AttrId(0), AttrId(1)),
        Fd::linear(AttrId(0), AttrId(2)),
        Fd::new(
            AttrSet::new([AttrId(0), AttrId(1)]),
            AttrSet::single(AttrId(2)),
        )
        .unwrap(),
    ];
    let mut single = StreamSession::new(schema3());
    let mut inproc = ShardedSession::new(schema3(), AttrSet::single(AttrId(0)), 2).unwrap();
    let mut cids = Vec::new();
    for fd in &fds {
        let cid = single.subscribe(fd.clone()).unwrap();
        prop_assert_eq!(inproc.subscribe(fd.clone()).unwrap(), cid);
        for r in &mut remote {
            prop_assert_eq!(r.subscribe(fd.clone()).unwrap(), cid);
        }
        cids.push(cid);
    }
    let mut mirror = Mirror::new();
    for chunk in events.chunks(5) {
        let delta = mirror.delta_from(chunk);
        single.apply(&delta).unwrap();
        inproc.apply(&delta).unwrap();
        for r in &mut remote {
            r.apply(&delta).unwrap();
        }
        for &cid in &cids {
            let want = single.scores(cid);
            prop_assert!(inproc.scores(cid).bits_eq(&want));
            for (i, r) in remote.iter().enumerate() {
                prop_assert!(
                    r.scores(cid).bits_eq(&want),
                    "session {} ({} worker(s)) diverged for candidate {}: {:?} vs {:?}",
                    i,
                    r.n_shards(),
                    cid,
                    r.scores(cid),
                    want
                );
            }
        }
    }
    // Bit-identical to the batch kernels: a fresh session rebuilt from
    // the merged code-level snapshot (whose equivalence to the batch
    // contingency/PLI kernels compaction verifies) reads the same bits.
    for r in &mut remote {
        let snap = r.snapshot().expect("worker snapshot");
        prop_assert_eq!(snap.n_rows(), single.relation().n_live());
        let mut fresh = StreamSession::from_relation(snap);
        for (i, fd) in fds.iter().enumerate() {
            let cid = fresh.subscribe(fd.clone()).unwrap();
            prop_assert!(fresh.scores(cid).bits_eq(&single.scores(cids[i])));
        }
    }
    // Worker-side compaction (batch-kernel verification inside the
    // worker process) passes and keeps every read bit-identical.
    for r in &mut remote {
        let before: Vec<_> = cids.iter().map(|&cid| r.scores(cid)).collect();
        r.compact().expect("worker-side compaction verifies");
        for (&cid, b) in cids.iter().zip(&before) {
            prop_assert!(r.scores(cid).bits_eq(b));
        }
    }
    for r in remote.drain(..) {
        prop_assert!(r.shutdown().clean());
    }
    Ok(())
}

/// Recovery policy for fault tests: tight checkpoints, no backoff
/// sleeps, a deadline short enough that stalled workers fail fast.
pub fn fast_recovery(timeout_ms: u64) -> RecoveryConfig {
    RecoveryConfig {
        checkpoint_every: 2,
        retry_budget: 3,
        backoff_ms: 0,
        request_timeout_ms: timeout_ms,
    }
}

/// An unsharded fault-free twin fed the same history, for bit-identity
/// assertions.
pub fn twin_with(deltas: &[RowDelta]) -> (StreamSession, usize) {
    let mut single = StreamSession::new(schema3());
    let cid = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
    for d in deltas {
        single.apply(d).unwrap();
    }
    (single, cid)
}

/// One real 2-worker session per fault kind; worker 1 carries the
/// injected fault via the environment hook. A listener arms it on its
/// first connection only, and a relaunch strips it, so the healed
/// incarnation serves clean. Site 4 lands mid-stream: init(1),
/// subscribe(2), then applies. Reads must end bit-identical to a
/// fault-free unsharded session, with only worker 1 blamed.
pub fn check_every_fault_kind_recovers(topology: Topology) {
    let faults = [
        WorkerFaultKind::Kill,
        WorkerFaultKind::Truncate,
        WorkerFaultKind::Garbage,
        WorkerFaultKind::Stall { millis: 5_000 },
    ];
    for kind in faults {
        let fault = WorkerFault { site: 4, kind };
        // A stalled worker must fail via the deadline, not hang the test.
        let timeout_ms = match kind {
            WorkerFaultKind::Stall { .. } => 300,
            _ => 10_000,
        };
        let (s, _listeners) = session(topology, &[worker(), faulty(fault)]);
        let mut s = s
            .with_recovery(fast_recovery(timeout_ms))
            .expect("valid recovery config");
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let deltas = [
            RowDelta::insert_only(fixture_rows()),
            RowDelta {
                inserts: vec![row(5, 5, 0), row(6, 6, 1)],
                deletes: vec![2],
            },
            RowDelta {
                inserts: vec![row(7, 7, 2)],
                deletes: vec![8, 13],
            },
        ];
        for d in &deltas {
            s.apply(d)
                .unwrap_or_else(|e| panic!("{topology:?} {fault:?}: {e}"));
        }
        let (single, scid) = twin_with(&deltas);
        assert!(
            s.scores(cid).bits_eq(&single.scores(scid)),
            "{topology:?} {fault:?} diverged"
        );
        let report = s.recovery_report();
        assert!(
            report.total_respawns() >= 1,
            "{topology:?} {fault:?} never fired"
        );
        assert_eq!(report.shards[0].respawns, 0, "wrong shard blamed");
        assert!(s.shutdown().clean());
    }
}

/// A 2-shard engine over 64 rows of X -> Y with one violation.
pub fn engine_with(backend: StreamBackend, recovery: RecoveryConfig) -> AfdEngine {
    let pairs = (0..64).map(|i| (i % 8, if i == 5 { 99 } else { (i % 8) * 3 }));
    AfdEngine::from_relation(afd_relation::Relation::from_pairs(pairs))
        .with_config(EngineConfig {
            shards: 2,
            shard_key: Some(AttrSet::single(AttrId(0))),
            backend,
            recovery,
            ..EngineConfig::default()
        })
        .unwrap()
}

/// The engine backend for `topology` over `cmd`, plus the listeners a
/// dialed backend needs kept alive.
pub fn engine_backend(
    topology: Topology,
    cmd: &WorkerCommand,
) -> (StreamBackend, Vec<WorkerProcess>) {
    match topology {
        Topology::Spawned => (StreamBackend::Process(cmd.clone()), Vec::new()),
        Topology::Dialed => {
            let (owned, addrs) = (0..2).map(|_| listen(cmd)).unzip();
            (StreamBackend::Tcp(addrs), owned)
        }
    }
}

/// An engine over `topology` workers reads bit-identical to an
/// in-process engine after a delta, and its save restores bit-exactly
/// into both an in-process engine and spawned workers.
pub fn check_engine_twin_and_save_restore(topology: Topology) {
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let (backend, _listeners) = engine_backend(topology, &worker());
    let mut inproc = engine_with(StreamBackend::InProcess, RecoveryConfig::default());
    let mut remote = engine_with(backend, RecoveryConfig::default());
    let ci = inproc
        .subscribe(&SubscribeRequest::new(fd.clone()))
        .unwrap();
    let cr = remote.subscribe(&SubscribeRequest::new(fd)).unwrap();
    let delta = RowDelta {
        inserts: vec![
            vec![Value::Int(3), Value::Int(9)],
            vec![Value::Int(1), Value::Int(3)],
        ],
        deletes: vec![5, 17, 40],
    };
    inproc.delta(&DeltaRequest::new(delta.clone())).unwrap();
    remote.delta(&DeltaRequest::new(delta)).unwrap();
    let (a, b) = (
        inproc.scores(ci.candidate).unwrap(),
        remote.scores(cr.candidate).unwrap(),
    );
    assert!(a.bits_eq(&b), "{topology:?}");

    // Save from the worker topology, restore into the in-process one:
    // the wire snapshot is topology-neutral and bit-exact.
    let snap = remote.save(&SnapshotRequest::default()).unwrap();
    assert_eq!(snap.n_live, 63);
    let restored = AfdEngine::restore(&RestoreRequest::new(snap.bytes.clone())).unwrap();
    assert!(restored.scores(0).unwrap().bits_eq(&b));
    // And back into spawned workers.
    let restored = AfdEngine::restore_with_backend(
        &RestoreRequest::new(snap.bytes),
        StreamBackend::Process(worker()),
    )
    .unwrap();
    assert_eq!(restored.n_shards(), 2);
    assert!(restored.scores(0).unwrap().bits_eq(&b));
    assert!(remote.shutdown().clean());
}
