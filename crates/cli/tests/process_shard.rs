//! End-to-end tests of the out-of-process shard topology: real
//! `afd shard-worker --listen` processes (the binary Cargo built for
//! this test run) serving the worker protocol over loopback TCP. The
//! bit-identity, fault-kind and engine twin checks here run on workers
//! **spawned** and owned by their shard (`TcpShard::spawn`,
//! `ShardedSession::spawn`, the engine's `StreamBackend::Process`);
//! `net_shard.rs` runs the same checks on workers the test launches and
//! **dialed** by address (`TcpShard::connect`, `StreamBackend::Tcp`).
//! The remaining tests here cover both kinds.
//!
//! The pinning property: for N ∈ {1, 2, 4} workers, over random
//! insert/delete sequences, a worker-backed session's score reads are
//! **bit-identical** (`f64::to_bits`) to the in-process backend, to an
//! unsharded session, and to a from-scratch rebuild through the batch
//! kernels. Plus the self-healing fault path: a worker killed, severed,
//! corrupted or stalled mid-delta is relaunched or redialed, restored
//! from its checkpoint and replayed — post-recovery reads stay
//! bit-identical to a fault-free unsharded session, no request ever
//! blocks without a deadline, and poisoning only happens once the retry
//! budget is exhausted.

mod common;

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

use afd_engine::{DeltaRequest, StreamBackend, SubscribeRequest};
use afd_net::{TcpTransport, Transport as _};
use afd_relation::{AttrId, AttrSet, Fd, Value};
use afd_stream::{
    RecoveryConfig, RemoteShard, RowDelta, RowId, ShardBackend as _, ShardedSession, StreamError,
    StreamScores, TcpShard, TransportErrorKind, WorkerCommand, WorkerFault, WorkerFaultKind,
};
use common::*;
use proptest::prelude::*;

const TOPOLOGIES: [Topology; 2] = [Topology::Spawned, Topology::Dialed];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn process_workers_match_in_process_and_unsharded_bit_exactly(events in events()) {
        let remote = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                ShardedSession::spawn(schema3(), AttrSet::single(AttrId(0)), n, &worker())
                    .expect("workers spawn")
            })
            .collect();
        check_remote_sessions(&events, remote)?;
    }
}

#[test]
fn killed_worker_mid_delta_is_respawned_and_replayed() {
    let key = AttrSet::single(AttrId(0));
    let mut s = ShardedSession::spawn(schema3(), key, 2, &worker()).expect("workers spawn");
    assert!(s.recovery_enabled(), "worker shards support recovery");
    let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
    let seed = RowDelta::insert_only(fixture_rows());
    s.apply(&seed).unwrap();

    // Kill worker 1 outright — the crash the supervisor must heal.
    s.backend_mut(1).kill();
    let follow_up = RowDelta {
        inserts: vec![row(1, 1, 1), row(2, 2, 2)],
        deletes: vec![3, 11],
    };
    s.apply(&follow_up).unwrap();

    // The worker was relaunched, its checkpoint restored and the
    // in-flight delta retried: reads are bit-identical to a fault-free
    // unsharded session over the same history.
    let (single, scid) = twin_with(&[seed, follow_up]);
    assert!(s.scores(cid).bits_eq(&single.scores(scid)));
    let report = s.recovery_report();
    assert!(report.total_respawns() >= 1, "{report:?}");
    assert_eq!(report.shards[0].respawns, 0, "shard 0 never failed");

    // Later mutation (including deletes of pre-fault rows) and the
    // verified compaction keep working on the healed topology.
    let late = RowDelta::delete_only([0]);
    s.apply(&late).unwrap();
    s.compact().expect("post-recovery compaction verifies");
    let (mut single, scid) = twin_with(&[
        RowDelta::insert_only(fixture_rows()),
        RowDelta {
            inserts: vec![row(1, 1, 1), row(2, 2, 2)],
            deletes: vec![3, 11],
        },
        late,
    ]);
    single.compact().unwrap();
    assert!(s.scores(cid).bits_eq(&single.scores(scid)));
    let snap = s.snapshot().unwrap();
    let want = single.relation().snapshot();
    assert_eq!(snap.n_rows(), want.n_rows());
    for r in 0..want.n_rows() {
        assert_eq!(snap.row(r), want.row(r), "row {r} diverged post-recovery");
    }
    assert!(s.shutdown().clean());
}

#[test]
fn severed_worker_is_reconnected_and_replayed() {
    // sever() drops the coordinator's connection mid-session; the
    // worker survives. The supervisor redials, restores the checkpoint,
    // replays, and reads stay bit-identical.
    for topology in TOPOLOGIES {
        let (s, _listeners) = session(topology, &[worker(), worker()]);
        let mut s = s
            .with_recovery(RecoveryConfig {
                checkpoint_every: 2,
                backoff_ms: 0,
                ..RecoveryConfig::default()
            })
            .expect("valid recovery config");
        assert!(s.recovery_enabled(), "{topology:?} shards support recovery");
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let seed = RowDelta::insert_only(fixture_rows());
        s.apply(&seed).unwrap();

        s.backend_mut(1).sever();
        let follow_up = RowDelta {
            inserts: vec![row(1, 1, 1), row(2, 2, 2)],
            deletes: vec![3, 11],
        };
        s.apply(&follow_up).unwrap();

        let (single, scid) = twin_with(&[seed, follow_up]);
        assert!(s.scores(cid).bits_eq(&single.scores(scid)), "{topology:?}");
        let report = s.recovery_report();
        assert!(report.total_respawns() >= 1, "{topology:?}: {report:?}");
        assert_eq!(report.shards[0].respawns, 0, "shard 0 never failed");
        assert!(s.shutdown().clean());
    }
}

#[test]
fn every_fault_kind_recovers_bit_identically_in_real_workers() {
    check_every_fault_kind_recovers(Topology::Spawned);
}

#[test]
fn hung_worker_request_fails_at_the_deadline_not_never() {
    // A worker stalling far past the deadline: the coordinator's reader
    // thread times the request out — no request can block unboundedly.
    let stall = WorkerFault {
        site: 2, // the first post-init request
        kind: WorkerFaultKind::Stall { millis: 60_000 },
    };
    for topology in TOPOLOGIES {
        let (mut backends, _listeners) = shards(topology, &[faulty(stall)]);
        let shard = &mut backends[0];
        shard.configure(0, Duration::from_millis(200));
        let start = Instant::now();
        let err = shard
            .subscribe(&Fd::linear(AttrId(0), AttrId(1)))
            .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline did not bound the request"
        );
        match err {
            StreamError::Transport(te) => {
                assert!(
                    matches!(te.kind, TransportErrorKind::Timeout { millis: 200 }),
                    "{topology:?}: {te:?}"
                );
                assert_eq!(te.shard, Some(0));
            }
            other => panic!("expected a transport timeout, got {other}"),
        }
    }
}

#[test]
fn transport_errors_carry_the_worker_stderr_tail() {
    // The injected-fault worker announces itself on stderr right before
    // misbehaving; the spawned shard's ring buffer attaches that tail to
    // the typed error. (A dialed listener's stderr belongs to whoever
    // launched it, so only spawned shards carry a tail.)
    let garbage = WorkerFault {
        site: 2,
        kind: WorkerFaultKind::Garbage,
    };
    let mut shard = TcpShard::spawn(&faulty(garbage), &schema3()).expect("worker spawns");
    let err = shard
        .subscribe(&Fd::linear(AttrId(0), AttrId(1)))
        .unwrap_err();
    match err {
        StreamError::Transport(te) => {
            assert!(
                te.stderr.iter().any(|l| l.contains("injected fault")),
                "stderr tail missing: {te:?}"
            );
        }
        other => panic!("expected a transport error, got {other}"),
    }
}

/// A relay that forwards its first connection to `target` and drops
/// every later one on accept: a dialed worker whose link never comes
/// back. The relay thread lives as long as the test process.
fn one_shot_relay(target: SocketAddr) -> SocketAddr {
    let relay = TcpListener::bind("127.0.0.1:0").expect("relay binds");
    let addr = relay.local_addr().expect("relay address");
    std::thread::spawn(move || {
        let mut incoming = relay.incoming().flatten();
        let Some(client) = incoming.next() else {
            return;
        };
        let upstream = TcpStream::connect(target).expect("relay dials the worker");
        let pipe = |mut from: TcpStream, mut to: TcpStream| {
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from, &mut to);
                let _ = to.shutdown(Shutdown::Both);
            })
        };
        pipe(client.try_clone().unwrap(), upstream.try_clone().unwrap());
        pipe(upstream, client);
        incoming.for_each(drop);
    });
    addr
}

#[test]
fn sticky_process_fault_exhausts_retries_then_poisons() {
    // Spawned: the supervisor strips the fault env on relaunch, so the
    // fault must recur another way — kill the *relaunched* worker too,
    // via a budget-1 policy and a second manual kill.
    let key = AttrSet::single(AttrId(0));
    let budget_one = RecoveryConfig {
        retry_budget: 1,
        backoff_ms: 0,
        ..RecoveryConfig::default()
    };
    let mut s = ShardedSession::spawn(schema3(), key.clone(), 2, &worker())
        .expect("workers spawn")
        .with_recovery(budget_one.clone())
        .expect("valid recovery config");
    let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
    s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();

    // First kill: the single-attempt budget heals it.
    s.backend_mut(1).kill();
    s.apply(&RowDelta::insert_only([row(1, 1, 1)])).unwrap();
    assert_eq!(s.recovery_report().shards[1].respawns, 1);
    let last_good = s.scores(cid);

    // Exhaust the budget: kill again and make the relaunch fail too by
    // pointing it at a broken program.
    s.backend_mut(1).kill();
    s.backend_mut(1)
        .set_command(WorkerCommand::new("/nonexistent-afd-worker"));
    assert_next_apply_poisons(&mut s, cid, &last_good);

    // Dialed: worker 1 sits behind a relay that refuses every redial,
    // so losing its connection is a fault no retry can heal.
    let (_l0, direct) = listen(&worker());
    let (l1, _) = listen(&worker());
    let relayed = one_shot_relay(l1.addr()).to_string();
    let backends = [direct, relayed]
        .iter()
        .map(|a| TcpShard::connect(a, &schema3()).expect("dial worker"))
        .collect();
    let mut s = ShardedSession::with_backends(schema3(), key, backends)
        .expect("valid topology")
        .with_recovery(budget_one)
        .expect("valid recovery config");
    let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
    s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
    let last_good = s.scores(cid);
    s.backend_mut(1).sever();
    assert_next_apply_poisons(&mut s, cid, &last_good);
}

/// The next apply fails typed and poisons the session: reads serve the
/// last consistent state, further mutation is refused.
fn assert_next_apply_poisons(s: &mut ShardedSession<TcpShard>, cid: usize, last: &StreamScores) {
    let err = s.apply(&RowDelta::insert_only([row(2, 2, 2)])).unwrap_err();
    assert!(matches!(err, StreamError::Transport(_)), "{err}");
    assert!(s.scores(cid).bits_eq(last));
    let refused = s.apply(&RowDelta::delete_only([0]));
    assert!(
        matches!(refused, Err(StreamError::Poisoned(_))),
        "{refused:?}"
    );
}

#[test]
fn shutdown_reports_stragglers_for_dead_workers() {
    for topology in TOPOLOGIES {
        let (mut s, mut listeners) = session(topology, &[worker(), worker()]);
        s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        // Worker 1 is already dead at shutdown time: it cannot
        // acknowledge.
        match topology {
            Topology::Spawned => s.backend_mut(1).kill(),
            Topology::Dialed => listeners[1].kill(),
        }
        let report = s.shutdown();
        assert_eq!(report.shards, 2);
        assert_eq!(report.stragglers, vec![1], "{topology:?}");
        assert!(!report.clean());
    }
}

#[test]
fn engine_process_backend_recovers_and_reports() {
    // Engine-level: every worker carries a kill fault (the env hook
    // applies to the shared command), the engine's supervisor heals each
    // one as it fires, and the report counts the respawns.
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let kill = WorkerFault {
        site: 4,
        kind: WorkerFaultKind::Kill,
    };
    for topology in TOPOLOGIES {
        let (backend, _listeners) = engine_backend(topology, &faulty(kill));
        let mut healed = engine_with(
            backend,
            RecoveryConfig {
                checkpoint_every: 2,
                backoff_ms: 0,
                ..RecoveryConfig::default()
            },
        );
        let mut clean = engine_with(StreamBackend::InProcess, RecoveryConfig::default());
        let cf = healed
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .unwrap();
        let cc = clean.subscribe(&SubscribeRequest::new(fd.clone())).unwrap();
        for step in 0..4 {
            let delta = RowDelta {
                inserts: vec![vec![Value::Int(step), Value::Int(step * 3)]],
                deletes: vec![step as RowId],
            };
            healed.delta(&DeltaRequest::new(delta.clone())).unwrap();
            clean.delta(&DeltaRequest::new(delta)).unwrap();
        }
        assert!(healed
            .scores(cf.candidate)
            .unwrap()
            .bits_eq(&clean.scores(cc.candidate).unwrap()));
        let report = healed.recovery_report();
        assert!(report.total_respawns() >= 1, "{topology:?}: {report:?}");
        assert!(healed.shutdown().clean());
    }
}

#[test]
fn engine_process_backend_matches_in_process_and_survives_save_restore() {
    check_engine_twin_and_save_restore(Topology::Spawned);
}

#[test]
fn one_listener_serves_sequential_sessions() {
    // Connection = incarnation: after one session shuts down cleanly,
    // the same listener process serves a fresh one from scratch.
    let (_listener, addr) = listen(&worker());
    for round in 0..2 {
        let backends = vec![TcpShard::connect(&addr, &schema3()).expect("dial worker")];
        let mut s = ShardedSession::with_backends(schema3(), AttrSet::single(AttrId(0)), backends)
            .expect("valid topology");
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let delta = RowDelta::insert_only([row(round, round, 0), row(round, 9, 1)]);
        s.apply(&delta).unwrap();
        let (single, scid) = twin_with(&[delta]);
        assert!(s.scores(cid).bits_eq(&single.scores(scid)));
        assert!(s.shutdown().clean());
    }
}

#[test]
fn save_and_load_subcommands_round_trip() {
    let dir = std::env::temp_dir().join(format!("afd-wire-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("in.csv");
    let snap = dir.join("session.afdw");
    std::fs::write(&csv, "zip,city\n94110,sf\n94110,sf\n94110,oak\n10001,nyc\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_afd"))
        .args(["save", csv.to_str().unwrap(), snap.to_str().unwrap()])
        .output()
        .expect("afd save runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("saved 4 rows"));

    let out = Command::new(env!("CARGO_BIN_EXE_afd"))
        .args(["load", snap.to_str().unwrap()])
        .output()
        .expect("afd load runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("restored 4 rows"), "{stdout}");
    assert!(stdout.contains("zip -> city"), "{stdout}");

    // A corrupted snapshot is refused with a typed decode error, not a
    // panic or garbage scores.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    let bad = dir.join("corrupt.afdw");
    std::fs::write(&bad, bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_afd"))
        .args(["load", bad.to_str().unwrap()])
        .output()
        .expect("afd load runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("checksum"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_worker_rejects_garbage_input() {
    // Garbage bytes on one connection end that session with a typed
    // decode error on the worker's stderr — no hang, no panic — and the
    // same listener then serves a clean session.
    let mut transport = TcpTransport::spawn(&worker()).expect("worker spawns");
    let mut raw = TcpStream::connect(transport.addr()).expect("dial worker");
    raw.write_all(b"definitely not an AFDW frame").unwrap();
    let tail = transport.diagnostics(true);
    assert!(
        tail.iter()
            .any(|l| l.starts_with("afd-worker: connection ended: frame decode")),
        "{tail:?}"
    );
    drop(raw);

    let mut shard = RemoteShard::from_transport(transport, &schema3()).expect("clean Init");
    let cid = shard.subscribe(&Fd::linear(AttrId(0), AttrId(1))).unwrap();
    let delta = RowDelta::insert_only(fixture_rows());
    shard.apply(&delta).unwrap();
    let (single, scid) = twin_with(&[delta]);
    assert_eq!(shard.table(cid), single.table(scid));
    assert_eq!(shard.n_live(), fixture_rows().len());
}

#[test]
fn shard_worker_without_listen_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_afd"))
        .arg("shard-worker")
        .output()
        .expect("afd runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: afd shard-worker --listen ADDR"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
