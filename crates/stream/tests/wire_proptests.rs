//! Property tests for the streaming types' wire forms:
//! `decode(encode(x)) == x` (bit-exact floats, canonical bytes) for
//! every type the coordinator⇄worker protocol and the session snapshot
//! move, plus corrupted/truncated-byte fuzz asserting typed
//! [`DecodeError`]s — never panics — and the worker protocol end to
//! end: a coordinator's patched mirrors stay equal to the worker
//! sessions they mirror.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use afd_net::{NetError, Transport};
use afd_relation::{AttrId, AttrSet, Fd, Relation, Schema, Value};
use afd_stream::wire::{CandidatePatch, StatePatch, WorkerResponse, KIND_RESPONSE};
use afd_stream::{
    run_worker_with_fault, IncTable, RemoteShard, RowDelta, ScoreDiff, SessionSnapshot,
    ShardBackend, ShardedSession, StreamScores, StreamSession, TablePatch,
};
use afd_wire::{
    decode_framed, encode_framed, read_frame_from, Decode, DecodeError, Encode, StreamFrame,
};
use proptest::prelude::*;

/// Random insert/delete trace over small (x, y) id spaces.
fn table_events() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    prop::collection::vec((prop::bool::ANY, 0u32..6, 0u32..5), 1..80)
}

fn build_table(events: &[(bool, u32, u32)]) -> IncTable {
    let mut t = IncTable::new();
    let mut live: Vec<(u32, u32)> = Vec::new();
    for &(del, x, y) in events {
        if del && !live.is_empty() {
            let (x, y) = live.swap_remove((x as usize * 7 + y as usize) % live.len());
            t.delete(x, y);
        } else {
            t.insert(x, y);
            live.push((x, y));
        }
    }
    t
}

proptest! {
    #[test]
    fn inc_table_roundtrips_exactly_and_canonically(events in table_events()) {
        // A table travels as its full patch applied to an empty mirror.
        let t = build_table(&events);
        let bytes = t.full_patch().encode_to_vec();
        let patch = TablePatch::decode_exact(&bytes).expect("patch decodes");
        let mut back = IncTable::new();
        back.apply_patch(&patch, 5, events.len() as u64).expect("resync applies");
        prop_assert_eq!(&back, &t);
        prop_assert!(back.scores().bits_eq(&t.scores()));
        // Canonical: equal tables encode to identical bytes despite
        // nondeterministic in-memory hash maps.
        prop_assert_eq!(back.full_patch().encode_to_vec(), bytes);
    }

    #[test]
    fn stream_scores_and_diffs_roundtrip_bit_exactly(events in table_events()) {
        let t = build_table(&events);
        let scores = t.scores();
        let back = StreamScores::decode_exact(&scores.encode_to_vec()).expect("scores decode");
        prop_assert!(back.bits_eq(&scores));
        let diff = ScoreDiff { candidate: events.len(), before: StreamScores::exact(), after: scores };
        let back = ScoreDiff::decode_exact(&diff.encode_to_vec()).expect("diff decodes");
        prop_assert_eq!(back.candidate, diff.candidate);
        prop_assert!(back.before.bits_eq(&diff.before));
        prop_assert!(back.after.bits_eq(&diff.after));
    }

    #[test]
    fn row_deltas_roundtrip(
        inserts in prop::collection::vec(
            (prop::option::weighted(0.9, -3i64..3), prop::option::weighted(0.9, 0i64..4)),
            0..20,
        ),
        deletes in prop::collection::vec(0u32..512, 0..20),
    ) {
        let delta = RowDelta {
            inserts: inserts
                .iter()
                .map(|&(a, b)| vec![Value::from(a), Value::from(b)])
                .collect(),
            deletes: deletes.clone(),
        };
        let back = RowDelta::decode_exact(&delta.encode_to_vec()).expect("delta decodes");
        prop_assert_eq!(back, delta);
    }

    #[test]
    fn session_snapshots_roundtrip_framed(
        rows in prop::collection::vec((0i64..5, 0i64..4, 0i64..3), 0..40),
        n_shards in 1u32..5,
        compact_every in prop::option::weighted(0.5, 1u64..64),
    ) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|&(a, b, c)| [Value::Int(a), Value::Int(b), Value::Int(c)]),
        )
        .unwrap();
        let snap = SessionSnapshot {
            rows: rel,
            shard_key: AttrSet::single(AttrId(0)),
            n_shards,
            subscriptions: vec![
                Fd::linear(AttrId(0), AttrId(1)),
                Fd::new(AttrSet::new([AttrId(0), AttrId(2)]), AttrSet::single(AttrId(1))).unwrap(),
            ],
            compact_every,
        };
        let back = SessionSnapshot::from_bytes(&snap.to_bytes().unwrap()).expect("snapshot decodes");
        prop_assert_eq!(back, snap);
    }

    #[test]
    fn corrupted_snapshot_bytes_are_typed_errors(
        rows in prop::collection::vec((0i64..5, 0i64..4), 1..20),
        byte_pick in 0usize..=usize::MAX,
        bit in 0u8..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = SessionSnapshot {
            rows: Relation::from_pairs(rows.iter().map(|&(a, b)| (a as u64, b as u64))),
            shard_key: AttrSet::empty(),
            n_shards: 1,
            subscriptions: vec![Fd::linear(AttrId(0), AttrId(1))],
            compact_every: None,
        };
        let bytes = snap.to_bytes().unwrap();
        // Any single bit flip: typed error (the frame checksum covers
        // header and payload).
        let mut corrupt = bytes.clone();
        let byte = byte_pick % corrupt.len();
        corrupt[byte] ^= 1 << bit;
        let err = SessionSnapshot::from_bytes(&corrupt).expect_err("corruption detected");
        let _ = err.to_string();
        // Any truncation: typed error.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let err = SessionSnapshot::from_bytes(&bytes[..cut]).expect_err("truncation detected");
            prop_assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. }
                        | DecodeError::BadLength { .. }
                        | DecodeError::BadMagic { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn worker_responses_with_live_session_state_roundtrip(events in table_events()) {
        // A response carrying a patch of real session state (the shape
        // the coordinator actually decodes every delta): a seed, then a
        // delta that deletes some of it.
        let mut session = StreamSession::new(Schema::new(["X", "Y"]).unwrap());
        let cid = session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let rows: Vec<Vec<Value>> = events
            .iter()
            .map(|&(_, x, y)| vec![Value::Int(i64::from(x)), Value::Int(i64::from(y))])
            .collect();
        session.apply(&RowDelta::insert_only(rows)).unwrap();
        let mut mirror = IncTable::new();
        mirror.apply_patch(&session.table(cid).full_patch(), 5, 80).unwrap();
        let deletes: Vec<u32> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.0)
            .map(|(i, _)| i as u32)
            .collect();
        session.apply(&RowDelta::delete_only(deletes.clone())).unwrap();
        let (xs, ys) = session.counted_side_ids(cid, deletes.iter().map(|&d| d as usize));
        let resp = WorkerResponse::Applied(StatePatch {
            generation: 2,
            n_live: session.relation().n_live() as u64,
            candidates: vec![CandidatePatch {
                reset: false,
                y_keys: Vec::new(),
                table: session.table(cid).patch(&xs, &ys),
            }],
        });
        let frame = encode_framed(KIND_RESPONSE, &resp).unwrap();
        let back: WorkerResponse =
            decode_framed(KIND_RESPONSE, &frame).expect("framed response decodes");
        prop_assert_eq!(&back, &resp);
        // The decoded patch brings the mirror to the session's table.
        if let WorkerResponse::Applied(patch) = back {
            mirror
                .apply_patch(&patch.candidates[0].table, 5, patch.n_live)
                .expect("patch applies");
            prop_assert_eq!(&mirror, session.table(cid));
            prop_assert!(mirror.scores().bits_eq(&session.scores(cid)));
        }
    }

    #[test]
    fn corrupted_patch_bytes_are_typed_errors(events in table_events()) {
        // Every bit flip and every truncation of a framed patch reply is
        // a typed DecodeError. Unframed, the payload decodes to *some*
        // patch or fails typed, and applying whatever decodes to the
        // mirror is refused or accepted — never a panic.
        let base = build_table(&events[..events.len() / 2]);
        let mut now = build_table(&events);
        now.insert(9, 4);
        let n_live = events.len() as u64 + 1;
        let xs: Vec<u32> = (0..10).collect();
        let ys: Vec<u32> = (0..5).collect();
        let resp = WorkerResponse::Applied(StatePatch {
            generation: 2,
            n_live,
            candidates: vec![CandidatePatch {
                reset: false,
                y_keys: vec![vec![Value::Int(4)]],
                table: now.patch(&xs, &ys),
            }],
        });
        let frame = encode_framed(KIND_RESPONSE, &resp).unwrap();
        let payload = resp.encode_to_vec();
        for bit in 0..frame.len() * 8 {
            let mut corrupt = frame.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let err = decode_framed::<WorkerResponse>(KIND_RESPONSE, &corrupt)
                .expect_err("a flipped bit is caught");
            let _ = err.to_string();
        }
        for cut in 0..frame.len() {
            prop_assert!(decode_framed::<WorkerResponse>(KIND_RESPONSE, &frame[..cut]).is_err());
        }
        for bit in 0..payload.len() * 8 {
            let mut corrupt = payload.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            if let Ok(WorkerResponse::Applied(patch)) = WorkerResponse::decode_exact(&corrupt) {
                for cand in &patch.candidates {
                    let _ = base.clone().apply_patch(&cand.table, 5, patch.n_live);
                }
            }
        }
        for cut in 0..payload.len() {
            prop_assert!(WorkerResponse::decode_exact(&payload[..cut]).is_err());
        }
    }
}

/// A worker session thread behind an in-memory socket pair: the worker
/// protocol with neither processes nor network.
#[derive(Debug)]
struct PipeTransport {
    tx: UnixStream,
    rx: BufReader<UnixStream>,
}

impl PipeTransport {
    fn spawn() -> Self {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let input = BufReader::new(theirs.try_clone().expect("clone"));
        std::thread::spawn(move || run_worker_with_fault(input, theirs, None));
        PipeTransport {
            rx: BufReader::new(ours.try_clone().expect("clone")),
            tx: ours,
        }
    }
}

impl Transport for PipeTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.tx
            .write_all(frame)
            .map_err(|e| NetError::Write(e.to_string()))
    }

    fn recv(&mut self, _deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        match read_frame_from(&mut self.rx) {
            Ok(StreamFrame::Frame(kind, payload)) => Ok((kind, payload)),
            Ok(StreamFrame::Eof) => Err(NetError::Read("worker closed the pipe".into())),
            Err(e) => Err(NetError::Read(e.to_string())),
        }
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        Err(NetError::Spawn("pipes do not reconnect".into()))
    }

    fn finish(&mut self, _deadline: Duration) -> Result<(), NetError> {
        Ok(())
    }

    fn peer(&self) -> String {
        "pipe".into()
    }
}

/// One mirror-test step: subscribe, compact, or a delta of inserts and
/// (for kinds ≥ 6) deletes of picked live rows.
type Step = (u8, u32, Vec<(Option<i64>, Option<i64>, Option<i64>)>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..10,
            0u32..4096,
            prop::collection::vec(
                (
                    prop::option::weighted(0.9, 0i64..6),
                    prop::option::weighted(0.9, 0i64..4),
                    prop::option::weighted(0.9, 0i64..3),
                ),
                0..8,
            ),
        ),
        1..24,
    )
}

/// Asserts every remote shard's mirrors equal the in-process twin's
/// shard sessions (the worker sessions run the same slices), and the
/// merged scores agree bit for bit.
fn assert_mirrors_equal(
    remote: &mut ShardedSession<RemoteShard<PipeTransport>>,
    twin: &mut ShardedSession,
) {
    for s in 0..twin.n_shards() {
        let worker = twin.backend_mut(s).session().clone();
        let mirror = remote.backend_mut(s);
        assert_eq!(
            mirror.n_live(),
            worker.relation().n_live(),
            "shard {s} live rows"
        );
        for cid in 0..worker.n_candidates() {
            assert_eq!(
                mirror.table(cid),
                worker.table(cid),
                "shard {s} candidate {cid}"
            );
            assert_eq!(mirror.n_y_side_ids(cid), worker.n_y_side_ids(cid));
            for id in 0..worker.n_y_side_ids(cid) as u32 {
                assert_eq!(mirror.y_side_values(cid, id), worker.y_side_values(cid, id));
            }
        }
    }
    for cid in 0..twin.n_candidates() {
        assert!(
            remote.scores(cid).bits_eq(&twin.scores(cid)),
            "candidate {cid}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn remote_mirrors_track_worker_sessions(n_shards in 1usize..4, steps in steps()) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let key = AttrSet::single(AttrId(0));
        let fds = [
            Fd::linear(AttrId(0), AttrId(1)),
            Fd::linear(AttrId(0), AttrId(2)),
            Fd::new(AttrSet::new([AttrId(0), AttrId(1)]), AttrSet::single(AttrId(2))).unwrap(),
            Fd::new(AttrSet::new([AttrId(0), AttrId(2)]), AttrSet::single(AttrId(1))).unwrap(),
        ];
        let shards = (0..n_shards)
            .map(|_| RemoteShard::from_transport(PipeTransport::spawn(), &schema).unwrap())
            .collect();
        let mut remote = ShardedSession::with_backends(schema.clone(), key.clone(), shards).unwrap();
        let mut twin = ShardedSession::new(schema, key, n_shards).unwrap();
        remote.subscribe(fds[0].clone()).unwrap();
        twin.subscribe(fds[0].clone()).unwrap();
        let (mut live, mut next): (Vec<u32>, u32) = (Vec::new(), 0);
        for (kind, pick, rows) in steps {
            match kind {
                0 => {
                    let fd = fds[pick as usize % fds.len()].clone();
                    prop_assert_eq!(remote.subscribe(fd.clone()).unwrap(), twin.subscribe(fd).unwrap());
                }
                1 => {
                    remote.compact().unwrap();
                    twin.compact().unwrap();
                    next = live.len() as u32;
                    live = (0..next).collect();
                }
                _ => {
                    let mut delta = RowDelta::insert_only(
                        rows.iter().map(|&(a, b, c)| vec![Value::from(a), Value::from(b), Value::from(c)]),
                    );
                    if kind >= 6 {
                        for k in 0..3u32 {
                            if live.is_empty() {
                                break;
                            }
                            let i = (pick.wrapping_mul(k + 7) as usize) % live.len();
                            delta.deletes.push(live.swap_remove(i));
                        }
                    }
                    let diffs = remote.apply(&delta).unwrap();
                    let want = twin.apply(&delta).unwrap();
                    prop_assert_eq!(diffs.len(), want.len());
                    live.extend(next..next + rows.len() as u32);
                    next += rows.len() as u32;
                }
            }
            assert_mirrors_equal(&mut remote, &mut twin);
        }
    }
}
