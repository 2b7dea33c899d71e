//! The shard-worker loop: one [`StreamSession`] driven by wire frames.
//!
//! `afd shard-worker --listen ADDR` runs [`run_worker_listener`], which
//! serves one [`run_worker_with_fault`] session per accepted connection;
//! a [`crate::TcpShard`] on the coordinator side speaks the other end.
//! A session is strict request/response — read one [`WorkerRequest`]
//! frame, act, write exactly one [`WorkerResponse`] frame — and ends
//! cleanly on `Shutdown` or a closed connection (the coordinator
//! dropping the shard). Request-level failures (an FD outside the
//! schema, a compaction divergence) are *answered* as typed
//! [`WorkerResponse::Err`]s; only transport-level failures (corrupt
//! frames, broken connections) end the session.
//!
//! Every mutating reply carries a [`StatePatch`], not the session's
//! whole state: the worker remembers how many Y keys its coordinator's
//! mirror holds per candidate, and after an apply it reads the touched
//! X groups and columns off the deleted and appended log slots
//! ([`StreamSession::counted_side_ids`]), so a reply costs O(delta).
//! A subscribe resyncs the new candidate and a compaction every
//! candidate (side ids renumber) — the same patch against an empty
//! mirror.

use std::io::{Read, Write};

use afd_wire::{encode_framed, read_frame_from, Decode, FrameReadError, StreamFrame};

use crate::delta::{StreamError, TransportError};
use crate::fault::{WorkerFault, WorkerFaultKind, AFD_WORKER_FAULTS_ENV};
use crate::session::StreamSession;
use crate::wire::{
    CandidatePatch, StatePatch, WorkerRequest, WorkerResponse, KIND_REQUEST, KIND_RESPONSE,
};

/// A worker's session plus what its coordinator's mirror already holds.
struct Worker {
    session: StreamSession,
    /// Patches shipped since `Init`.
    generation: u64,
    /// Per candidate: Y keys the mirror holds, or `None` when the next
    /// reply must resync it (new subscription, renumbered side ids).
    shipped_y_keys: Vec<Option<usize>>,
}

impl Worker {
    /// The patch taking the coordinator's mirror to the session's state
    /// now, where log slots `slots` are the ones the request counted in
    /// or out (deleted and appended rows).
    fn patch(&mut self, slots: &[usize]) -> StatePatch {
        let session = &self.session;
        let candidates = self
            .shipped_y_keys
            .iter_mut()
            .enumerate()
            .map(|(cid, shipped)| {
                let (reset, from, table) = match *shipped {
                    Some(from) => {
                        let (xs, ys) = session.counted_side_ids(cid, slots.iter().copied());
                        (false, from, session.table(cid).patch(&xs, &ys))
                    }
                    None => (true, 0, session.table(cid).full_patch()),
                };
                let to = session.n_y_side_ids(cid);
                *shipped = Some(to);
                CandidatePatch {
                    reset,
                    y_keys: (from..to)
                        .map(|id| session.y_side_values(cid, id as u32))
                        .collect(),
                    table,
                }
            })
            .collect();
        self.generation += 1;
        StatePatch {
            generation: self.generation,
            n_live: session.relation().n_live() as u64,
            candidates,
        }
    }

    fn handle(&mut self, req: WorkerRequest) -> WorkerResponse {
        match req {
            WorkerRequest::Subscribe(fd) => match self.session.subscribe(fd) {
                Ok(cid) => {
                    if cid == self.shipped_y_keys.len() {
                        self.shipped_y_keys.push(None);
                    }
                    WorkerResponse::Subscribed {
                        cid: cid as u32,
                        patch: self.patch(&[]),
                    }
                }
                Err(e) => WorkerResponse::Err(e),
            },
            WorkerRequest::Apply(delta) => {
                let first_new = self.session.relation().n_slots();
                match self.session.apply(&delta) {
                    Ok(_) => {
                        let slots: Vec<usize> = delta
                            .deletes
                            .iter()
                            .map(|&id| id as usize)
                            .chain(first_new..self.session.relation().n_slots())
                            .collect();
                        WorkerResponse::Applied(self.patch(&slots))
                    }
                    Err(e) => WorkerResponse::Err(e),
                }
            }
            WorkerRequest::Snapshot => WorkerResponse::Snapshot(self.session.relation().snapshot()),
            WorkerRequest::Compact => match self.session.compact() {
                Ok(report) => {
                    self.shipped_y_keys.fill(None);
                    WorkerResponse::Compacted {
                        report,
                        patch: self.patch(&[]),
                    }
                }
                Err(e) => WorkerResponse::Err(e),
            },
            WorkerRequest::Init(_) | WorkerRequest::Shutdown => {
                unreachable!("answered by `handle`")
            }
        }
    }
}

fn handle(worker: &mut Option<Worker>, req: WorkerRequest) -> WorkerResponse {
    match req {
        WorkerRequest::Init(schema) => {
            *worker = Some(Worker {
                session: StreamSession::new(schema),
                generation: 0,
                shipped_y_keys: Vec::new(),
            });
            WorkerResponse::Ok
        }
        WorkerRequest::Shutdown => WorkerResponse::Ok,
        other => match worker.as_mut() {
            Some(worker) => worker.handle(other),
            None => WorkerResponse::Err(StreamError::Transport(TransportError::decode(
                "request before Init",
            ))),
        },
    }
}

/// Runs one worker session until `Shutdown`, EOF on `input`, or a
/// transport failure, with an optional injected fault (`None` = behave;
/// see [`crate::fault`]).
///
/// The fault fires while serving the `site`-th request (1-based,
/// counting every request frame read): `Kill` exits without responding
/// (the coordinator sees EOF), `Truncate` writes half the response
/// frame then exits, `Garbage` writes non-frame bytes then exits, and
/// `Stall` sleeps before responding normally. Each firing announces
/// itself on stderr so the coordinator's stderr capture has a line to
/// attach.
///
/// # Errors
/// [`FrameReadError`] when a frame fails checksum/decode verification or
/// the connection breaks — request-level errors are answered in-band
/// instead.
pub fn run_worker_with_fault(
    mut input: impl Read,
    mut output: impl Write,
    mut fault: Option<WorkerFault>,
) -> Result<(), FrameReadError> {
    let mut worker: Option<Worker> = None;
    let mut requests: u64 = 0;
    loop {
        let (kind, payload) = match read_frame_from(&mut input)? {
            StreamFrame::Frame(kind, payload) => (kind, payload),
            StreamFrame::Eof => return Ok(()),
        };
        if kind != KIND_REQUEST {
            return Err(FrameReadError::Decode(
                afd_wire::DecodeError::UnknownMessage { kind },
            ));
        }
        requests += 1;
        let tripped = match fault {
            Some(f) if requests >= f.site => {
                fault = None;
                eprintln!(
                    "afd-worker: injected fault {} firing at request {requests}",
                    f.to_env()
                );
                Some(f.kind)
            }
            _ => None,
        };
        if matches!(tripped, Some(WorkerFaultKind::Kill)) {
            // Exit without responding: the coordinator sees EOF, as if
            // the process had been killed mid-request.
            return Ok(());
        }
        let req = WorkerRequest::decode_exact(&payload)?;
        let shutdown = matches!(req, WorkerRequest::Shutdown);
        let resp = handle(&mut worker, req);
        let frame = encode_framed(KIND_RESPONSE, &resp)?;
        match tripped {
            Some(WorkerFaultKind::Truncate) => {
                output.write_all(&frame[..frame.len() / 2])?;
                output.flush()?;
                return Ok(());
            }
            Some(WorkerFaultKind::Garbage) => {
                output.write_all(b"this is definitely not an AFDW frame")?;
                output.flush()?;
                return Ok(());
            }
            Some(WorkerFaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Some(WorkerFaultKind::Kill) | None => {}
        }
        output.write_all(&frame)?;
        output.flush()?;
        if shutdown {
            return Ok(());
        }
    }
}

/// Serves the worker protocol over TCP: one [`run_worker_with_fault`]
/// session per accepted connection, each on its own thread (so a
/// stalled or mid-teardown session never blocks a supervisor's
/// reconnect from being served).
///
/// Connection = incarnation: a dropped connection ends its session, and
/// the coordinator's reconnect-restore-replay recovery brings a fresh
/// one back — the new connection starts from `Init` and is rebuilt from
/// the checkpoint + delta log.
///
/// Inspects [`AFD_WORKER_FAULTS_ENV`] **once** at entry and arms the
/// fault on the *first* connection only (and a coordinator relaunching
/// a killed worker strips the variable): an injected fault fires at most
/// once per plan, not once per incarnation. A session that ends on a
/// transport failure announces it on stderr before its socket closes.
///
/// Runs until the listener itself fails (callers that want to stop it
/// kill the process; every session is connection-scoped).
///
/// # Errors
/// The `accept(2)` failure that ended the loop.
pub fn run_worker_listener(listener: std::net::TcpListener) -> std::io::Error {
    let mut fault = std::env::var(AFD_WORKER_FAULTS_ENV)
        .ok()
        .and_then(|spec| WorkerFault::parse(&spec));
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => return e,
        };
        let fault = fault.take();
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            // Transport-level failures (the peer vanished, a corrupt
            // frame) end this session; the listener keeps accepting.
            // `stream` outlives the announcement, so the line is on
            // stderr before the peer sees the socket close.
            if let Err(e) =
                run_worker_with_fault(std::io::BufReader::new(read_half), &stream, fault)
            {
                eprintln!("afd-worker: connection ended: {e}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::{AttrId, Fd, Schema, Value};
    use afd_wire::Encode;

    use crate::delta::RowDelta;
    use crate::table::IncTable;
    use crate::wire::WorkerRequestRef;

    fn drive(requests: &[WorkerRequest]) -> Vec<WorkerResponse> {
        let mut input = Vec::new();
        for req in requests {
            input.extend(encode_framed(KIND_REQUEST, req).unwrap());
        }
        let mut output = Vec::new();
        run_worker_with_fault(input.as_slice(), &mut output, None).expect("worker runs");
        let mut resps = Vec::new();
        let mut cursor = std::io::Cursor::new(output);
        while let StreamFrame::Frame(kind, payload) =
            read_frame_from(&mut cursor).expect("well-formed output")
        {
            assert_eq!(kind, KIND_RESPONSE);
            resps.push(WorkerResponse::decode_exact(&payload).expect("response decodes"));
        }
        resps
    }

    fn row(x: i64, y: i64) -> Vec<Value> {
        vec![Value::Int(x), Value::Int(y)]
    }

    #[test]
    fn worker_tracks_a_session_and_ships_state() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let seed = RowDelta::insert_only([row(1, 10), row(1, 10), row(2, 20), row(1, 11)]);
        let resps = drive(&[
            WorkerRequest::Init(schema.clone()),
            WorkerRequest::Subscribe(fd.clone()),
            WorkerRequest::Apply(seed.clone()),
            WorkerRequest::Snapshot,
            WorkerRequest::Compact,
            WorkerRequest::Apply(RowDelta::delete_only([3])),
            WorkerRequest::Shutdown,
        ]);
        assert_eq!(resps.len(), 7);
        assert_eq!(resps[0], WorkerResponse::Ok);
        // The shipped patches rebuild a local session fed the same data.
        let mut local = StreamSession::new(schema);
        let cid = local.subscribe(fd).unwrap();
        local.apply(&seed).unwrap();
        let mut mirror = IncTable::new();
        let mut keys = Vec::new();
        let mut mirror_patch = |patch: &StatePatch, generation: u64| {
            assert_eq!(patch.generation, generation);
            let cand = &patch.candidates[cid];
            if cand.reset {
                mirror = IncTable::new();
                keys.clear();
            }
            keys.extend(cand.y_keys.iter().cloned());
            mirror
                .apply_patch(&cand.table, keys.len(), patch.n_live)
                .expect("worker patches apply");
            (mirror.clone(), keys.clone())
        };
        match &resps[2] {
            WorkerResponse::Applied(patch) => {
                assert_eq!(patch.n_live, 4);
                assert!(!patch.candidates[cid].reset);
                let (table, keys) = mirror_patch(patch, 2);
                assert_eq!(&table, local.table(cid));
                assert_eq!(keys.len(), local.n_y_side_ids(cid));
                assert!(table.scores().bits_eq(&local.scores(cid)));
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        match &resps[3] {
            WorkerResponse::Snapshot(rel) => assert_eq!(rel.n_rows(), 4),
            other => panic!("expected Snapshot, got {other:?}"),
        }
        local.compact().unwrap();
        match &resps[4] {
            WorkerResponse::Compacted { report, patch } => {
                assert_eq!(report.n_live, 4);
                assert!(
                    patch.candidates[cid].reset,
                    "compaction renumbers: a resync"
                );
                let (table, _) = mirror_patch(patch, 3);
                assert_eq!(&table, local.table(cid));
            }
            other => panic!("expected Compacted, got {other:?}"),
        }
        local.apply(&RowDelta::delete_only([3])).unwrap();
        match &resps[5] {
            WorkerResponse::Applied(patch) => {
                // Only the one group and column the delete touched ship.
                assert_eq!(patch.candidates[cid].table.groups.len(), 1);
                assert_eq!(patch.candidates[cid].table.cols.len(), 1);
                let (table, _) = mirror_patch(patch, 4);
                assert_eq!(&table, local.table(cid));
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        assert_eq!(resps[6], WorkerResponse::Ok);
    }

    #[test]
    fn request_level_errors_are_answered_not_fatal() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let resps = drive(&[
            // Before Init: answered with a typed error, loop continues.
            WorkerRequest::Snapshot,
            WorkerRequest::Init(schema),
            // Out-of-schema FD: typed error, session stays usable.
            WorkerRequest::Subscribe(Fd::linear(AttrId(0), AttrId(9))),
            WorkerRequest::Apply(RowDelta::insert_only([row(1, 1)])),
        ]);
        assert!(matches!(
            resps[0],
            WorkerResponse::Err(StreamError::Transport(_))
        ));
        assert_eq!(resps[1], WorkerResponse::Ok);
        assert!(matches!(
            resps[2],
            WorkerResponse::Err(StreamError::UnknownAttr(9))
        ));
        assert!(matches!(&resps[3], WorkerResponse::Applied(p) if p.n_live == 1));
    }

    #[test]
    fn eof_mid_stream_is_clean_exit_corrupt_frame_is_not() {
        // Clean EOF.
        let mut out = Vec::new();
        run_worker_with_fault(&[][..], &mut out, None).expect("empty stream is a clean exit");
        assert!(out.is_empty());
        // Corrupt frame: typed transport failure.
        let mut frame = encode_framed(
            KIND_REQUEST,
            &WorkerRequestRef::Init(&Schema::new(["A"]).unwrap()),
        )
        .unwrap();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        let mut out = Vec::new();
        assert!(run_worker_with_fault(frame.as_slice(), &mut out, None).is_err());
    }

    fn fault_script() -> Vec<u8> {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let mut input = Vec::new();
        for req in [
            WorkerRequest::Init(schema),
            WorkerRequest::Subscribe(fd),
            WorkerRequest::Apply(RowDelta::insert_only([row(1, 10), row(2, 20)])),
            WorkerRequest::Snapshot,
        ] {
            input.extend(encode_framed(KIND_REQUEST, &req).unwrap());
        }
        input
    }

    fn response_frames(output: &[u8]) -> (usize, Option<FrameReadError>) {
        let mut cursor = std::io::Cursor::new(output);
        let mut n = 0;
        loop {
            match read_frame_from(&mut cursor) {
                Ok(StreamFrame::Frame(_, _)) => n += 1,
                Ok(StreamFrame::Eof) => return (n, None),
                Err(e) => return (n, Some(e)),
            }
        }
    }

    #[test]
    fn injected_kill_exits_without_responding() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 3,
            kind: crate::fault::WorkerFaultKind::Kill,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault))
            .expect("kill is a clean early exit");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 2, "responses before the fault site only");
        assert!(err.is_none(), "output ends cleanly at EOF");
    }

    #[test]
    fn injected_truncation_cuts_the_response_frame() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 2,
            kind: crate::fault::WorkerFaultKind::Truncate,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault)).expect("exits");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 1);
        assert!(
            err.is_some(),
            "the truncated frame must not parse as clean EOF"
        );
    }

    #[test]
    fn injected_garbage_fails_frame_verification() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 1,
            kind: crate::fault::WorkerFaultKind::Garbage,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault)).expect("exits");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 0);
        assert!(matches!(err, Some(FrameReadError::Decode(_))), "{err:?}");
    }

    #[test]
    fn injected_stall_delays_but_answers() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 2,
            kind: crate::fault::WorkerFaultKind::Stall { millis: 1 },
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault))
            .expect("stall only delays");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 4, "every request is answered after the stall");
        assert!(err.is_none());
    }

    #[test]
    fn shipped_tables_merge_bit_identically() {
        // The end-to-end wire property on the worker loop alone: a table
        // rebuilt from shipped patches merges exactly like local state.
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let delta = RowDelta::insert_only([row(1, 10), row(2, 20), row(1, 11)]);
        let resps = drive(&[
            WorkerRequest::Init(schema.clone()),
            WorkerRequest::Subscribe(fd.clone()),
            WorkerRequest::Apply(delta.clone()),
        ]);
        let mut mirror = IncTable::new();
        for resp in &resps[1..] {
            let (WorkerResponse::Subscribed { patch, .. } | WorkerResponse::Applied(patch)) = resp
            else {
                panic!("expected a patch, got {resp:?}");
            };
            mirror
                .apply_patch(&patch.candidates[0].table, 3, patch.n_live)
                .unwrap();
        }
        let mut local = StreamSession::new(schema);
        let cid = local.subscribe(fd).unwrap();
        local.apply(&delta).unwrap();
        let y_map: Vec<u32> = (0..local.n_y_side_ids(cid) as u32).collect();
        let from_wire = IncTable::merged_scores([(&mirror, y_map.as_slice())]);
        let from_local = IncTable::merged_scores([(local.table(cid), y_map.as_slice())]);
        assert!(from_wire.bits_eq(&from_local));
        // Byte-level determinism: the mirror's resync bytes are the
        // worker table's.
        assert_eq!(
            mirror.full_patch().encode_to_vec(),
            local.table(cid).full_patch().encode_to_vec()
        );
    }
}
