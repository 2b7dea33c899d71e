//! Records the cost of carrying the worker protocol and the serve
//! protocol over loopback TCP into `BENCH_net.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_net [--smoke] [out.json]
//! ```
//!
//! Three sections:
//!
//! 1. **Shard apply transport tax** — the same churn deltas applied
//!    through a 2-shard session in process and over TCP to spawned
//!    `afd shard-worker --listen` children on loopback, reporting
//!    p50/p99 apply latency per topology. The correctness gate asserts
//!    both read bit-identical scores after every delta. The TCP
//!    session also counts its reply bytes: the full resync a subscribe
//!    over the seeded rows ships, and the state patch each churn apply
//!    ships. The run exits 1 if any apply's reply exceeds 1/8 of the
//!    resync's — a byte count repeats exactly, so this bar cannot flake.
//! 2. **Serve round-trip latency** — p50/p99 of a `Scores` request
//!    through `ServeClient` against a loopback `ServeFront`.
//! 3. **Connection churn** — connect/hello/census/disconnect cycles per
//!    second through the front door's accept loop, with the server's
//!    own counters audited against the loop count.
//!
//! `--smoke` shrinks every section so CI exercises the full path in
//! seconds.

use afd_bench::{afd_worker, fixture_relation, median, percentile};
use afd_engine::{AfdEngine, SnapshotRequest, SubscribeRequest};
use afd_net::{NetError, TcpTransport, Transport};
use afd_relation::{AttrId, AttrSet, Fd, Relation, Schema};
use afd_serve::{AfdServe, DurabilityConfig, ServeClient, ServeConfig, ServeFront};
use afd_stream::{ChurnPlanner, RemoteShard, RowDelta, ShardedSession};
use afd_wire::FRAME_OVERHEAD;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport that adds the whole-frame size of every reply it
/// receives to a shared counter.
#[derive(Debug)]
struct Counted<T> {
    inner: T,
    bytes_in: Arc<AtomicU64>,
}

impl<T: Transport> Transport for Counted<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        let reply = self.inner.recv(deadline);
        if let Ok((_, payload)) = &reply {
            let bytes = (FRAME_OVERHEAD + payload.len()) as u64;
            self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        }
        reply
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let afd = afd_worker();

    let (n, deltas, rtts, churns) = if smoke {
        (2_048, 6, 16, 8)
    } else {
        (16_384, 48, 512, 200)
    };
    let fixture = fixture_relation(n, 7);
    let schema = Schema::new(["X", "Y"]).unwrap();
    let key = AttrSet::single(AttrId(0));
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let k = (n / 256).max(4);

    // ------------------------- section 1: shard apply transport tax
    let bytes_in = Arc::new(AtomicU64::new(0));
    let mut inproc = ShardedSession::new(schema.clone(), key.clone(), 2).expect("valid topology");
    let mut tcp = ShardedSession::with_backends(
        schema.clone(),
        key.clone(),
        (0..2)
            .map(|_| {
                let inner = TcpTransport::spawn(&afd).expect("worker spawns");
                let counted = Counted {
                    inner,
                    bytes_in: Arc::clone(&bytes_in),
                };
                RemoteShard::from_transport(counted, &schema).expect("worker handshake")
            })
            .collect(),
    )
    .expect("valid topology");
    // Seed first, then subscribe: each worker's Subscribed reply is then
    // a full resync of the seeded state.
    let seed = RowDelta::insert_only((0..fixture.n_rows()).map(|r| fixture.row(r)));
    inproc.apply(&seed).expect("seed applies");
    tcp.apply(&seed).expect("seed applies");
    let ci = inproc.subscribe(fd.clone()).expect("2-attr fixture");
    let before = bytes_in.load(Ordering::Relaxed);
    let ct = tcp.subscribe(fd.clone()).expect("2-attr fixture");
    let resync_bytes = bytes_in.load(Ordering::Relaxed) - before;

    let mut planner = ChurnPlanner::new(&fixture);
    let mut t_inproc = Vec::with_capacity(deltas);
    let mut t_tcp = Vec::with_capacity(deltas);
    let mut apply_bytes = Vec::with_capacity(deltas);
    for _ in 0..deltas {
        let delta = planner.next_delta(k);
        let start = Instant::now();
        inproc.apply(&delta).expect("valid planned delta");
        t_inproc.push(start.elapsed());
        let before = bytes_in.load(Ordering::Relaxed);
        let start = Instant::now();
        tcp.apply(&delta).expect("valid planned delta");
        t_tcp.push(start.elapsed());
        apply_bytes.push(bytes_in.load(Ordering::Relaxed) - before);
        let want = inproc.scores(ci);
        assert!(tcp.scores(ct).bits_eq(&want), "tcp diverged");
    }
    assert!(tcp.shutdown().clean());
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (name, samples) in [("in_process", t_inproc), ("tcp", t_tcp)] {
        let (p50, p99) = (median(&samples), percentile(&samples, 0.99));
        let _ = writeln!(
            json,
            "    {{\"workload\": \"shard_apply_2x\", \"transport\": \"{name}\", \"rows\": {n}, \
             \"delta_rows\": {k}, \"p50_ns\": {}, \"p99_ns\": {}}},",
            p50.as_nanos(),
            p99.as_nanos()
        );
        println!("apply 2x {name:>10}  p50 {p50:>12?}  p99 {p99:>12?}");
    }
    let apply_bytes_p50 = median(&apply_bytes);
    let apply_bytes_max = percentile(&apply_bytes, 1.0);
    let _ = writeln!(
        json,
        "    {{\"workload\": \"tcp_reply_bytes_2x\", \"rows\": {n}, \"delta_rows\": {k}, \
         \"resync_bytes\": {resync_bytes}, \"apply_bytes_p50\": {apply_bytes_p50}, \
         \"apply_bytes_max\": {apply_bytes_max}}},"
    );
    println!(
        "reply bytes 2x tcp  resync {resync_bytes}  apply p50 {apply_bytes_p50}  max \
         {apply_bytes_max}"
    );

    // --------------------------- section 2: serve round-trip latency
    let spill = std::env::temp_dir().join(format!("afd-bench-net-{}", std::process::id()));
    let serve = AfdServe::new(ServeConfig {
        durability: DurabilityConfig::ephemeral(),
        ..ServeConfig::new(&spill)
    })
    .expect("serve boots");
    let front = ServeFront::bind(serve, Default::default(), "127.0.0.1:0").expect("front binds");
    let addr = front.addr().to_string();
    let mut engine = AfdEngine::from_relation(Relation::from_pairs(
        (0..256u64).map(|i| (i % 16, (i % 16) * 3)),
    ));
    engine
        .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
        .unwrap();
    let bytes = engine.save(&SnapshotRequest::default()).unwrap().bytes;
    let mut client = ServeClient::connect(&addr, Duration::from_secs(30)).expect("client connects");
    let handle = client.register(bytes).expect("register over the wire");
    let mut rtt = Vec::with_capacity(rtts);
    for _ in 0..rtts {
        let start = Instant::now();
        let scores = client.scores(handle, 0).expect("scores round trip");
        rtt.push(start.elapsed());
        assert!(scores.bits_eq(&engine.scores(0).unwrap()), "serve diverged");
    }
    client.release(handle).expect("clean release");
    let (p50, p99) = (median(&rtt), percentile(&rtt, 0.99));
    let _ = writeln!(
        json,
        "    {{\"workload\": \"serve_scores_rtt\", \"requests\": {rtts}, \"p50_ns\": {}, \
         \"p99_ns\": {}}},",
        p50.as_nanos(),
        p99.as_nanos()
    );
    println!("serve rtt            p50 {p50:>12?}  p99 {p99:>12?}");

    // ------------------------------- section 3: connection churn rate
    let start = Instant::now();
    for i in 0..churns {
        let mut probe =
            ServeClient::connect(&addr, Duration::from_secs(30)).expect("churn connect");
        probe.hello("", &format!("churn-{i}")).expect("hello");
        probe.stats().expect("census");
    }
    let churn_elapsed = start.elapsed();
    let stats = front.stats();
    assert_eq!(
        stats.connections_accepted,
        churns as u64 + 1,
        "register client + churn probes all accepted"
    );
    assert_eq!(stats.connections_rejected, 0);
    assert_eq!(stats.connections_dropped, 0, "no probe held handles");
    drop(client);
    let per_sec = churns as f64 / churn_elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        json,
        "    {{\"workload\": \"connection_churn\", \"connections\": {churns}, \
         \"elapsed_ns\": {}, \"accepts_per_sec\": {per_sec:.1}}}",
        churn_elapsed.as_nanos()
    );
    println!("connection churn     {churns} conns in {churn_elapsed:?} ({per_sec:.1}/s)");
    let (_, final_stats) = front.stop();
    assert_eq!(final_stats.sessions, 0, "released session lingered");
    let _ = std::fs::remove_dir_all(&spill);

    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"loopback TCP; shard_apply_2x = one churn delta \
         through a 2-shard session in process and over TCP to 2 spawned afd shard-worker \
         --listen children (scores asserted bit-identical every delta); tcp_reply_bytes_2x = whole reply frames of both TCP workers for \
         the subscribe over the seeded rows (a full resync) and per churn apply (a state \
         patch), bar: every apply <= 1/8 of the resync; serve_scores_rtt = framed request/response through ServeFront; \
         connection_churn = connect+hello+census+disconnect cycles against the accept loop \
         with server-side counters audited\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");

    // Bar (smoke runs too): an apply ships a patch of what it touched,
    // not the shard state, so its reply stays far below a resync's.
    if apply_bytes_max * 8 > resync_bytes {
        eprintln!(
            "FAIL: a 1/256 churn apply's replies took {apply_bytes_max} bytes, over 1/8 of the \
             {resync_bytes}-byte resync"
        );
        std::process::exit(1);
    }
}
