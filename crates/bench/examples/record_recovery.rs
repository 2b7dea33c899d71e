//! Records supervised-recovery latency against the checkpoint interval
//! into `BENCH_recovery.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_recovery [--smoke] [out.json]
//! ```
//!
//! The workload: a 2-worker `ShardedSession<TcpShard>` (spawned
//! `afd shard-worker --listen` children on loopback) over the
//! standard 65 536-row bench fixture, churned with planned deltas. For
//! each checkpoint interval K in the sweep, the post-checkpoint delta
//! log is filled to K−1 entries, worker 1 is then killed outright, and
//! the next apply — which transparently relaunches and redials the
//! worker, restores its checkpoint, replays the log and retries the
//! delta — is timed.
//! The trade-off this records: a small K bounds replay work (cheap
//! recovery) but pays a full snapshot round-trip every K applies; a
//! large K amortises checkpointing but replays up to K−1 deltas per
//! recovery.
//!
//! After every recovery the merged scores are asserted **bit-identical**
//! (`f64::to_bits`) to a fault-free in-process twin fed the same
//! history — the recovery path must be invisible in the reads.
//!
//! `--smoke` shrinks the fixture to 4 096 rows, one recovery per K and a
//! capped log fill so CI exercises the full kill-respawn-replay path in
//! well under a second.
//!
//! Requires `target/<profile>/afd` to exist (`cargo build --release`
//! first); the example exits with a clear error otherwise.

use afd_bench::{afd_worker, fixture_relation, median};
use afd_relation::{AttrId, AttrSet, Fd};
use afd_stream::{ChurnPlanner, RecoveryConfig, ShardedSession, TcpShard};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct KResult {
    checkpoint_every: u64,
    fill: u64,
    apply_ns: u128,
    recovery_ns: u128,
    deltas_replayed: u64,
    respawns: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let (n, samples) = if smoke { (4096, 1) } else { (65_536, 5) };

    let fixture = fixture_relation(n, 7);
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let key = AttrSet::single(AttrId(0));
    let delta_rows = (n / 256).max(4);

    let worker = afd_worker();

    let mut results = Vec::new();
    for checkpoint_every in [8u64, 64, 256] {
        // How far the post-checkpoint log is filled before the kill:
        // the worst case (K−1 deltas to replay), capped in smoke mode so
        // CI stays fast.
        let fill = if smoke {
            (checkpoint_every - 1).min(12)
        } else {
            checkpoint_every - 1
        };
        let mut proc: ShardedSession<TcpShard> =
            ShardedSession::spawn(fixture.schema().clone(), key.clone(), 2, &worker)
                .and_then(|s| s.seeded(&fixture))
                .expect("worker processes spawn")
                .with_recovery(RecoveryConfig {
                    checkpoint_every,
                    retry_budget: 3,
                    backoff_ms: 0,
                    request_timeout_ms: 30_000,
                })
                .expect("valid recovery config");
        let cp = proc.subscribe(fd.clone()).expect("2-attr fixture");
        let mut twin =
            ShardedSession::from_relation(fixture.clone(), key.clone(), 2).expect("twin session");
        let ct = twin.subscribe(fd.clone()).expect("2-attr fixture");
        let mut planner_a = ChurnPlanner::new(&fixture);
        let mut planner_b = ChurnPlanner::new(&fixture);

        let mut plain_times = Vec::new();
        let mut recovery_times = Vec::new();
        let mut replayed_counts = Vec::new();
        for _ in 0..samples {
            // Fill the log: `fill` fault-free applies (also sampling the
            // plain apply cost, checkpoint refreshes included).
            for _ in 0..fill {
                let delta = planner_a.next_delta(delta_rows);
                let same = planner_b.next_delta(delta_rows);
                let start = Instant::now();
                black_box(proc.apply(&delta).expect("valid churn delta"));
                plain_times.push(start.elapsed());
                twin.apply(&same).expect("valid churn delta");
            }
            // Kill worker 1 mid-run; the next apply recovers it.
            let before = proc.recovery_report();
            proc.backend_mut(1).kill();
            let delta = planner_a.next_delta(delta_rows);
            let same = planner_b.next_delta(delta_rows);
            let start = Instant::now();
            black_box(proc.apply(&delta).expect("recovery heals the kill"));
            recovery_times.push(start.elapsed());
            twin.apply(&same).expect("valid churn delta");
            let after = proc.recovery_report();
            assert_eq!(
                after.total_respawns(),
                before.total_respawns() + 1,
                "exactly one respawn per kill"
            );
            replayed_counts.push(after.total_deltas_replayed() - before.total_deltas_replayed());
            assert!(
                proc.scores(cp).bits_eq(&twin.scores(ct)),
                "post-recovery scores diverged from the fault-free twin (K={checkpoint_every})"
            );
        }
        let report = proc.recovery_report();
        results.push(KResult {
            checkpoint_every,
            fill,
            apply_ns: median(&plain_times).as_nanos(),
            recovery_ns: median(&recovery_times).as_nanos(),
            deltas_replayed: median(&replayed_counts),
            respawns: report.total_respawns(),
        });
        assert!(proc.shutdown().clean(), "healed workers shut down cleanly");
    }

    // ------------------------------------------------------- report
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"worker_recovery\", \"rows\": {n}, \"shards\": 2, \
             \"checkpoint_every\": {}, \"log_fill\": {}, \"delta_rows\": {delta_rows}, \
             \"apply_ns\": {}, \"recovery_ns\": {}, \"deltas_replayed\": {}, \
             \"respawns\": {}}}{comma}",
            r.checkpoint_every, r.fill, r.apply_ns, r.recovery_ns, r.deltas_replayed, r.respawns,
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"median over samples; worker_recovery = kill one of \
         2 spawned afd shard-worker --listen children with its post-checkpoint log filled to \
         log_fill deltas, then time the next apply, which relaunches and redials the worker, \
         restores its checkpoint, replays the log and retries the in-flight delta; apply_ns = fault-free apply on the same \
         session (checkpoint refreshes included); post-recovery merged scores asserted \
         bit-identical to a fault-free in-process twin\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    for r in &results {
        println!(
            "K={:<4} fill={:<4} apply {:>10}ns  recovery {:>10}ns  replayed {:>4} deltas  \
             ({} respawns)",
            r.checkpoint_every, r.fill, r.apply_ns, r.recovery_ns, r.deltas_replayed, r.respawns,
        );
    }
    println!("wrote {out_path}");
}
