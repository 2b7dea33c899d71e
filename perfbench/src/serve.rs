//! The serve front door under an open-loop mix: one client connection
//! sends half writes (enqueue a 1-row delta, then tick) and half reads
//! (`scores`) on a fixed schedule, 75 % to a hot set that fits in the
//! resident cap and 25 % to the cold rest.

use crate::stats::{median, ms, Metrics, WINDOW};
use crate::Tally;
use afd_engine::{AfdEngine, DeltaRequest, RestoreRequest, SnapshotRequest, SubscribeRequest};
use afd_relation::{AttrId, Fd, Value};
use afd_serve::{
    AfdServe, FrontConfig, ServeClient, ServeConfig, ServeError, ServeFront, ServeStats,
    SessionHandle, TickReport,
};
use afd_stream::{RowDelta, StreamScores};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TEMPLATE_ROWS: usize = 128;
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// Registry shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    pub sessions: usize,
    pub resident_cap: usize,
    /// Sessions `0..hot` take 75 % of the ops.
    pub hot: usize,
    /// Offered load of the open loop, ops per second.
    pub rate: f64,
}

/// A spill directory removed on drop, panics included.
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the open loop drives: the socket client or the in-process twin.
trait Target {
    fn enqueue(&mut self, h: SessionHandle, delta: RowDelta) -> Result<usize, ServeError>;
    fn tick(&mut self) -> Result<TickReport, ServeError>;
    fn scores(&mut self, h: SessionHandle) -> Result<StreamScores, ServeError>;
    fn stats(&self) -> ServeStats;
}

struct Socket {
    client: ServeClient,
    front: ServeFront,
}

impl Target for Socket {
    fn enqueue(&mut self, h: SessionHandle, delta: RowDelta) -> Result<usize, ServeError> {
        self.client.enqueue(h, delta)
    }

    fn tick(&mut self) -> Result<TickReport, ServeError> {
        self.client.tick()
    }

    fn scores(&mut self, h: SessionHandle) -> Result<StreamScores, ServeError> {
        self.client.scores(h, 0)
    }

    fn stats(&self) -> ServeStats {
        self.front.stats()
    }
}

impl Target for AfdServe {
    fn enqueue(&mut self, h: SessionHandle, delta: RowDelta) -> Result<usize, ServeError> {
        AfdServe::enqueue(self, h, delta)
    }

    fn tick(&mut self) -> Result<TickReport, ServeError> {
        AfdServe::tick(self)
    }

    fn scores(&mut self, h: SessionHandle) -> Result<StreamScores, ServeError> {
        AfdServe::scores(self, h, 0)
    }

    fn stats(&self) -> ServeStats {
        AfdServe::stats(self)
    }
}

pub struct Serve {
    plan: ServePlan,
    seed: u64,
    template: Vec<u8>,
    handles: Vec<SessionHandle>,
    socket: Socket,
    open: OpenLoop,
    /// The census when the rounds began.
    before: ServeStats,
    scratch: PathBuf,
    // Declared last: the front door stops before its directory goes.
    _dir: SpillDir,
}

/// A durable registry (default `ServeConfig` journal and fsync) of
/// `plan.sessions` cold copies of `template`, the first `resident_cap`
/// of them (the hot set among them) warmed to resident.
fn registry(
    plan: &ServePlan,
    template: &[u8],
    dir: &Path,
) -> Result<(AfdServe, Vec<SessionHandle>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut serve = AfdServe::new(ServeConfig {
        resident_cap: plan.resident_cap,
        ..ServeConfig::new(dir)
    })
    .map_err(|e| format!("serve: {e}"))?;
    let handles = (0..plan.sessions)
        .map(|_| serve.register_snapshot(template))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("serve register: {e}"))?;
    for &h in &handles[..plan.resident_cap.min(plan.sessions)] {
        serve
            .scores(h, 0)
            .map_err(|e| format!("serve warm-up: {e}"))?;
    }
    Ok((serve, handles))
}

pub fn setup(
    plan: ServePlan,
    seed: u64,
    scratch: &Path,
    rep: usize,
    traced: bool,
) -> Result<Serve, String> {
    let mut engine = AfdEngine::from_relation(crate::fixture(TEMPLATE_ROWS, seed));
    engine
        .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
        .map_err(|e| e.to_string())?;
    let template = engine
        .save(&SnapshotRequest::default())
        .map_err(|e| e.to_string())?
        .bytes;
    let dir = SpillDir(scratch.join(format!("serve-{rep}")));
    let (serve, handles) = registry(&plan, &template, &dir.0)?;
    let front = ServeFront::bind(serve, FrontConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("serve bind: {e}"))?;
    let client = ServeClient::connect(&front.addr().to_string(), CLIENT_DEADLINE)
        .map_err(|e| format!("serve connect: {e}"))?;
    let before = front.stats();
    Ok(Serve {
        plan,
        seed,
        template,
        handles,
        socket: Socket { client, front },
        open: OpenLoop::new(seed, plan.sessions, traced),
        before,
        scratch: scratch.to_path_buf(),
        _dir: dir,
    })
}

/// One scheduled op: a write (`Some(row)`) or a read, on session `target`.
struct Op {
    target: usize,
    write: Option<(i64, i64)>,
}

/// The seeded op sequence; the twin replays the same one.
struct OpGen(u64);

impl OpGen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next(&mut self, plan: &ServePlan) -> Op {
        let r = self.next_u64();
        let target = if r.is_multiple_of(4) {
            plan.hot + (r >> 8) as usize % (plan.sessions - plan.hot)
        } else {
            (r >> 8) as usize % plan.hot
        };
        let write = (r >> 2).is_multiple_of(2);
        let x = ((r >> 40) % 16) as i64;
        let y = ((r >> 48) % 4) as i64;
        Op {
            target,
            write: write.then_some((x, y)),
        }
    }
}

fn row_delta((x, y): (i64, i64)) -> RowDelta {
    RowDelta::insert_only([vec![Value::Int(x), Value::Int(y)]])
}

fn timed<T>(on: bool, into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    into.push(ms(t.elapsed()));
    out
}

/// The open loop's state across rounds.
struct OpenLoop {
    ops: OpGen,
    traced: bool,
    /// Per round, per op: from its due time to its answer (infinite
    /// when it failed).
    latency: Vec<Vec<f64>>,
    lag: Vec<f64>,
    enqueue: Vec<f64>,
    tick: Vec<f64>,
    scores: Vec<f64>,
    /// Writes applied per session, in order — the audit's replay log.
    log: Vec<Vec<(i64, i64)>>,
}

impl OpenLoop {
    fn new(seed: u64, sessions: usize, traced: bool) -> Self {
        OpenLoop {
            ops: OpGen(seed),
            traced,
            latency: Vec::new(),
            lag: Vec::new(),
            enqueue: Vec::new(),
            tick: Vec::new(),
            scores: Vec::new(),
            log: vec![Vec::new(); sessions],
        }
    }

    /// Sends `n_ops` ops at the plan's rate, each timed from when it was
    /// due, checking residency against the cap after every op.
    fn round(
        &mut self,
        target: &mut dyn Target,
        plan: &ServePlan,
        handles: &[SessionHandle],
        n_ops: usize,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut latency = Vec::with_capacity(n_ops);
        let period = Duration::from_secs_f64(1.0 / plan.rate);
        let start = Instant::now() + Duration::from_millis(5);
        for i in 0..n_ops as u32 {
            let due = start + period * i;
            let op = self.ops.next(plan);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            self.lag
                .push(ms(Instant::now().saturating_duration_since(due)));
            let h = handles[op.target];
            let ok = match op.write {
                Some(row) => {
                    let queued = timed(self.traced, &mut self.enqueue, || {
                        target.enqueue(h, row_delta(row))
                    });
                    let ticked =
                        queued.and_then(|_| timed(self.traced, &mut self.tick, || target.tick()));
                    let applied =
                        matches!(&ticked, Ok(r) if r.deltas_applied == 1 && r.deltas_failed == 0);
                    if applied {
                        self.log[op.target].push(row);
                    }
                    applied
                }
                None => timed(self.traced, &mut self.scores, || target.scores(h)).is_ok(),
            };
            latency.push(if ok { ms(due.elapsed()) } else { f64::INFINITY });
            tally.op(ok);
            let resident = target.stats().resident;
            if resident > plan.resident_cap {
                return Err(format!(
                    "serve: {resident} sessions resident, above the cap of {}",
                    plan.resident_cap
                ));
            }
        }
        self.latency.push(latency);
        Ok(())
    }

    /// Replays the most-written hot and cold sessions on never-evicted
    /// control engines and requires bit-identical scores.
    fn audit(
        &self,
        target: &mut dyn Target,
        plan: &ServePlan,
        handles: &[SessionHandle],
        template: &[u8],
    ) -> Result<(), String> {
        let log = &self.log;
        let busiest =
            |range: std::ops::Range<usize>| range.max_by_key(|&s| (log[s].len(), usize::MAX - s));
        for s in [busiest(0..plan.hot), busiest(plan.hot..plan.sessions)]
            .into_iter()
            .flatten()
        {
            let mut control = AfdEngine::restore(&RestoreRequest::new(template.to_vec()))
                .map_err(|e| format!("audit control: {e}"))?;
            for &row in &log[s] {
                control
                    .delta(&DeltaRequest::new(row_delta(row)))
                    .map_err(|e| format!("audit control: {e}"))?;
            }
            let want = control.scores(0).map_err(|e| e.to_string())?;
            let got = target
                .scores(handles[s])
                .map_err(|e| format!("audit read: {e}"))?;
            if !got.bits_eq(&want) {
                return Err(format!(
                    "serve: session {s} after {} writes differs from its never-evicted control",
                    log[s].len()
                ));
            }
        }
        Ok(())
    }
}

/// Runs one round of the open loop through the socket front door:
/// `budget_s` at the plan's rate, and at least one window of ops.
pub fn round(serve: &mut Serve, budget_s: f64, tally: &mut Tally) -> Result<(), String> {
    let n_ops = WINDOW.max((budget_s * serve.plan.rate) as usize);
    serve
        .open
        .round(&mut serve.socket, &serve.plan, &serve.handles, n_ops, tally)
}

/// Audits the registry, stops the front door and records
/// `serve_p50_ms` / `serve_p99_ms`. Traced, it also reports each
/// request kind's time, the registry counters over the rounds, and the
/// front door's share of the median: the same op sequence replayed on
/// an in-process twin registry.
pub fn finish(serve: Serve, tally: &mut Tally) -> Result<Metrics, String> {
    let Serve {
        plan,
        seed,
        template,
        handles,
        mut socket,
        open,
        before,
        scratch,
        _dir,
    } = serve;
    let after = socket.stats();
    open.audit(&mut socket, &plan, &handles, &template)?;
    drop(socket.client);
    let _ = socket.front.stop();
    let mut m = Metrics::default();
    m.put_p50_p99("serve", &open.latency)?;
    if !open.traced {
        return Ok(m);
    }
    let ops = open.lag.len() as f64;
    let restores = (after.restores - before.restores) as f64;
    m.put("serve.enqueue_ms", median(&open.enqueue), "ms");
    m.put("serve.tick_ms", median(&open.tick), "ms");
    m.put("serve.scores_ms", median(&open.scores), "ms");
    m.put("serve.restores", restores, "count");
    m.put(
        "serve.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    m.put(
        "serve.spill_bytes",
        after.spill_bytes as f64 - before.spill_bytes as f64,
        "B",
    );
    m.put(
        "serve.journal_appends",
        (after.journal_appends - before.journal_appends) as f64,
        "count",
    );
    m.put("serve.resident_hit_ratio", 1.0 - restores / ops, "ratio");
    m.put("serve.gen_lag_ms", open.lag.iter().sum::<f64>() / ops, "ms");
    let twin_dir = SpillDir(scratch.join("serve-twin"));
    let (mut twin, twin_handles) = registry(&plan, &template, &twin_dir.0)?;
    let mut twin_loop = OpenLoop::new(seed, plan.sessions, false);
    for round in &open.latency {
        twin_loop.round(&mut twin, &plan, &twin_handles, round.len(), tally)?;
    }
    let mut twin_m = Metrics::default();
    twin_m.put_p50_p99("twin", &twin_loop.latency)?;
    m.put(
        "serve.front_overhead_ms",
        m.values["serve_p50_ms"].0 - twin_m.values["twin_p50_ms"].0,
        "ms",
    );
    Ok(m)
}
