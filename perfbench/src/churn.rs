//! Sharded delta churn: the same 1/256 churn deltas fed, one at a time,
//! to a 2-shard engine over TCP `afd shard-worker` processes and to a
//! 2-shard in-process engine.

use crate::stats::{median, ms, peak_rss_mib, reset_peak_rss, Metrics, WINDOW};
use crate::trace::{lock, ApplySpan, Probe, TimedShard, TimedTransport};
use crate::Tally;
use afd_engine::{
    AfdEngine, DeltaRequest, EngineConfig, RecoveryConfig, StreamBackend, SubscribeRequest,
};
use afd_net::TcpTransport;
use afd_relation::{AttrId, Fd, Relation};
use afd_stream::{
    ChurnPlanner, InProcShard, RemoteShard, RowDelta, ShardBackend, ShardedSession, StreamScores,
};
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

pub const SHARDS: usize = 2;

/// A live `afd shard-worker --listen` child, killed and reaped on drop.
pub struct TcpWorker {
    child: Child,
    addr: String,
}

impl TcpWorker {
    fn spawn(afd: &Path) -> Result<TcpWorker, String> {
        let child = Command::new(afd)
            .args(["shard-worker", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", afd.display()))?;
        let mut worker = TcpWorker {
            addr: String::new(),
            child,
        };
        let mut line = String::new();
        let stdout = worker.child.stdout.take().expect("stdout is piped");
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("worker announce: {e}"))?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => worker.addr = addr.to_string(),
            None => return Err(format!("worker announced {line:?}")),
        }
        Ok(worker)
    }
}

impl Drop for TcpWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the churn loop drives: a delta in, the subscribed scores out.
pub trait Churn {
    fn apply(&mut self, delta: &RowDelta) -> Result<(), String>;
    fn scores(&self) -> StreamScores;
    fn compact(&mut self) -> Result<(), String>;
    fn recoveries(&self) -> u64;
    /// Times one `merged_table` read, where the session is reachable
    /// (traced sessions only; the engine keeps its session private).
    fn merge_ms(&self) -> Option<f64>;
}

impl Churn for AfdEngine {
    fn apply(&mut self, delta: &RowDelta) -> Result<(), String> {
        self.delta(&DeltaRequest::new(delta.clone()))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn scores(&self) -> StreamScores {
        AfdEngine::scores(self, 0).expect("candidate 0 is subscribed")
    }

    fn compact(&mut self) -> Result<(), String> {
        AfdEngine::compact(self)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn recoveries(&self) -> u64 {
        self.recovery_report().total_respawns()
    }

    fn merge_ms(&self) -> Option<f64> {
        None
    }
}

impl<B: ShardBackend> Churn for ShardedSession<B> {
    fn apply(&mut self, delta: &RowDelta) -> Result<(), String> {
        ShardedSession::apply(self, delta)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn scores(&self) -> StreamScores {
        ShardedSession::scores(self, 0)
    }

    fn compact(&mut self) -> Result<(), String> {
        ShardedSession::compact(self)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn recoveries(&self) -> u64 {
        self.recovery_report().total_respawns()
    }

    fn merge_ms(&self) -> Option<f64> {
        let t = Instant::now();
        let table = self.merged_table(0);
        let elapsed = ms(t.elapsed());
        table.is_ok().then_some(elapsed)
    }
}

type TracedTcp = ShardedSession<TimedShard<RemoteShard<TimedTransport<TcpTransport>>>>;
type TracedLocal = ShardedSession<TimedShard<InProcShard>>;

enum Engines {
    Plain {
        tcp: Box<AfdEngine>,
        local: Box<AfdEngine>,
    },
    Traced {
        tcp: Box<TracedTcp>,
        local: Box<TracedLocal>,
        tcp_probes: Vec<Probe>,
        local_probes: Vec<Probe>,
    },
}

pub struct Stream {
    fixture: Relation,
    engines: Engines,
    // Declared last: workers outlive the sessions dialed into them.
    workers: Vec<TcpWorker>,
}

fn fd() -> Fd {
    Fd::linear(AttrId(0), AttrId(1))
}

fn engine(fixture: &Relation, threads: usize, backend: StreamBackend) -> Result<AfdEngine, String> {
    let mut engine = AfdEngine::from_relation(fixture.clone())
        .with_config(EngineConfig {
            threads: Some(threads),
            shards: SHARDS,
            backend,
            ..EngineConfig::default()
        })
        .map_err(|e| e.to_string())?;
    engine
        .subscribe(&SubscribeRequest::new(fd()))
        .map_err(|e| format!("subscribe: {e}"))?;
    Ok(engine)
}

/// Builds a session exactly as `AfdEngine::ensure_session` does, over
/// the given (decorated) backends, then subscribes `X -> Y`.
fn session<B: ShardBackend>(
    fixture: &Relation,
    threads: usize,
    backends: Vec<B>,
) -> Result<ShardedSession<B>, String> {
    let fd = fd();
    let mut session =
        ShardedSession::with_backends(fixture.schema().clone(), fd.lhs().clone(), backends)
            .map_err(|e| e.to_string())?
            .with_threads(threads)
            .with_recovery(RecoveryConfig::default())
            .map_err(|e| e.to_string())?
            .seeded(fixture)
            .map_err(|e| e.to_string())?;
    session.subscribe(fd).map_err(|e| e.to_string())?;
    Ok(session)
}

pub fn setup(
    rows: usize,
    seed: u64,
    threads: usize,
    afd: &Path,
    traced: bool,
) -> Result<Stream, String> {
    let fixture = crate::fixture(rows, seed);
    let workers = (0..SHARDS)
        .map(|_| TcpWorker::spawn(afd))
        .collect::<Result<Vec<_>, _>>()?;
    let engines = if traced {
        let tcp_probes: Vec<Probe> = (0..SHARDS).map(|_| Probe::default()).collect();
        let local_probes: Vec<Probe> = (0..SHARDS).map(|_| Probe::default()).collect();
        let remotes = workers
            .iter()
            .zip(&tcp_probes)
            .map(|(w, p)| {
                let transport = TcpTransport::connect(&w.addr).map_err(|e| e.to_string())?;
                let shard = RemoteShard::from_transport(
                    TimedTransport::new(transport, p.clone()),
                    fixture.schema(),
                )
                .map_err(|e| e.to_string())?;
                Ok(TimedShard::new(shard, p.clone()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let locals = local_probes
            .iter()
            .map(|p| TimedShard::new(InProcShard::new(fixture.schema().clone()), p.clone()))
            .collect();
        Engines::Traced {
            tcp: Box::new(session(&fixture, threads, remotes)?),
            local: Box::new(session(&fixture, threads, locals)?),
            tcp_probes,
            local_probes,
        }
    } else {
        let addrs = workers.iter().map(|w| w.addr.clone()).collect();
        Engines::Plain {
            tcp: Box::new(engine(&fixture, threads, StreamBackend::Tcp(addrs))?),
            local: Box::new(engine(&fixture, threads, StreamBackend::InProcess)?),
        }
    };
    Ok(Stream {
        fixture,
        engines,
        workers,
    })
}

impl Stream {
    pub fn fixture(&self) -> &Relation {
        &self.fixture
    }

    /// Peak RSS of the shard worker processes, in MiB.
    pub fn workers_rss_mib(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| peak_rss_mib(w.child.id()))
            .sum()
    }

    pub fn reset_workers_rss(&self) {
        for w in &self.workers {
            reset_peak_rss(w.child.id());
        }
    }

    fn pair(&mut self) -> (&mut dyn Churn, &mut dyn Churn) {
        match &mut self.engines {
            Engines::Plain { tcp, local } => (tcp.as_mut(), local.as_mut()),
            Engines::Traced { tcp, local, .. } => (tcp.as_mut(), local.as_mut()),
        }
    }
}

/// The churn loop's state across rounds: the planner and, per round,
/// each engine's per-apply latencies.
pub struct Churner<'a> {
    planner: ChurnPlanner<'a>,
    k: usize,
    tcp: Vec<Vec<f64>>,
    local: Vec<Vec<f64>>,
    merge: Vec<f64>,
    /// Probe records taken before the loop (seeding, subscription).
    skip_applies: usize,
    skip_snapshots: Vec<usize>,
}

impl<'a> Churner<'a> {
    /// `fixture` is a copy of the stream's, so the planner's borrow
    /// does not pin the engines.
    pub fn new(fixture: &'a Relation, stream: &Stream) -> Churner<'a> {
        let probes: &[Probe] = match &stream.engines {
            Engines::Plain { .. } => &[],
            Engines::Traced { tcp_probes, .. } => tcp_probes,
        };
        let skip_applies = probes.first().map_or(0, |p| lock(p).applies.len());
        let skip_snapshots = probes.iter().map(|p| lock(p).snapshots.len()).collect();
        Churner {
            planner: ChurnPlanner::new(fixture),
            k: fixture.n_rows() / 256,
            tcp: Vec::new(),
            local: Vec::new(),
            merge: Vec::new(),
            skip_applies,
            skip_snapshots,
        }
    }

    /// Feeds deltas to both engines for `budget_s` (at least one
    /// window), checking bit-identical scores after every delta.
    pub fn round(
        &mut self,
        stream: &mut Stream,
        budget_s: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (tcp, local) = stream.pair();
        let (mut tcp_ms, mut local_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while tcp_ms.len() < WINDOW || start.elapsed().as_secs_f64() < budget_s {
            let delta = self.planner.next_delta(self.k);
            let t = Instant::now();
            let tcp_ok = tcp.apply(&delta);
            tcp_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            let local_ok = local.apply(&delta);
            local_ms.push(ms(t.elapsed()));
            tally.op(tcp_ok.is_ok());
            tally.op(local_ok.is_ok());
            tcp_ok
                .and(local_ok)
                .map_err(|e| format!("stream apply: {e}"))?;
            if !tcp.scores().bits_eq(&local.scores()) {
                return Err("stream: tcp scores diverged from the in-process twin".into());
            }
            self.merge.extend(local.merge_ms());
        }
        self.tcp.push(tcp_ms);
        self.local.push(local_ms);
        Ok(())
    }

    /// Compacts both engines (each shard verifies against the batch
    /// kernels), re-checks the scores, and reports the metrics.
    pub fn finish(self, stream: &mut Stream) -> Result<Metrics, String> {
        let (tcp, local) = stream.pair();
        tcp.compact()
            .map_err(|e| format!("stream: tcp compaction verification failed: {e}"))?;
        local
            .compact()
            .map_err(|e| format!("stream: in-process compaction verification failed: {e}"))?;
        if !tcp.scores().bits_eq(&local.scores()) {
            return Err("stream: scores diverged after compaction".into());
        }
        let mut m = Metrics::default();
        m.put_p50_p99("tcp_apply", &self.tcp)?;
        m.put_p50_p99("local_apply", &self.local)?;
        if let Engines::Traced {
            tcp,
            tcp_probes,
            local_probes,
            ..
        } = &stream.engines
        {
            m.put("stream.recoveries", tcp.recoveries() as f64, "count");
            self.layers(&mut m, tcp_probes, local_probes);
        }
        Ok(m)
    }

    fn layers(&self, m: &mut Metrics, tcp_probes: &[Probe], local_probes: &[Probe]) {
        let tcp_all: Vec<f64> = self.tcp.concat();
        let local_all: Vec<f64> = self.local.concat();
        // Seeding applied the same number of times to every shard of
        // both sessions, so one offset serves all probes.
        let tcp_slow = slowest(tcp_probes, self.skip_applies);
        let local_slow = slowest(local_probes, self.skip_applies);
        let totals =
            |spans: &[ApplySpan]| -> Vec<f64> { spans.iter().map(|x| ms(x.total)).collect() };
        let coord = |session: &[f64], shard: &[ApplySpan]| -> f64 {
            let v: Vec<f64> = session
                .iter()
                .zip(shard)
                .map(|(a, b)| a - ms(b.total))
                .collect();
            median(&v)
        };
        m.put(
            "stream.local.shard_apply_ms",
            median(&totals(&local_slow)),
            "ms",
        );
        m.put(
            "stream.local.coord_ms",
            coord(&local_all, &local_slow),
            "ms",
        );
        m.put("stream.merge_ms", median(&self.merge), "ms");
        m.put(
            "stream.tcp.shard_apply_ms",
            median(&totals(&tcp_slow)),
            "ms",
        );
        m.put("stream.tcp.coord_ms", coord(&tcp_all, &tcp_slow), "ms");
        let codec: Vec<f64> = tcp_slow
            .iter()
            .map(|x| ms(x.total) - ms(x.send) - ms(x.recv))
            .collect();
        m.put("stream.remote_codec_ms", median(&codec), "ms");
        let (mut sends, mut recvs, mut ckpts) = (Vec::new(), Vec::new(), Vec::new());
        let (mut out, mut inn) = (0u64, 0u64);
        for (p, skip) in tcp_probes.iter().zip(&self.skip_snapshots) {
            let probe = lock(p);
            for a in &probe.applies[self.skip_applies..] {
                sends.push(ms(a.send));
                recvs.push(ms(a.recv));
                out += a.bytes_out;
                inn += a.bytes_in;
            }
            ckpts.extend(probe.snapshots[*skip..].iter().map(|d| ms(*d)));
        }
        let applies = tcp_all.len() as f64;
        m.put("net.send_ms", median(&sends), "ms");
        m.put("net.recv_ms", median(&recvs), "ms");
        m.put("net.bytes_out_per_apply", out as f64 / applies, "B");
        m.put("net.bytes_in_per_apply", inn as f64 / applies, "B");
        m.put(
            "stream.checkpoint_ms",
            if ckpts.is_empty() {
                0.0
            } else {
                median(&ckpts)
            },
            "ms",
        );
        m.put("stream.checkpoints", ckpts.len() as f64, "count");
    }
}

/// Slowest shard of each apply, by apply index.
fn slowest(probes: &[Probe], skip: usize) -> Vec<ApplySpan> {
    let per_shard: Vec<Vec<ApplySpan>> = probes
        .iter()
        .map(|p| lock(p).applies[skip..].to_vec())
        .collect();
    (0..per_shard[0].len())
        .map(|i| {
            *per_shard
                .iter()
                .map(|spans| &spans[i])
                .max_by_key(|span| span.total)
                .expect("at least one shard")
        })
        .collect()
}
