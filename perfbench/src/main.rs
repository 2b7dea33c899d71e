//! One run of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     --afd <path to the afd binary> --scratch <writable dir>
//! ```
//!
//! Every workload drives the same three paths a user waits on — RWD
//! ranking and discovery through `AfdEngine`, sharded delta churn over
//! TCP shard workers beside an in-process twin, and an open-loop mix
//! through the serve front door — so every run reports every
//! end-to-end metric. The workloads differ in which path runs at full
//! size: the named one does, the other two run small. That makes each
//! workload the one that exercises its path's size-dependent costs and
//! the others the ones that bypass them.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload untraced, then again with timing decorators around the
//! public layer boundaries, and prints the per-layer metrics plus the
//! traced-vs-untraced overhead of each end-to-end timing. The last
//! stdout line is the JSON result; earlier lines are the run stamp and
//! a readable table.

mod churn;
mod rwd;
mod serve;
mod stats;
mod trace;

use serve::ServePlan;
use stats::{json_num, median, peak_rss_mib, reset_peak_rss, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed that fixes the shape (value skews) of every generated
/// stream fixture and serve template; the run seed draws the rows. With
/// the shape drawn from the run seed too, as `afd_bench::fixture_relation`
/// does, state sizes and so apply costs would differ by seed.
const SHAPE_SEED: u64 = 7;

/// `afd_bench::fixture_relation`'s relation (|dom X| = n/8,
/// |dom Y| = n/32, 1 % errors) with the skews of [`SHAPE_SEED`] and the
/// rows of `seed`.
pub fn fixture(n: usize, seed: u64) -> afd_relation::Relation {
    use rand::SeedableRng;
    let mut p = afd_synth::GenParams::sample_with_rows(
        n,
        &mut rand::rngs::StdRng::seed_from_u64(SHAPE_SEED),
    );
    p.dom_x = (n / 8).max(4);
    p.dom_y = (n / 32).max(3);
    p.error_rate = 0.01;
    afd_synth::generate_positive(&p, &mut rand::rngs::StdRng::seed_from_u64(seed)).0
}

/// Ops attempted and failed across all paths of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The open loop's offered rate: a quarter of the closed-loop capacity
/// (about 2 000 ops/s) of the `serve_mix` registry on a 2-core x86-64
/// host. At half capacity, queueing behind cold-session restores made
/// `serve_p50_ms` range from 0.25 to 1.3 ms between runs there.
const SERVE_RATE: f64 = 500.0;

/// A path run small, where it is not the workload's subject.
const SMALL_RWD_SCALE: f64 = 0.005;
const SMALL_STREAM_ROWS: usize = 4_096;
const SMALL_SERVE: ServePlan = ServePlan {
    sessions: 256,
    resident_cap: 256,
    hot: 128,
    rate: SERVE_RATE,
};

struct Workload {
    name: &'static str,
    rwd_scale: f64,
    stream_rows: usize,
    serve: ServePlan,
    /// Share of `--seconds` given to the rwd, stream and serve paths.
    shares: [f64; 3],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rwd_batch",
        rwd_scale: 0.02,
        stream_rows: SMALL_STREAM_ROWS,
        serve: SMALL_SERVE,
        shares: [0.6, 0.15, 0.25],
    },
    Workload {
        name: "stream_churn",
        rwd_scale: SMALL_RWD_SCALE,
        stream_rows: 65_536,
        serve: SMALL_SERVE,
        shares: [0.45, 0.4, 0.15],
    },
    Workload {
        name: "serve_mix",
        rwd_scale: SMALL_RWD_SCALE,
        stream_rows: SMALL_STREAM_ROWS,
        serve: ServePlan {
            sessions: 2_048,
            resident_cap: 256,
            hot: 128,
            rate: SERVE_RATE,
        },
        shares: [0.2, 0.15, 0.65],
    },
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Interleaved measurement rounds per run.
const ROUNDS: usize = 3;

/// End-to-end timings whose tracing overhead the traced run reports.
const TIMINGS: [&str; 8] = [
    "rank_s",
    "discover_s",
    "tcp_apply_p50_ms",
    "tcp_apply_p99_ms",
    "local_apply_p50_ms",
    "local_apply_p99_ms",
    "serve_p50_ms",
    "serve_p99_ms",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    afd: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        afd: PathBuf::from(get("--afd")?),
        scratch: PathBuf::from(get("--scratch")?),
    })
}

struct Paths {
    rwd: rwd::Rwd,
    stream: churn::Stream,
    serve: serve::Serve,
}

fn setup(args: &Args, threads: usize, rep: usize, traced: bool) -> Result<Paths, String> {
    let w = args.workload;
    Ok(Paths {
        rwd: rwd::setup(w.rwd_scale, args.seed, threads)?,
        stream: churn::setup(w.stream_rows, args.seed, threads, &args.afd, traced)?,
        serve: serve::setup(w.serve, args.seed, &args.scratch, rep, traced)?,
    })
}

/// Runs the three paths in [`ROUNDS`] interleaved rounds, so a burst of
/// host noise lands in one round of each path rather than all of one,
/// then checks every path's outputs and collects the metrics.
/// `peak_rss_mib` is the median over rounds of the round's peak RSS,
/// this process plus the shard workers: peaks restart at each round, so
/// set-up and the gates' reference computations stay out, and the
/// allocator's run-to-run luck in one pass does not set the run's value.
fn measure(
    args: &Args,
    mut paths: Paths,
    traced: bool,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let [rwd_s, stream_s, serve_s] = args
        .workload
        .shares
        .map(|share| args.seconds * share / ROUNDS as f64);
    let mut m = Metrics::default();
    if traced {
        m.absorb(rwd::layers(&mut paths.rwd));
    }
    let fixture = paths.stream.fixture().clone();
    let mut churner = churn::Churner::new(&fixture, &paths.stream);
    // Set-up wrote and deleted thousands of spill files; flush them now
    // so the rounds do not pay for that writeback.
    let _ = std::process::Command::new("sync").status();
    let mut rss = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        reset_peak_rss(std::process::id());
        paths.stream.reset_workers_rss();
        rwd::round(&mut paths.rwd, rwd_s, tally);
        churner.round(&mut paths.stream, stream_s, tally)?;
        serve::round(&mut paths.serve, serve_s, tally)?;
        rss.push(peak_rss_mib(std::process::id()) + paths.stream.workers_rss_mib());
    }
    m.put("peak_rss_mib", median(&rss), "MiB");
    m.absorb(rwd::finish(&paths.rwd, args.seed)?);
    m.absorb(churner.finish(&mut paths.stream)?);
    m.absorb(serve::finish(paths.serve, tally)?);
    Ok(m)
}

fn untraced(args: &Args, threads: usize, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut paths: Option<Paths> = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first: its workers and spill files go.
        drop(paths.take());
        let start = Instant::now();
        let p = setup(args, threads, rep, false)?;
        setup_s.push(start.elapsed().as_secs_f64());
        paths = Some(p);
    }
    let mut m = measure(args, paths.expect("at least one set-up"), false, tally)?;
    m.put("setup_s", median(&setup_s), "s");
    m.samples.insert("setup_s".into(), (SETUP_REPS, 1));
    Ok(m)
}

fn traced(args: &Args, threads: usize, tally: &mut Tally) -> Result<Metrics, String> {
    let plain = measure(args, setup(args, threads, 0, false)?, false, tally)?;
    let mut traced = measure(args, setup(args, threads, 1, true)?, true, tally)?;
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "tracing overhead", "untraced", "traced", "overhead"
    );
    for name in TIMINGS {
        let (a, b) = (plain.values[name].0, traced.values[name].0);
        println!(
            "{name:<22} {a:>12.4} {b:>12.4} {:>8.1}%",
            (b / a - 1.0) * 100.0
        );
        traced.put(&format!("overhead.{name}"), b / a - 1.0, "ratio");
    }
    Ok(traced)
}

/// The result line: `correct`, op counts, and the metrics in `names`.
fn result_line(correct: bool, tally: &Tally, m: &Metrics, names: &[String]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, name) in names.iter().enumerate() {
        let (value, unit) = m.values[name];
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut tally = Tally::default();
    let run = if args.trace {
        traced(&args, threads, &mut tally)
    } else {
        untraced(&args, threads, &mut tally)
    };
    let mut m = match run {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            println!("{}", result_line(false, &tally, &Metrics::default(), &[]));
            return ExitCode::FAILURE;
        }
    };
    m.put(
        "fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    let mut samples = String::new();
    for (name, (n, windows)) in &m.samples {
        let sep = if samples.is_empty() { "" } else { ", " };
        let _ = write!(
            samples,
            "{sep}\"{name}\": {{\"n\": {n}, \"windows\": {windows}}}"
        );
    }
    println!(
        "stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {threads}, \
         \"threads\": {threads}, \"commit\": \"{}\", \"source\": \"{}\", \"serve_rate_per_s\": {}, \
         \"attempted\": {}, \"failed\": {}, \"samples\": {{{samples}}}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into()),
        args.workload.serve.rate,
        tally.attempted,
        tally.failed,
    );
    for (name, (value, unit)) in &m.values {
        println!("{name:<32} {value:>14.6} {unit}");
    }
    let names: Vec<String> = m
        .values
        .keys()
        .filter(|n| args.trace != is_end_to_end(n))
        .cloned()
        .collect();
    println!("{}", result_line(true, &tally, &m, &names));
    ExitCode::SUCCESS
}

/// The bounded end-to-end metrics. `local_apply_p50_ms`,
/// `local_apply_p99_ms`, `serve_p99_ms` and `serve_p50_ms` go with the
/// per-layer metrics. Where the stream path runs small the in-process
/// apply takes about 0.1 ms, and on a shared 2-core VM its median
/// moved with host load by up to 1.4× between rounds of one run, so
/// its spread over ten seeds reached 0.25–0.30 of its median; the TCP
/// apply, which stays bounded, runs the same stream kernels in the
/// workers.
/// The p99s time millisecond operations, so they track the host's
/// scheduling stalls (about 1 % of wall time, 1–5 ms each, on a 2-core
/// VM) more than the program; `serve_p50_ms` on `serve_mix` queues
/// behind fsync-bound restores and moved by more than its bound between
/// ten-run sets of the same code there.
const UNBOUNDED: [&str; 4] = [
    "local_apply_p50_ms",
    "local_apply_p99_ms",
    "serve_p99_ms",
    "serve_p50_ms",
];

fn is_end_to_end(name: &str) -> bool {
    name == "setup_s"
        || name == "peak_rss_mib"
        || (TIMINGS.contains(&name) && !UNBOUNDED.contains(&name))
}
