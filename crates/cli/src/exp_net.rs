//! Socket subcommands: `afd shard-worker --listen`, `afd serve
//! --listen` and `afd connect`.
//!
//! Three roles, one wire format (afd-wire frames over TCP):
//!
//! * `afd shard-worker --listen ADDR` — the out-of-process shard: binds
//!   a listener, prints `listening on <addr>` (the real port when `ADDR`
//!   ends in `:0`) as its only stdout line, and serves the shard-worker
//!   protocol, one session per connection, forever. Coordinators either
//!   launch one per shard on `127.0.0.1:0` and read that line, or dial a
//!   listener started by hand. A dropped connection ends its session:
//!   the supervisor reconnects and replays.
//! * `afd serve --listen ADDR` — the socket front door over the
//!   multi-tenant serving layer: accepts typed register / enqueue /
//!   tick / scores / release requests until a client sends shutdown,
//!   then prints the census audit (connection counters included).
//! * `afd connect ADDR` — the end-to-end driver: registers a scripted
//!   session on a remote front door, mirrors every request on an
//!   in-process [`AfdServe`] twin, and audits the remote scores
//!   **bit-identical** (`f64::to_bits`) to the twin's, plus typed
//!   error answers and the census counters.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use afd_engine::{AfdEngine, RestoreRequest, SnapshotRequest, StreamBackend};
use afd_net::{parse_connect_addr, parse_listen_addr, DEFAULT_CLIENT_DEADLINE};
use afd_serve::{
    AfdServe, DisconnectPolicy, DurabilityConfig, FrontConfig, ServeClient, ServeConfig,
    ServeError, ServeFront, SessionHandle,
};

use crate::exp_serve::{scripted_delta, template_engine};

/// `afd shard-worker --listen ADDR`: serves until the accept loop fails.
pub fn shard_worker(args: &[String]) -> ExitCode {
    let err = match args {
        [flag, addr] if flag == "--listen" => match listen(addr) {
            Ok(listener) => format!(
                "accept loop failed: {}",
                afd_stream::run_worker_listener(listener)
            ),
            Err(e) => e,
        },
        _ => {
            eprintln!("usage: afd shard-worker --listen ADDR");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("shard-worker: {err}");
    ExitCode::FAILURE
}

/// Binds `addr` and announces the bound address on stdout: supervisors
/// (and tests) read this line to learn the real port when bound to `:0`.
fn listen(addr: &str) -> Result<std::net::TcpListener, String> {
    let addr = parse_listen_addr(addr).map_err(|e| e.to_string())?;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    Ok(listener)
}

/// `afd serve --listen` flags.
#[derive(Debug, Clone)]
pub struct NetServeOpts {
    /// The address to accept on (`--listen`, required; `:0` picks a
    /// free port and prints it).
    pub listen: String,
    /// Shared-secret token every connection must present
    /// (`--auth-token`; default: no auth).
    pub auth_token: Option<String>,
    /// Connection cap (`--max-connections`, default 64).
    pub max_connections: usize,
    /// Spill directory (`--spill-dir`, default `<tmp>/afd-net-serve-<pid>`).
    pub spill_dir: PathBuf,
    /// Park (evict) a dropped connection's sessions instead of
    /// releasing them (`--park`).
    pub park: bool,
}

impl Default for NetServeOpts {
    fn default() -> Self {
        NetServeOpts {
            listen: String::new(),
            auth_token: None,
            max_connections: 64,
            spill_dir: std::env::temp_dir().join(format!("afd-net-serve-{}", std::process::id())),
            park: false,
        }
    }
}

/// Parses `afd serve --listen ...` flags. Address literals are
/// validated here, at the CLI boundary, so a typo is a typed message
/// before anything binds.
///
/// # Errors
/// A rendered message naming the offending flag.
pub fn parse_net_serve_args(args: &[String]) -> Result<NetServeOpts, String> {
    let mut opts = NetServeOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--listen" => {
                let addr = take(&mut i)?;
                parse_listen_addr(&addr).map_err(|e| e.to_string())?;
                opts.listen = addr;
            }
            "--auth-token" => opts.auth_token = Some(take(&mut i)?),
            "--max-connections" => {
                let v: usize = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
                if v == 0 {
                    return Err("--max-connections must be at least 1".into());
                }
                opts.max_connections = v;
            }
            "--spill-dir" => opts.spill_dir = take(&mut i)?.into(),
            "--park" => opts.park = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if opts.listen.is_empty() {
        return Err("serve over a socket needs --listen ADDR".into());
    }
    Ok(opts)
}

/// `afd serve --listen`: run the socket front door until a client's
/// shutdown request, then print the census audit.
///
/// # Errors
/// A rendered message on bind/config failures.
pub fn serve_listen(opts: &NetServeOpts) -> Result<(), String> {
    let mut cfg = ServeConfig::new(&opts.spill_dir);
    // The socket driver is an ephemeral process: its registry lives and
    // dies with the listener (the durable-journal story is the library
    // path, `afd serve --recover`).
    cfg.durability = DurabilityConfig::ephemeral();
    let serve = AfdServe::new(cfg).map_err(|e| e.to_string())?;
    let front_cfg = FrontConfig {
        auth_token: opts.auth_token.clone(),
        max_connections: opts.max_connections,
        disconnect: if opts.park {
            DisconnectPolicy::Park
        } else {
            DisconnectPolicy::Release
        },
    };
    let mut front = ServeFront::bind(serve, front_cfg, &opts.listen).map_err(|e| e.to_string())?;
    println!("serving on {}", front.addr());
    let _ = std::io::stdout().flush();
    front.wait_shutdown();
    let (_server, stats) = front.stop();
    println!(
        "[serve] final census: sessions={} resident={} pending={} deltas_applied={} ticks={}",
        stats.sessions, stats.resident, stats.pending, stats.deltas_applied, stats.ticks
    );
    println!(
        "[serve] connections: accepted={} rejected={} dropped={}",
        stats.connections_accepted, stats.connections_rejected, stats.connections_dropped
    );
    let _ = std::fs::remove_dir_all(&opts.spill_dir);
    Ok(())
}

/// `afd connect` flags.
#[derive(Debug, Clone)]
pub struct ConnectOpts {
    /// The front door to dial (positional, required).
    pub addr: String,
    /// Shared-secret token (`--token`; sent in the opening hello).
    pub token: Option<String>,
    /// Tenant label for attribution (`--tenant`, default `afd-connect`).
    pub tenant: String,
    /// Rows in the scripted template relation (`--rows`, default 256).
    pub rows: usize,
    /// Master seed (`--seed`, default 20240607).
    pub seed: u64,
    /// Scripted deltas to enqueue (`--deltas`, default 8).
    pub deltas: usize,
    /// Ask the server to shut down after the audit (`--shutdown`).
    pub shutdown: bool,
}

/// Parses `afd connect ADDR ...`. The address is validated here — a
/// malformed literal or a `:0` port is a typed message at the CLI
/// boundary, before any dial.
///
/// # Errors
/// A rendered message naming the offending argument.
pub fn parse_connect_args(args: &[String]) -> Result<ConnectOpts, String> {
    let Some((addr, rest)) = args.split_first() else {
        return Err("usage: afd connect ADDR [--token T] [--tenant NAME] [--rows n] [--seed n] [--deltas n] [--shutdown]".into());
    };
    parse_connect_addr(addr).map_err(|e| e.to_string())?;
    let mut opts = ConnectOpts {
        addr: addr.clone(),
        token: None,
        tenant: "afd-connect".to_string(),
        rows: 256,
        seed: 20240607,
        deltas: 8,
        shutdown: false,
    };
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].clone();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            rest.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let positive = |flag: &str, s: String| -> Result<usize, String> {
            let v: usize = s.parse().map_err(|e| format!("{flag}: {e}"))?;
            if v == 0 {
                return Err(format!("{flag} must be at least 1"));
            }
            Ok(v)
        };
        match flag.as_str() {
            "--token" => opts.token = Some(take(&mut i)?),
            "--tenant" => opts.tenant = take(&mut i)?,
            "--rows" => opts.rows = positive("--rows", take(&mut i)?)?,
            "--seed" => opts.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--deltas" => opts.deltas = positive("--deltas", take(&mut i)?)?,
            "--shutdown" => opts.shutdown = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// `afd connect`: drive a remote front door end-to-end against an
/// in-process twin and audit bit-identity, typed errors, and the
/// connection counters.
///
/// # Errors
/// A rendered message on any transport/serve failure or audit mismatch.
pub fn connect(opts: &ConnectOpts) -> Result<(), String> {
    let mut template = template_engine(opts.rows, opts.seed);
    let bytes = template
        .save(&SnapshotRequest::default())
        .map_err(|e| e.to_string())?
        .bytes;

    // The in-process twin: the same snapshot through the same register
    // path (restore-from-bytes), mirrored request for request.
    let twin_dir = std::env::temp_dir().join(format!("afd-connect-twin-{}", std::process::id()));
    let mut twin_cfg = ServeConfig::new(&twin_dir);
    twin_cfg.durability = DurabilityConfig::ephemeral();
    let mut twin = AfdServe::new(twin_cfg).map_err(|e| e.to_string())?;
    let twin_engine = AfdEngine::restore_with_backend(
        &RestoreRequest::new(bytes.clone()),
        StreamBackend::InProcess,
    )
    .map_err(|e| e.to_string())?;
    let th = twin.register(twin_engine).map_err(|e| e.to_string())?;

    let mut cli =
        ServeClient::connect(&opts.addr, DEFAULT_CLIENT_DEADLINE).map_err(|e| e.to_string())?;
    cli.hello(opts.token.as_deref().unwrap_or(""), &opts.tenant)
        .map_err(|e| e.to_string())?;
    let rh = cli.register(bytes).map_err(|e| e.to_string())?;
    println!("[connect] registered as {rh} on {}", cli.addr());

    for step in 0..opts.deltas {
        let delta = scripted_delta(0, step, opts.rows);
        let remote_pending = cli.enqueue(rh, delta.clone()).map_err(|e| e.to_string())?;
        let twin_pending = twin.enqueue(th, delta).map_err(|e| e.to_string())?;
        if remote_pending != twin_pending {
            return Err(format!(
                "queue depth diverged at step {step}: remote {remote_pending}, twin {twin_pending}"
            ));
        }
    }
    let mut applied = (0usize, 0usize);
    for _ in 0..10_000 {
        let remote = cli.tick().map_err(|e| e.to_string())?;
        let local = twin.tick().map_err(|e| e.to_string())?;
        applied.0 += remote.deltas_applied;
        applied.1 += local.deltas_applied;
        if remote.remaining == 0 && local.remaining == 0 {
            break;
        }
    }
    if applied.0 != applied.1 {
        return Err(format!(
            "applied counts diverged: remote {}, twin {}",
            applied.0, applied.1
        ));
    }
    println!("[connect] {} delta(s) applied on both sides", applied.0);

    let remote_scores = cli.scores(rh, 0).map_err(|e| e.to_string())?;
    let twin_scores = twin.scores(th, 0).map_err(|e| e.to_string())?;
    let identical = remote_scores.bits_eq(&twin_scores);
    println!(
        "[connect] scores bit-identical to in-process twin: {}",
        if identical { "yes" } else { "NO" }
    );

    // Typed-error audit: a fabricated handle must be answered in-band,
    // not by dropping the connection.
    match cli.scores(SessionHandle::from_raw(u32::MAX, u32::MAX), 0) {
        Err(ServeError::StaleHandle(_)) => {
            println!("[connect] fabricated handle answered as typed stale-handle");
        }
        Err(other) => return Err(format!("expected a stale-handle answer, got: {other}")),
        Ok(_) => return Err("a fabricated handle was answered with scores".into()),
    }

    let stats = cli.stats().map_err(|e| e.to_string())?;
    println!(
        "[connect] census: sessions={} pending={} | connections accepted={} rejected={} dropped={}",
        stats.sessions,
        stats.pending,
        stats.connections_accepted,
        stats.connections_rejected,
        stats.connections_dropped
    );
    cli.release(rh).map_err(|e| e.to_string())?;
    if opts.shutdown {
        cli.shutdown().map_err(|e| e.to_string())?;
        println!("[connect] server shut down");
    }
    let _ = std::fs::remove_dir_all(&twin_dir);
    if !identical {
        return Err("remote scores diverged from the in-process twin".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn net_serve_flags_parse_and_validate_addresses() {
        let opts = parse_net_serve_args(&s(&[
            "--listen",
            "127.0.0.1:0",
            "--auth-token",
            "s3cret",
            "--max-connections",
            "3",
            "--park",
        ]))
        .unwrap();
        assert_eq!(opts.listen, "127.0.0.1:0");
        assert_eq!(opts.auth_token.as_deref(), Some("s3cret"));
        assert_eq!(opts.max_connections, 3);
        assert!(opts.park);
        // Address typos are typed at the CLI boundary, before any bind.
        let err = parse_net_serve_args(&s(&["--listen", "nonsense"])).unwrap_err();
        assert!(err.contains("bad socket address"), "{err}");
        // Missing --listen and a zero cap are loud too.
        assert!(parse_net_serve_args(&[]).unwrap_err().contains("--listen"));
        assert!(
            parse_net_serve_args(&s(&["--listen", "127.0.0.1:0", "--max-connections", "0"]))
                .unwrap_err()
                .contains("at least 1")
        );
    }

    #[test]
    fn connect_flags_parse_and_validate_addresses() {
        let opts = parse_connect_args(&s(&[
            "127.0.0.1:4100",
            "--token",
            "t",
            "--tenant",
            "acme",
            "--deltas",
            "3",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:4100");
        assert_eq!(opts.tenant, "acme");
        assert_eq!(opts.deltas, 3);
        assert!(opts.shutdown);
        // Malformed literal: typed.
        let err = parse_connect_args(&s(&["not-an-addr"])).unwrap_err();
        assert!(err.contains("bad socket address"), "{err}");
        // Port 0 cannot be dialed: typed, names the reason.
        let err = parse_connect_args(&s(&["127.0.0.1:0"])).unwrap_err();
        assert!(err.contains("port 0"), "{err}");
        // No address at all: usage.
        assert!(parse_connect_args(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn shard_worker_rejects_bad_listen_addresses() {
        // The parse rejects before any bind; the typed message reaches
        // stderr and the exit code is failure. (ExitCode has no
        // PartialEq; compare the debug form.)
        let failure = format!("{:?}", ExitCode::FAILURE);
        assert_eq!(
            format!("{:?}", shard_worker(&s(&["--listen", "bogus"]))),
            failure
        );
        assert_eq!(format!("{:?}", shard_worker(&s(&["--bogus"]))), failure);
    }
}
