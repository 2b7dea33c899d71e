//! `afd` — the experiment runner regenerating every table and figure of
//! "Measuring Approximate Functional Dependencies: A Comparative Study"
//! (ICDE 2024).
//!
//! ```text
//! afd <experiment> [flags]
//!
//! experiments:
//!   fig1     separation on ERR / UNIQ / SKEW         (Figure 1)
//!   fig3     average B+/B- values on the sweeps      (Figure 3)
//!   table2   RWD benchmark overview                  (Table II)
//!   fig2a    AUC-PR heatmap on RWD-                  (Figure 2a / Table VI)
//!   fig2b    rank at max recall                      (Figure 2b)
//!   fig2c    mislabeled-candidate structure          (Figure 2c)
//!   fig4     PR curves per measure                   (Figure 4)
//!   table3   property summary                        (Table III)
//!   table5   measure runtimes within budget          (Table V)
//!   table7   candidates outside RWD-                 (Table VII)
//!   table8   AUC on RWDe per error type x level      (Table VIII)
//!   table9   winning numbers on RWDe                 (Table IX)
//!   export-rwd  write the benchmark as CSV + ground truth
//!   nonlinear   extension: non-linear lattice discovery on RWD
//!   mc-rfi      extension: Monte-Carlo RFI' vs exact RFI'+
//!   stream      extension: incremental (delta-maintained) scoring under churn
//!   profile <csv>  rank the AFDs of your own CSV file
//!   save <csv> <snapshot>  persist a streamed session as a wire snapshot
//!   load <snapshot>        restore a wire snapshot and print its scores
//!   serve    extension: multi-tenant serving layer under a scripted
//!            workload (own flags: --sessions n, --resident-cap n,
//!            --ticks n, --queue-cap n, --global-cap n, --rows n,
//!            --seed n, --spill-dir d, --process)
//!   serve --listen ADDR  socket front door over the serving layer
//!            (own flags: --auth-token t, --max-connections n,
//!            --spill-dir d, --park); runs until a client sends shutdown
//!   connect ADDR  drive a remote `serve --listen` end-to-end and audit
//!            bit-identity against an in-process twin (own flags:
//!            --token t, --tenant s, --rows n, --seed n, --deltas n,
//!            --shutdown)
//!   shard-worker --listen ADDR  out-of-process shard serving afd-wire
//!                 over TCP (the engine's process backend launches one per
//!                 shard on 127.0.0.1:0; start one by hand to dial it)
//!   all      everything above (paper artifacts + extensions)
//!
//! flags:
//!   --scale <f64>      RWD row scale vs. Table II (default 0.02)
//!   --seed <u64>       master seed (default 20240607)
//!   --threads <n>      scoring threads (default: available cores)
//!   --budget-ms <n>    per-measure per-relation budget (default 2000)
//!   --paper-scale      run synthetic sweeps at full 50x50 paper scale
//!   --shards <n>       stream experiment: sharded session fan-out (default 1)
//!   --checkpoint-every <n>  stream experiment: recovery checkpoint interval
//!                      in applies (default 64, at least 1)
//!   --retry-budget <n>  stream experiment: worker respawn attempts per
//!                      failing request before poisoning (default 3, at least 1)
//!   --out <dir>        CSV output directory (default results/)
//!
//! Every experiment asks its questions through the `afd-engine` front
//! door (`AfdEngine` requests); no experiment touches `StreamSession`,
//! `score_matrix` or the discovery entry points directly.
//! ```

mod ctx;
mod exp_export;
mod exp_extensions;
mod exp_net;
mod exp_profile;
mod exp_rwd;
mod exp_rwde;
mod exp_serve;
mod exp_snapshot;
mod exp_stream;
mod exp_synth;
mod exp_table3;
mod render;

use std::process::ExitCode;
use std::time::Duration;

use ctx::{Config, RwdEval};

const USAGE: &str = "usage: afd <experiment> [--scale f] [--seed n] [--threads n] \
[--budget-ms n] [--paper-scale] [--shards n] [--checkpoint-every n] [--retry-budget n] \
[--out dir]\n\
experiments: fig1 fig3 table2 fig2a fig2b fig2c fig4 table3 table5 table7 table8 table9\n             nonlinear mc-rfi stream export-rwd all | profile <file.csv> [--measure m] [--max-lhs k]\n             save <in.csv> <out.snapshot> | load <snapshot> | shard-worker --listen addr\n             serve [--sessions n] [--resident-cap n] [--ticks n] [--queue-cap n]\n                   [--global-cap n] [--rows n] [--seed n] [--spill-dir d] [--process] [--recover]\n             serve --listen addr [--auth-token t] [--max-connections n] [--spill-dir d] [--park]\n             connect addr [--token t] [--tenant s] [--rows n] [--seed n] [--deltas n] [--shutdown]";

fn parse_flags(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
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
            "--scale" => cfg.scale = take(&mut i)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed" => cfg.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                cfg.threads = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if cfg.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--budget-ms" => {
                cfg.budget = Duration::from_millis(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?,
                )
            }
            "--paper-scale" => cfg.paper_scale = true,
            "--shards" => {
                cfg.shards = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if cfg.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if cfg.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
            }
            "--retry-budget" => {
                cfg.retry_budget = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--retry-budget: {e}"))?;
                if cfg.retry_budget == 0 {
                    return Err("--retry-budget must be at least 1".into());
                }
            }
            "--out" => cfg.out_dir = take(&mut i)?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if cmd == "shard-worker" {
        return exp_net::shard_worker(&args[1..]);
    }
    if cmd == "connect" {
        return match exp_net::parse_connect_args(&args[1..]).and_then(|o| exp_net::connect(&o)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "save" || cmd == "load" {
        let run = if cmd == "save" {
            exp_snapshot::save(&args[1..])
        } else {
            exp_snapshot::load(&args[1..])
        };
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "serve" {
        // `--listen` selects the socket front door; everything else is
        // the scripted in-process workload.
        let run = if args[1..].iter().any(|a| a == "--listen") {
            exp_net::parse_net_serve_args(&args[1..]).and_then(|o| exp_net::serve_listen(&o))
        } else {
            exp_serve::parse_serve_args(&args[1..]).and_then(|o| exp_serve::serve(&o))
        };
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "profile" {
        return match exp_profile::parse_profile_args(&args[1..])
            .and_then(|o| exp_profile::profile(&o))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse_flags(&args[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // `table9` is produced by the same grid run as `table8`.
    let commands: Vec<&str> = if cmd == "all" {
        vec![
            "table2",
            "fig1",
            "fig3",
            "fig2a",
            "fig2b",
            "fig2c",
            "fig4",
            "table3",
            "table5",
            "table7",
            "table8",
            "nonlinear",
            "mc-rfi",
            "stream",
        ]
    } else {
        vec![cmd]
    };

    // The RWD pipeline is shared by most experiments; compute it once up
    // front when any requested command needs it.
    const NEEDS_RWD: [&str; 8] = [
        "table2", "fig2a", "fig2b", "fig2c", "fig4", "table3", "table5", "table7",
    ];
    let rwd_eval: Option<RwdEval> = if commands.iter().any(|c| NEEDS_RWD.contains(c)) {
        eprintln!(
            "[generating + scoring RWD at scale {} (budget {} ms/measure/relation)...]",
            cfg.scale,
            cfg.budget.as_millis()
        );
        Some(RwdEval::compute(&cfg))
    } else {
        None
    };
    let rwd = |_: &Config| -> &RwdEval { rwd_eval.as_ref().expect("precomputed above") };
    for c in commands {
        match c {
            "fig1" => exp_synth::fig1(&cfg),
            "fig3" => exp_synth::fig3(&cfg),
            "table2" => exp_rwd::table2(&cfg, rwd(&cfg)),
            "fig2a" => exp_rwd::fig2a(&cfg, rwd(&cfg)),
            "fig2b" => exp_rwd::fig2b(&cfg, rwd(&cfg)),
            "fig2c" => exp_rwd::fig2c(&cfg, rwd(&cfg)),
            "fig4" => exp_rwd::fig4(&cfg, rwd(&cfg)),
            "table3" => exp_table3::table3(&cfg, rwd(&cfg)),
            "table5" => exp_rwd::table5(&cfg, rwd(&cfg)),
            "table7" => exp_rwd::table7(&cfg, rwd(&cfg)),
            "table8" | "table9" => exp_rwde::tables_8_and_9(&cfg),
            "export-rwd" => exp_export::export_rwd(&cfg),
            "nonlinear" => exp_extensions::nonlinear(&cfg),
            "mc-rfi" => exp_extensions::mc_rfi(&cfg),
            "stream" => exp_stream::stream(&cfg),
            other => {
                eprintln!("unknown experiment `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_zero_is_rejected_loudly() {
        // `afd stream --shards 0` must be a clear error, not a panic or
        // a silent one-shard fallback (the engine rejects 0 as well —
        // see afd-engine's config tests).
        let err = parse_flags(&["--shards".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn shards_flag_parses_positive_counts() {
        let cfg = parse_flags(&["--shards".to_string(), "4".to_string()]).unwrap();
        assert_eq!(cfg.shards, 4);
    }

    #[test]
    fn threads_zero_is_rejected_loudly() {
        let err = parse_flags(&["--threads".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn zero_recovery_knobs_are_rejected_loudly() {
        // Like `--shards 0`: zero would silently disable recovery
        // semantics, and the engine rejects it too — catch it at the
        // flag boundary with the flag's own name in the message.
        let err = parse_flags(&["--checkpoint-every".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_flags(&["--retry-budget".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("--retry-budget"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn recovery_flags_parse_and_default_to_engine_policy() {
        let cfg = parse_flags(&[
            "--checkpoint-every".to_string(),
            "8".to_string(),
            "--retry-budget".to_string(),
            "5".to_string(),
        ])
        .unwrap();
        assert_eq!(cfg.checkpoint_every, 8);
        assert_eq!(cfg.retry_budget, 5);
        let defaults = parse_flags(&[]).unwrap();
        let policy = afd_engine::RecoveryConfig::default();
        assert_eq!(defaults.checkpoint_every, policy.checkpoint_every);
        assert_eq!(defaults.retry_budget, policy.retry_budget);
    }
}
