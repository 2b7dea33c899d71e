//! `save` and `load`: persisted sessions on the command line.
//!
//! * `afd save <in.csv> <out.snapshot>` — ingest a CSV, subscribe every
//!   violated linear candidate, and persist the session as one framed,
//!   checksummed wire snapshot.
//! * `afd load <snapshot>` — restore the session exactly (bit-identical
//!   scores) and print every candidate's streamed measure scores.

use std::fs::File;
use std::io::BufReader;

use afd_engine::{
    violated_candidates, AfdEngine, RestoreRequest, SnapshotRequest, SubscribeRequest,
};
use afd_stream::StreamScores;

use crate::render::{f3, TextTable};

/// `afd save <in.csv> <out.snapshot>`.
///
/// # Errors
/// A rendered message for bad arguments, unreadable CSV, or I/O
/// failures.
pub fn save(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("usage: afd save <in.csv> <out.snapshot>".into());
    };
    let file = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let mut engine = AfdEngine::from_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    let candidates = violated_candidates(engine.snapshot().map_err(|e| e.to_string())?);
    for fd in &candidates {
        engine
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .map_err(|e| e.to_string())?;
    }
    let resp = engine
        .save(&SnapshotRequest::default())
        .map_err(|e| e.to_string())?;
    std::fs::write(output, &resp.bytes).map_err(|e| format!("write {output}: {e}"))?;
    println!(
        "saved {} rows and {} streamed candidate(s) ({} bytes, versioned + checksummed) -> {}",
        resp.n_live,
        resp.candidates,
        resp.bytes.len(),
        output
    );
    Ok(())
}

/// `afd load <snapshot>`.
///
/// # Errors
/// A rendered message for bad arguments, unreadable files, or corrupt
/// snapshots (the wire layer's typed decode errors).
pub fn load(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("usage: afd load <snapshot>".into());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let engine = AfdEngine::restore(&RestoreRequest::new(bytes)).map_err(|e| e.to_string())?;
    let schema = engine.schema().clone();
    println!(
        "restored {} rows over {} shard(s); {} streamed candidate(s):",
        engine.n_live(),
        engine.n_shards(),
        engine.n_candidates(),
    );
    let mut table = TextTable::new(["candidate", "mu+", "g3", "g2", "tau", "pdep"]);
    for cid in 0..engine.n_candidates() {
        let fd = engine.candidate_fd(cid).map_err(|e| e.to_string())?.clone();
        let s: StreamScores = engine.scores(cid).map_err(|e| e.to_string())?;
        table.row([
            fd.display(&schema).to_string(),
            f3(s.mu_plus),
            f3(s.g3),
            f3(s.g2),
            f3(s.tau),
            f3(s.pdep),
        ]);
    }
    table.print();
    Ok(())
}
