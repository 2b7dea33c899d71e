//! End-to-end tests of dialed shard workers: `afd shard-worker --listen`
//! processes the test launches itself, reached by address through
//! `TcpShard::connect` and the engine's `StreamBackend::Tcp`. The
//! checks are the ones `process_shard.rs` runs on spawned workers
//! (shared in `common`): for N ∈ {1, 2, 4} dialed workers, score reads
//! are bit-identical (`f64::to_bits`) to the in-process backend, to
//! spawned workers and to an unsharded session, including across a
//! killed, corrupted or stalled connection healed by the supervisor's
//! redial-restore-replay path.

mod common;

use common::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tcp_workers_match_in_process_stdio_and_unsharded_bit_exactly(events in events()) {
        let mut remote = Vec::new();
        let mut listeners = Vec::new();
        for n in [1usize, 2, 4] {
            let (s, owned) = session(Topology::Dialed, &vec![worker(); n]);
            remote.push(s);
            listeners.extend(owned);
        }
        // Spawned workers beside the dialed ones: the same bits whoever
        // launched the listener.
        let (spawned, _) = session(Topology::Spawned, &[worker(), worker()]);
        remote.push(spawned);
        check_remote_sessions(&events, remote)?;
    }
}

#[test]
fn killed_and_stalled_tcp_sessions_recover_bit_identically() {
    check_every_fault_kind_recovers(Topology::Dialed);
}

#[test]
fn engine_tcp_backend_matches_in_process_bit_exactly() {
    check_engine_twin_and_save_restore(Topology::Dialed);
}
