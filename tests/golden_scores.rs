//! Golden pin of the published scores: one FNV-1a digest over the
//! `f64::to_bits` of the full 14-measure `MatrixRequest` matrix on every
//! RWD relation. A kernel change that moves any score bit — in any
//! measure, on any candidate — fails this test.
//!
//! The digest was recorded with the dense reference kernels (dense SFI
//! matrix, per-table hypergeometric sums); the fast kernels must
//! reproduce it exactly.

use afd::engine::{EngineConfig, MatrixRequest};
use afd::wire::fnv1a;
use afd::{AfdEngine, RwdBenchmark};

/// Small enough that the debug-mode run stays under ten seconds.
const SCALE: f64 = 0.01;
const SEED: u64 = 1;
const GOLDEN: u64 = 0x0265_eb6f_8ec3_00d4;

#[test]
fn rwd_matrix_scores_match_golden_digest() {
    let bench = RwdBenchmark::generate_scaled(SCALE, SEED);
    let mut bytes: Vec<u8> = Vec::new();
    let mut cells = 0usize;
    for r in bench.relations {
        let mut engine = AfdEngine::from_relation(r.relation)
            .with_config(EngineConfig {
                threads: Some(2),
                ..EngineConfig::default()
            })
            .expect("valid config");
        let matrix = engine.matrix(&MatrixRequest::default()).expect("matrix");
        assert_eq!(matrix.measures.len(), 14);
        bytes.extend_from_slice(&(matrix.candidates.len() as u64).to_le_bytes());
        for row in &matrix.scores {
            for s in row {
                bytes.extend_from_slice(&s.to_bits().to_le_bytes());
            }
            cells += row.len();
        }
    }
    assert!(cells > 0);
    let digest = fnv1a(&bytes);
    assert_eq!(
        digest, GOLDEN,
        "RWD matrix digest {digest:#018x} over {cells} cells moved from the golden {GOLDEN:#018x}"
    );
}
