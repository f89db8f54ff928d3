//! Property tests over the feature-layer codecs: random matrices of every
//! layout and random encoder tables survive their on-disk columnar /
//! state round trips bit-exactly.

use phishinghook_artifact::{ByteReader, ByteWriter};
use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_features::store::{Encoding, FeatureMatrix, StoreConfig};
use phishinghook_features::{FeatureVec, FittedEncoders};
use proptest::prelude::*;

fn round_trip(m: &FeatureMatrix) -> FeatureMatrix {
    let mut w = ByteWriter::new();
    m.write_state(&mut w).unwrap();
    let mut r = ByteReader::new(w.as_bytes());
    let back = FeatureMatrix::read_state(&mut r).unwrap();
    r.expect_exhausted("matrix payload").unwrap();
    back
}

proptest! {
    #[test]
    fn dense_matrices_round_trip(
        rows in 0usize..6,
        width in 0usize..8,
        seed in any::<u32>(),
    ) {
        let vecs: Vec<FeatureVec> = (0..rows)
            .map(|r| {
                FeatureVec::Dense(
                    (0..width)
                        .map(|c| f32::from_bits(seed ^ (r * 31 + c) as u32))
                        .collect(),
                )
            })
            .collect();
        let m = FeatureMatrix::from_vecs(vecs);
        prop_assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn id_matrices_round_trip(rows in 1usize..6, width in 1usize..8, base in any::<u32>()) {
        let vecs: Vec<FeatureVec> = (0..rows)
            .map(|r| FeatureVec::Ids((0..width).map(|c| base ^ (r + c * 7) as u32).collect()))
            .collect();
        let m = FeatureMatrix::from_vecs(vecs);
        prop_assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn ragged_window_matrices_round_trip_and_spill(
        lens in collection::vec(0usize..4, 1..5),
        width in 1usize..6,
        seed in any::<u32>(),
    ) {
        let vecs: Vec<FeatureVec> = lens
            .iter()
            .enumerate()
            .map(|(r, &n)| {
                FeatureVec::Windows(
                    (0..n)
                        .map(|wnd| (0..width).map(|c| seed ^ (r + wnd * 3 + c) as u32).collect())
                        .collect(),
                )
            })
            .collect();
        let m = FeatureMatrix::from_vecs(vecs);
        prop_assert_eq!(round_trip(&m), m.clone());

        // Spill → lazy gather reproduces every row bit-exactly.
        let dir = std::env::temp_dir().join(format!("phk_prop_spill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case_{seed}_{}.phkspill", lens.len()));
        let spilled = m.spill_to(&path).unwrap();
        let all: Vec<usize> = (0..m.rows()).collect();
        prop_assert_eq!(spilled.try_gather_windows(&all).unwrap(), m.gather_windows(&all));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoder_tables_round_trip_over_random_corpora(
        contracts in collection::vec(collection::vec(any::<u8>(), 0..40), 1..5),
        side in 2usize..6,
        vocab in 4usize..32,
    ) {
        let caches: Vec<DisasmCache> = contracts
            .into_iter()
            .map(|bytes| DisasmCache::build(&Bytecode::new(bytes)))
            .collect();
        let config = StoreConfig {
            image_side: side,
            context: 8,
            bigram_vocab: vocab,
            bigram_len: 6,
            escort_dim: 16,
        };
        let fitted = FittedEncoders::fit(&caches, &config, &Encoding::ALL);
        let blob = fitted.export_state();
        let restored = FittedEncoders::import_state(&blob).unwrap();
        for cache in &caches {
            for encoding in Encoding::ALL {
                prop_assert_eq!(
                    restored.encode(cache, encoding),
                    fitted.encode(cache, encoding)
                );
            }
        }
        // Canonical bytes: the restored set re-exports identically.
        prop_assert_eq!(restored.export_state(), blob);
    }
}
