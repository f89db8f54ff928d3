//! Property tests over the feature-layer codec: random encoder tables
//! survive their artifact-state round trip bit-exactly.

use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_features::store::{Encoding, StoreConfig};
use phishinghook_features::FittedEncoders;
use proptest::prelude::*;

proptest! {
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
