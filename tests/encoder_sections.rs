//! The artifact `encoders` section: every trained detector ships only the
//! encoder its model reads, the presence-masked layout round-trips, the
//! legacy six-encoder layout still loads with bit-identical scores, and
//! the fitted lookup tables themselves are pinned byte for byte.

use phishinghook::evalstore::store_config;
use phishinghook::prelude::*;
use phishinghook_artifact::{checksum, ArtifactReader, ArtifactWriter, ByteWriter};
use phishinghook_evm::{CacheBatch, DisasmCache};
use phishinghook_features::store::StoreConfig;
use phishinghook_features::{
    BigramEncoder, Encoding, EscortEmbedder, FittedEncoders, FreqImageEncoder, HistogramEncoder,
    OpcodeTokenizer, R2d2Encoder,
};

fn dataset(seed: u64) -> Dataset {
    let corpus = generate_corpus(&CorpusConfig::small(seed));
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(&chain, &BemConfig::default()).0
}

/// All six encoders' states back to back: the section layout artifacts
/// were written in before the presence mask.
fn legacy_section(caches: &[DisasmCache], config: &StoreConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    HistogramEncoder::fit(caches).write_state(&mut w);
    FreqImageEncoder::fit(caches, config.image_side).write_state(&mut w);
    R2d2Encoder::new(config.image_side).write_state(&mut w);
    BigramEncoder::fit(caches, config.bigram_vocab, config.bigram_len).write_state(&mut w);
    OpcodeTokenizer::new(config.context).write_state(&mut w);
    EscortEmbedder::new(config.escort_dim).write_state(&mut w);
    w.into_bytes()
}

/// `artifact` with every `encoders` section, nested stage artifacts
/// included, replaced by `legacy`.
fn with_legacy_encoders(artifact: &[u8], legacy: &[u8]) -> Vec<u8> {
    let mut out = ArtifactWriter::new();
    for (name, payload) in ArtifactReader::from_bytes(artifact)
        .unwrap()
        .into_sections()
    {
        let payload = match name.as_str() {
            "encoders" => legacy.to_vec(),
            "stage1" | "stage2" => with_legacy_encoders(payload, legacy),
            _ => payload.to_vec(),
        };
        out.section(&name, payload);
    }
    out.into_bytes()
}

/// The encodings a set holding only `encoding`'s encoder serves.
fn served_by_encoder_of(encoding: Encoding) -> Vec<Encoding> {
    match encoding {
        Encoding::TokensTruncate | Encoding::TokensWindows => {
            vec![Encoding::TokensTruncate, Encoding::TokensWindows]
        }
        e => vec![e],
    }
}

#[test]
fn every_kind_ships_only_its_own_encoder() {
    let data = dataset(61);
    let profile = EvalProfile::quick();
    let caches = CacheBatch::from_caches(data.disasm_batch());
    let held_out = &caches.as_slice()[..6];
    for kind in ModelKind::ALL {
        let ctx = EvalContext::from_caches(caches.clone(), data.labels(), &profile);
        let trained = Detector::train(&ctx, kind, 4);
        let bytes = trained.to_bytes();
        let section = ArtifactReader::from_bytes(&bytes)
            .unwrap()
            .section("encoders")
            .unwrap();
        let shipped = FittedEncoders::import_state(section).unwrap();
        assert_eq!(
            shipped.encodings(),
            served_by_encoder_of(kind.encoding()),
            "{kind}"
        );
        let reloaded = Detector::from_bytes(&bytes).unwrap();
        assert_eq!(
            reloaded.score_batch(held_out),
            trained.score_batch(held_out),
            "{kind}: reloaded scores must be bit-identical"
        );
        assert_eq!(reloaded.to_bytes(), bytes, "{kind}: canonical bytes");
    }
}

#[test]
fn legacy_encoder_layout_still_loads_bit_identically() {
    let data = dataset(62);
    let profile = EvalProfile::quick();
    let ctx = EvalContext::new(&data, &profile);
    let legacy = legacy_section(ctx.caches().as_slice(), &store_config(&profile));
    let caches = &ctx.caches().as_slice()[..12];

    let detector = Detector::train(&ctx, ModelKind::ScsGuard, 3);
    let old = Detector::from_bytes(&with_legacy_encoders(&detector.to_bytes(), &legacy)).unwrap();
    assert_eq!(old.score_batch(caches), detector.score_batch(caches));

    let cascade = CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::VitFreq,
        &CascadeConfig::default(),
        3,
    );
    let old =
        CascadeDetector::from_bytes(&with_legacy_encoders(&cascade.to_bytes(), &legacy)).unwrap();
    assert_eq!(old.score_batch(caches), cascade.score_batch(caches));
    // A section without the kind's encoder is a typed load error, never a
    // panic at scoring time.
    let hist_only = ctx.store().encoder(Encoding::Histogram);
    let mismatched = with_legacy_encoders(&detector.to_bytes(), &hist_only.export_state());
    assert!(Detector::from_bytes(&mismatched).is_err());
}

#[test]
fn fitted_lookup_tables_are_pinned() {
    // The six encoders fitted on a fixed corpus serialize to exactly the
    // bytes they did before encoders became optional (length and checksum
    // recorded from that layout).
    let caches = dataset(404).disasm_batch();
    let config = store_config(&EvalProfile::quick());
    let legacy = legacy_section(&caches, &config);
    assert_eq!(caches.len(), 298);
    assert_eq!(
        (legacy.len(), checksum(&legacy)),
        (89_494, 0x512d_edac_9838_8662)
    );
    // The masked layout is an 8-byte sentinel and a presence byte ahead
    // of the same states.
    let all = FittedEncoders::fit(&caches, &config, &Encoding::ALL).export_state();
    assert_eq!(
        &all[..9],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0b11_1111]
    );
    assert_eq!(&all[9..], &legacy[..]);
    assert_eq!(
        FittedEncoders::import_state(&legacy)
            .unwrap()
            .export_state(),
        all
    );
}
