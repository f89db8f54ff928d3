//! Property tests over the codec: arbitrary payloads survive a
//! write→parse round trip bit-exactly, and random single-bit corruption of
//! a section payload never parses cleanly.

use phishinghook_artifact::{ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use proptest::prelude::*;

proptest! {
    #[test]
    fn f32_slices_round_trip_bit_exactly(bits in collection::vec(any::<u32>(), 0..64)) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut w = ByteWriter::new();
        w.put_f32_slice(&values);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.take_f32_slice().unwrap();
        r.expect_exhausted("f32 slice").unwrap();
        let back_bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }

    #[test]
    fn u64_and_str_fields_round_trip(vs in collection::vec(any::<u64>(), 0..32), n in 0usize..24) {
        let name: String = "section_".chars().chain("x".repeat(n).chars()).collect();
        let mut w = ByteWriter::new();
        w.put_str(&name);
        for &v in &vs {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        prop_assert_eq!(r.take_str().unwrap(), name);
        for &v in &vs {
            prop_assert_eq!(r.take_u64().unwrap(), v);
        }
        r.expect_exhausted("u64 fields").unwrap();
    }

    #[test]
    fn containers_round_trip(payloads in collection::vec(collection::vec(any::<u8>(), 0..48), 1..6)) {
        let mut w = ArtifactWriter::new();
        for (i, p) in payloads.iter().enumerate() {
            w.section(&format!("s{i}"), p.clone());
        }
        let bytes = w.into_bytes();
        let r = ArtifactReader::from_bytes(&bytes).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(r.section(&format!("s{i}")).unwrap(), &p[..]);
        }
    }

    #[test]
    fn payload_bit_flips_never_parse_cleanly(
        payload in collection::vec(any::<u8>(), 8..64),
        flip_bit in 0usize..64,
    ) {
        let mut w = ArtifactWriter::new();
        w.section("data", payload.clone());
        let mut bytes = w.into_bytes();
        // Flip one bit inside the payload region (the container tail).
        let payload_start = bytes.len() - payload.len();
        let byte = payload_start + (flip_bit / 8) % payload.len();
        bytes[byte] ^= 1 << (flip_bit % 8);
        prop_assert!(ArtifactReader::from_bytes(&bytes).is_err());
    }
}
