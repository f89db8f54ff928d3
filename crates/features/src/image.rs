//! R2D2-style RGB image encoding of raw bytecode.
//!
//! "We interpret the bytecode as a sequence of hexadecimal color codes. Each
//! hexadecimal value in the bytecode is mapped to a color in the RGB space.
//! All pixels (i.e., three channels of integers) are arranged into a
//! 224×224×3 tensor, with zero-padding applied as needed." (§IV-B)
//!
//! The paper fine-tunes an ImageNet-pretrained ViT-B/16 on 224×224 inputs;
//! our CPU-trained small ViT uses a configurable side (32 by default), which
//! preserves the encoding — consecutive byte triplets become pixels, row
//! major, zero padded — at a tractable resolution.
//!
//! The encoder is stateless and reads the raw bytes of the shared
//! [`DisasmCache`]; it needs no disassembly of its own.

use crate::featurizer::{FeatureVec, Featurizer};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::DisasmCache;

/// Default image side for the CPU-scale reproduction.
pub const DEFAULT_SIDE: usize = 32;

/// Encoder turning bytecode into a `side × side × 3` channel-first tensor of
/// `[0, 1]` floats.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::{Bytecode, DisasmCache};
/// use phishinghook_features::R2d2Encoder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let encoder = R2d2Encoder::new(32);
/// let cache = DisasmCache::build(&Bytecode::from_hex("0x608060")?);
/// let image = encoder.encode(&cache);
/// assert_eq!(image.len(), 3 * 32 * 32);
/// assert!((image[0] - 0x60 as f32 / 255.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct R2d2Encoder {
    side: usize,
}

impl R2d2Encoder {
    /// Creates an encoder producing `side × side` images.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "image side must be positive");
        R2d2Encoder { side }
    }

    /// Image side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Serializes the encoder's geometry (pixel mapping is stateless).
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.side);
    }

    /// Rebuilds an encoder from [`R2d2Encoder::write_state`] bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation or a zero side.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let side = r.take_usize()?;
        if side == 0 {
            return Err(ArtifactError::Corrupt("image side must be positive".into()));
        }
        Ok(R2d2Encoder { side })
    }

    /// Length of the produced feature vector (`3 · side²`).
    pub fn len(&self) -> usize {
        3 * self.side * self.side
    }

    /// Always `false`; images have fixed non-zero size.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Encodes bytecode as a channel-first RGB tensor: byte `3k` is the red
    /// channel of pixel `k`, `3k+1` green, `3k+2` blue; the tail is
    /// zero-padded and over-long code is truncated (as any fixed-size tensor
    /// input requires).
    pub fn encode(&self, contract: &DisasmCache) -> Vec<f32> {
        let pixels = self.side * self.side;
        let mut out = vec![0.0f32; 3 * pixels];
        for (k, chunk) in contract.bytes().chunks(3).take(pixels).enumerate() {
            for (c, &b) in chunk.iter().enumerate() {
                // Channel-first layout: out[c][row][col].
                out[c * pixels + k] = b as f32 / 255.0;
            }
        }
        out
    }
}

impl Default for R2d2Encoder {
    fn default() -> Self {
        R2d2Encoder::new(DEFAULT_SIDE)
    }
}

impl Featurizer for R2d2Encoder {
    const NAME: &'static str = "r2d2_image";

    fn fit(_training: &[DisasmCache]) -> Self {
        R2d2Encoder::default()
    }

    fn encode(&self, contract: &DisasmCache) -> FeatureVec {
        FeatureVec::Dense(self.encode(contract))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn cache(bytes: Vec<u8>) -> DisasmCache {
        DisasmCache::build(&Bytecode::new(bytes))
    }

    #[test]
    fn layout_is_channel_first() {
        let enc = R2d2Encoder::new(4);
        let img = enc.encode(&cache(vec![10, 20, 30, 40, 50, 60]));
        let pixels = 16;
        assert_eq!(img[0], 10.0 / 255.0); // R of pixel 0
        assert_eq!(img[pixels], 20.0 / 255.0); // G of pixel 0
        assert_eq!(img[2 * pixels], 30.0 / 255.0); // B of pixel 0
        assert_eq!(img[1], 40.0 / 255.0); // R of pixel 1
    }

    #[test]
    fn zero_padding_fills_tail() {
        let enc = R2d2Encoder::new(8);
        let img = enc.encode(&cache(vec![0xFF; 3]));
        let nonzero = img.iter().filter(|v| **v != 0.0).count();
        assert_eq!(nonzero, 3);
    }

    #[test]
    fn long_code_is_truncated() {
        let enc = R2d2Encoder::new(2); // 4 pixels = 12 bytes
        let img = enc.encode(&cache(vec![1u8; 100]));
        assert_eq!(img.len(), 12);
        assert!(img.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn values_are_unit_range() {
        let enc = R2d2Encoder::default();
        let bytes: Vec<u8> = (0..=255).collect();
        let img = enc.encode(&cache(bytes));
        assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "image side must be positive")]
    fn zero_side_panics() {
        R2d2Encoder::new(0);
    }
}
