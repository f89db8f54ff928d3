//! Opcode token sequences for the GPT-2 / T5 language models.
//!
//! The paper tokenizes opcode sequences with the HuggingFace
//! `GPT2Tokenizer`/`T5Tokenizer` over textual mnemonics; our from-scratch
//! models tokenize at the opcode level directly (one token per instruction,
//! vocabulary = the 144 Shanghai opcodes + specials), which carries the same
//! information without a subword stage. Tokens are derived from the interned
//! [`OpId`]s of the shared [`DisasmCache`] — no re-disassembly, no strings.
//!
//! Two sequence policies reproduce the paper's α/β variants:
//!
//! * **α (truncation)** — "opcode sequences are truncated to fit model token
//!   limits";
//! * **β (sliding window)** — "full bytecodes are processed in chunks using
//!   a sliding window".

use crate::featurizer::{FeatureVec, Featurizer};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::{DisasmCache, OpId};

/// Padding token id.
pub const PAD: u32 = 0;
/// Unknown-opcode token id (unassigned byte values).
pub const UNK: u32 = 1;
/// First id assigned to real opcodes.
pub const BASE: u32 = 2;

/// Default context length used by the [`Featurizer`] impl.
pub const DEFAULT_CONTEXT: usize = 64;

/// How a long sequence is fitted to the model's context length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequenceVariant {
    /// α: keep only the first `context` tokens.
    Truncate,
    /// β: split into windows of `context` tokens with 50% overlap; the model
    /// averages its predictions over windows.
    SlidingWindow,
}

/// Stateless opcode tokenizer with a fixed context length.
#[derive(Debug, Clone, Copy)]
pub struct OpcodeTokenizer {
    context: usize,
}

impl OpcodeTokenizer {
    /// Creates a tokenizer with the given context length.
    ///
    /// # Panics
    ///
    /// Panics if `context == 0`.
    pub fn new(context: usize) -> Self {
        assert!(context > 0, "context must be positive");
        OpcodeTokenizer { context }
    }

    /// Context length in tokens.
    pub fn context(&self) -> usize {
        self.context
    }

    /// Vocabulary size (PAD + UNK + one id per possible opcode byte).
    pub fn vocab_size(&self) -> usize {
        BASE as usize + 256
    }

    /// Serializes the tokenizer's geometry (the context length — opcode
    /// tokenization itself is stateless).
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.context);
    }

    /// Rebuilds a tokenizer from [`OpcodeTokenizer::write_state`] bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation or a zero context.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let context = r.take_usize()?;
        if context == 0 {
            return Err(ArtifactError::Corrupt("context must be positive".into()));
        }
        Ok(OpcodeTokenizer { context })
    }

    /// Token id of one interned op.
    fn token(id: OpId) -> u32 {
        if id.is_known() {
            BASE + id.byte() as u32
        } else {
            UNK
        }
    }

    /// Full (unpadded, unbounded) token stream of a contract.
    pub fn stream(&self, contract: &DisasmCache) -> Vec<u32> {
        contract.op_ids().map(Self::token).collect()
    }

    /// Encodes under a sequence policy. Returns one window for
    /// [`SequenceVariant::Truncate`], one or more for
    /// [`SequenceVariant::SlidingWindow`]; every window has exactly
    /// `context` ids (right-padded).
    pub fn encode(&self, contract: &DisasmCache, variant: SequenceVariant) -> Vec<Vec<u32>> {
        match variant {
            SequenceVariant::Truncate => {
                // Tokenizes only the ops the window keeps.
                let mut w = Vec::with_capacity(self.context);
                w.extend(contract.op_ids().take(self.context).map(Self::token));
                w.resize(self.context, PAD);
                vec![w]
            }
            SequenceVariant::SlidingWindow => {
                let stream = self.stream(contract);
                if stream.len() <= self.context {
                    let mut w = stream;
                    w.resize(self.context, PAD);
                    return vec![w];
                }
                let stride = (self.context / 2).max(1);
                let mut windows = Vec::new();
                let mut start = 0;
                while start < stream.len() {
                    let end = (start + self.context).min(stream.len());
                    let mut w = stream[start..end].to_vec();
                    w.resize(self.context, PAD);
                    windows.push(w);
                    if end == stream.len() {
                        break;
                    }
                    start += stride;
                }
                windows
            }
        }
    }
}

impl Featurizer for OpcodeTokenizer {
    const NAME: &'static str = "opcode_tokens";

    fn fit(_training: &[DisasmCache]) -> Self {
        OpcodeTokenizer::new(DEFAULT_CONTEXT)
    }

    fn encode(&self, contract: &DisasmCache) -> FeatureVec {
        FeatureVec::Windows(self.encode(contract, SequenceVariant::Truncate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn cache(bytes: &[u8]) -> DisasmCache {
        DisasmCache::build(&Bytecode::new(bytes.to_vec()))
    }

    #[test]
    fn alpha_truncates_and_pads() {
        let tok = OpcodeTokenizer::new(4);
        // 6 single-byte instructions.
        let windows = tok.encode(&cache(&[0x01; 6]), SequenceVariant::Truncate);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].len(), 4);
        assert!(windows[0].iter().all(|&t| t == BASE + 1));

        let short = tok.encode(&cache(&[0x01]), SequenceVariant::Truncate);
        assert_eq!(short[0], vec![BASE + 1, PAD, PAD, PAD]);
    }

    #[test]
    fn alpha_window_is_the_full_stream_truncated() {
        // Shorter than, equal to and longer than the context, with a
        // PUSH2 immediate and an unknown byte in the stream.
        let mut code = vec![0x61, 0xAA, 0xBB, 0x0C];
        code.extend((0u8..40).map(|i| 0x01 + i % 0x0b));
        let tok = OpcodeTokenizer::new(8);
        for len in [0, 1, 5, 8, 9, 10, 13, code.len()] {
            let contract = cache(&code[..len]);
            let stream = tok.stream(&contract);
            let mut expected: Vec<u32> = stream.iter().copied().take(8).collect();
            expected.resize(8, PAD);
            let windows = tok.encode(&contract, SequenceVariant::Truncate);
            assert_eq!(windows, vec![expected], "{len} bytes, {} ops", stream.len());
        }
    }

    #[test]
    fn beta_windows_cover_whole_stream() {
        let tok = OpcodeTokenizer::new(4);
        let windows = tok.encode(&cache(&[0x01; 10]), SequenceVariant::SlidingWindow);
        assert!(
            windows.len() >= 4,
            "expected several windows, got {}",
            windows.len()
        );
        assert!(windows.iter().all(|w| w.len() == 4));
        // Total real (non-pad) token occurrences cover all 10 instructions.
        let covered: usize = windows
            .last()
            .map(|_| 10) // last window reaches the stream end by construction
            .unwrap();
        assert_eq!(covered, 10);
    }

    #[test]
    fn push_immediates_are_not_tokens() {
        let tok = OpcodeTokenizer::new(8);
        // PUSH2 0xAABB ADD = 2 instructions.
        let stream = tok.stream(&cache(&[0x61, 0xAA, 0xBB, 0x01]));
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[0], BASE + 0x61);
    }

    #[test]
    fn unknown_bytes_map_to_unk() {
        let tok = OpcodeTokenizer::new(2);
        let stream = tok.stream(&cache(&[0x0C]));
        assert_eq!(stream, vec![UNK]);
    }

    #[test]
    fn short_input_single_window_in_beta() {
        let tok = OpcodeTokenizer::new(16);
        let windows = tok.encode(&cache(&[0x01; 5]), SequenceVariant::SlidingWindow);
        assert_eq!(windows.len(), 1);
    }
}
