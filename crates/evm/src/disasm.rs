//! Bytecode disassembler — the paper's Bytecode Disassembler Module (BDM).
//!
//! Turns deployed bytecode into a linear sequence of instructions, each
//! carrying its *mnemonic* (human-readable alias), *operand* (the `PUSHn`
//! immediate, when present) and *gas* (static execution cost), exactly the
//! triple the paper stores in its `.csv` files:
//!
//! ```text
//! 0x6080604052  ->  (PUSH1, 0x80, 3) (PUSH1, 0x40, 3) (MSTORE, NaN, 3)
//! ```
//!
//! The disassembler is total: unassigned byte values decode to
//! [`Mnemonic::Unknown`] (rendered `UNKNOWN_0xXX`, as the original `evmdasm`
//! does) and a `PUSHn` whose immediate runs past the end of code is flagged
//! [`Instruction::truncated`] rather than rejected — malformed code exists on
//! chain and must still be featurized.

use crate::bytecode::Bytecode;
use crate::opcodes::{immediate_len, opcode_info, OpcodeInfo};
use crate::opid::OpId;
use std::borrow::Cow;
use std::fmt;

/// The decoded operation of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mnemonic {
    /// A Shanghai-defined opcode.
    Known(&'static OpcodeInfo),
    /// A byte value unassigned in the Shanghai fork (executes as invalid).
    Unknown(u8),
}

impl Mnemonic {
    /// Decodes a raw byte.
    pub fn from_byte(byte: u8) -> Self {
        match opcode_info(byte) {
            Some(info) => Mnemonic::Known(info),
            None => Mnemonic::Unknown(byte),
        }
    }

    /// The raw byte value.
    pub fn byte(&self) -> u8 {
        match self {
            Mnemonic::Known(info) => info.byte,
            Mnemonic::Unknown(b) => *b,
        }
    }

    /// Human-readable alias: the opcode name, or `UNKNOWN_0xXX`.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            Mnemonic::Known(info) => Cow::Borrowed(info.mnemonic),
            Mnemonic::Unknown(b) => Cow::Owned(format!("UNKNOWN_0x{b:02X}")),
        }
    }

    /// Static gas cost (`None` for `INVALID` and unassigned bytes — the
    /// paper's `NaN`).
    pub fn gas(&self) -> Option<u32> {
        match self {
            Mnemonic::Known(info) => info.gas,
            Mnemonic::Unknown(_) => None,
        }
    }

    /// Returns the registry entry if this is a defined opcode.
    pub fn info(&self) -> Option<&'static OpcodeInfo> {
        match self {
            Mnemonic::Known(info) => Some(info),
            Mnemonic::Unknown(_) => None,
        }
    }
}

impl fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// One disassembled instruction: `(mnemonic, operand, gas)` plus position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset of the opcode within the code.
    pub offset: usize,
    /// Decoded operation.
    pub mnemonic: Mnemonic,
    /// Immediate operand bytes (`PUSHn` argument); empty for all other ops.
    pub operand: Vec<u8>,
    /// `true` if a `PUSHn` immediate ran past the end of the code and was
    /// therefore cut short.
    pub truncated: bool,
}

impl Instruction {
    /// Total encoded size in bytes (opcode + immediates actually present).
    pub fn size(&self) -> usize {
        1 + self.operand.len()
    }

    /// Static gas cost, if defined.
    pub fn gas(&self) -> Option<u32> {
        self.mnemonic.gas()
    }

    /// Operand rendered as `0x`-prefixed hex, or `None` when there is no
    /// immediate (the paper prints `NaN` in that column).
    pub fn operand_hex(&self) -> Option<String> {
        if self.operand.is_empty() {
            None
        } else {
            let mut s = String::with_capacity(2 + self.operand.len() * 2);
            s.push_str("0x");
            for b in &self.operand {
                s.push_str(&format!("{b:02x}"));
            }
            Some(s)
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.operand_hex() {
            Some(operand) => write!(f, "{} {}", self.mnemonic, operand),
            None => write!(f, "{}", self.mnemonic),
        }
    }
}

/// One decoded operation as seen by the zero-copy streaming view: the
/// interned [`OpId`], the immediate operand *borrowed* from the underlying
/// code, and the position. No heap allocation occurs while streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOp<'a> {
    /// Byte offset of the opcode within the code.
    pub offset: usize,
    /// Interned operation id.
    pub id: OpId,
    /// Immediate operand bytes (`PUSHn` argument), borrowed from the code.
    pub operand: &'a [u8],
    /// `true` if a `PUSHn` immediate ran past the end of the code.
    pub truncated: bool,
}

impl StreamOp<'_> {
    /// Total encoded size in bytes (opcode + immediates actually present).
    pub fn size(&self) -> usize {
        1 + self.operand.len()
    }

    /// Static gas cost, if defined.
    pub fn gas(&self) -> Option<u32> {
        self.id.gas()
    }

    /// Display-layer view of the operation.
    pub fn mnemonic(&self) -> Mnemonic {
        self.id.mnemonic()
    }

    /// Materializes the display-layer [`Instruction`] (allocates the
    /// operand).
    pub fn to_instruction(&self) -> Instruction {
        Instruction {
            offset: self.offset,
            mnemonic: self.mnemonic(),
            operand: self.operand.to_vec(),
            truncated: self.truncated,
        }
    }
}

/// Copy-free streaming decoder: yields `(OpId, operand, gas)` triples
/// directly over the code slice. This is the substrate every featurizer
/// consumes (usually through a
/// [`DisasmCache`](crate::cache::DisasmCache), which stores the decoded
/// stream exactly once per contract).
///
/// # Examples
///
/// ```
/// use phishinghook_evm::disasm::OpcodeStream;
///
/// let code = [0x60, 0x80, 0x60, 0x40, 0x52];
/// let ops: Vec<_> = OpcodeStream::new(&code).collect();
/// assert_eq!(ops.len(), 3);
/// assert_eq!(ops[0].operand, &[0x80]); // borrowed, not copied
/// assert_eq!(ops[2].gas(), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct OpcodeStream<'a> {
    code: &'a [u8],
    pc: usize,
}

impl<'a> OpcodeStream<'a> {
    /// Creates a stream positioned at offset 0.
    pub fn new(code: &'a [u8]) -> Self {
        OpcodeStream { code, pc: 0 }
    }
}

impl<'a> Iterator for OpcodeStream<'a> {
    type Item = StreamOp<'a>;

    fn next(&mut self) -> Option<StreamOp<'a>> {
        if self.pc >= self.code.len() {
            return None;
        }
        let offset = self.pc;
        let byte = self.code[offset];
        let id = OpId::from_byte(byte);
        let want = immediate_len(byte);
        let avail = (self.code.len() - offset - 1).min(want);
        let operand = &self.code[offset + 1..offset + 1 + avail];
        self.pc = offset + 1 + avail;
        Some(StreamOp {
            offset,
            id,
            operand,
            truncated: avail < want,
        })
    }
}

/// Streaming disassembler over a byte slice, yielding owned display-layer
/// [`Instruction`]s. Thin wrapper over [`OpcodeStream`]; hot paths should
/// use the stream (or a cache) directly.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::disasm::Disassembler;
///
/// let names: Vec<String> = Disassembler::new(&[0x60, 0x80, 0x60, 0x40, 0x52])
///     .map(|i| i.mnemonic.name().into_owned())
///     .collect();
/// assert_eq!(names, ["PUSH1", "PUSH1", "MSTORE"]);
/// ```
#[derive(Debug, Clone)]
pub struct Disassembler<'a> {
    stream: OpcodeStream<'a>,
}

impl<'a> Disassembler<'a> {
    /// Creates a disassembler positioned at offset 0.
    pub fn new(code: &'a [u8]) -> Self {
        Disassembler {
            stream: OpcodeStream::new(code),
        }
    }
}

impl Iterator for Disassembler<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        self.stream.next().map(|op| op.to_instruction())
    }
}

/// Disassembles a full code blob into a vector of instructions.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::{disasm::disassemble, Bytecode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let code = Bytecode::from_hex("0x6080604052")?;
/// let instrs = disassemble(code.as_bytes());
/// assert_eq!(instrs.len(), 3);
/// assert_eq!(instrs[2].mnemonic.name(), "MSTORE");
/// assert_eq!(instrs[2].gas(), Some(3));
/// # Ok(())
/// # }
/// ```
pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
    Disassembler::new(code).collect()
}

/// Disassembles [`Bytecode`] directly.
pub fn disassemble_bytecode(code: &Bytecode) -> Vec<Instruction> {
    disassemble(code.as_bytes())
}

/// Renders instructions as the `mnemonic,operand,gas` CSV the paper's BDM
/// writes for downstream feature extraction. Missing operand/gas cells are
/// printed as `NaN`, matching the Python pipeline.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::disasm::{disassemble, to_csv};
///
/// let csv = to_csv(&disassemble(&[0x60, 0x80, 0x52]));
/// assert_eq!(csv, "mnemonic,operand,gas\nPUSH1,0x80,3\nMSTORE,NaN,3\n");
/// ```
pub fn to_csv(instructions: &[Instruction]) -> String {
    let mut out = String::from("mnemonic,operand,gas\n");
    for instr in instructions {
        out.push_str(&instr.mnemonic.name());
        out.push(',');
        match instr.operand_hex() {
            Some(operand) => out.push_str(&operand),
            None => out.push_str("NaN"),
        }
        out.push(',');
        match instr.gas() {
            Some(gas) => out.push_str(&gas.to_string()),
            None => out.push_str("NaN"),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_round_trip() {
        // "a simple bytecode 0x6080604052 gets disassembled to:
        //  (PUSH1, 0x80, 3), (PUSH1, 0x40, 3), (MSTORE, NaN, 3)"
        let code = Bytecode::from_hex("0x6080604052").unwrap();
        let instrs = disassemble_bytecode(&code);
        assert_eq!(instrs.len(), 3);
        assert_eq!(instrs[0].mnemonic.name(), "PUSH1");
        assert_eq!(instrs[0].operand, vec![0x80]);
        assert_eq!(instrs[0].gas(), Some(3));
        assert_eq!(instrs[1].operand, vec![0x40]);
        assert_eq!(instrs[2].mnemonic.name(), "MSTORE");
        assert!(instrs[2].operand.is_empty());
        assert_eq!(instrs[2].gas(), Some(3));
    }

    #[test]
    fn offsets_account_for_immediates() {
        let instrs = disassemble(&[0x7F; 34]); // PUSH32 with 32 bytes, then one spare 0x7F
        assert_eq!(instrs.len(), 2);
        assert_eq!(instrs[0].offset, 0);
        assert_eq!(instrs[0].size(), 33);
        assert_eq!(instrs[1].offset, 33);
        assert!(instrs[1].truncated);
        assert_eq!(instrs[1].operand.len(), 0);
    }

    #[test]
    fn truncated_push_is_flagged_not_fatal() {
        let instrs = disassemble(&[0x61, 0xAA]); // PUSH2 with only 1 byte left
        assert_eq!(instrs.len(), 1);
        assert!(instrs[0].truncated);
        assert_eq!(instrs[0].operand, vec![0xAA]);
    }

    #[test]
    fn unknown_bytes_decode_as_unknown() {
        let instrs = disassemble(&[0x0C]);
        assert_eq!(instrs[0].mnemonic.name(), "UNKNOWN_0x0C");
        assert_eq!(instrs[0].gas(), None);
    }

    #[test]
    fn invalid_has_nan_gas() {
        let instrs = disassemble(&[0xFE]);
        assert_eq!(instrs[0].mnemonic.name(), "INVALID");
        assert_eq!(instrs[0].gas(), None);
    }

    #[test]
    fn empty_code_disassembles_to_nothing() {
        assert!(disassemble(&[]).is_empty());
    }

    #[test]
    fn csv_uses_nan_for_missing_cells() {
        let csv = to_csv(&disassemble(&[0xFE]));
        assert_eq!(csv, "mnemonic,operand,gas\nINVALID,NaN,NaN\n");
    }

    #[test]
    fn instruction_display() {
        let instrs = disassemble(&[0x60, 0x80, 0x01]);
        assert_eq!(instrs[0].to_string(), "PUSH1 0x80");
        assert_eq!(instrs[1].to_string(), "ADD");
    }
}
