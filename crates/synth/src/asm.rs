//! A tiny EVM assembler used by the contract templates.
//!
//! [`Asm`] is an append-only byte builder with helpers for the encodings the
//! templates need (width-minimal `PUSH`, 4-byte selectors, 20-byte
//! addresses). It intentionally does *not* resolve labels: synthetic jump
//! targets are patched by [`Asm::patch_u16`] after layout, mirroring how the
//! dispatcher is laid out by solc.

use phishinghook_evm::opcodes::op;
use phishinghook_evm::Bytecode;

/// Append-only EVM bytecode builder.
///
/// # Examples
///
/// ```
/// use phishinghook_synth::asm::Asm;
/// use phishinghook_evm::opcodes::op;
///
/// let mut asm = Asm::new();
/// asm.op(op::PUSH1).byte(0x80).op(op::PUSH1).byte(0x40).op(op::MSTORE);
/// assert_eq!(asm.build().to_hex(), "0x6080604052");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Asm {
    bytes: Vec<u8>,
}

impl Asm {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Asm { bytes: Vec::new() }
    }

    /// Current length in bytes (the offset the next emitted byte will get).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Emits a raw opcode byte.
    pub fn op(&mut self, opcode: u8) -> &mut Self {
        self.bytes.push(opcode);
        self
    }

    /// Emits a raw data byte (e.g. a `PUSH1` immediate).
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.bytes.push(b);
        self
    }

    /// Emits raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Emits the width-minimal `PUSHn` for a value (`PUSH0` for zero).
    pub fn push_uint(&mut self, value: u64) -> &mut Self {
        if value == 0 {
            return self.op(op::PUSH0);
        }
        let be = value.to_be_bytes();
        let skip = be.iter().take_while(|&&b| b == 0).count();
        let imm = &be[skip..];
        self.bytes.push(op::PUSH1 + (imm.len() - 1) as u8);
        self.bytes.extend_from_slice(imm);
        self
    }

    /// Emits `PUSH1 v`.
    pub fn push1(&mut self, v: u8) -> &mut Self {
        self.op(op::PUSH1).byte(v)
    }

    /// Emits `PUSH4` with a function selector.
    pub fn push_selector(&mut self, selector: u32) -> &mut Self {
        self.op(op::PUSH4).raw(&selector.to_be_bytes())
    }

    /// Emits `PUSH20` with an address.
    pub fn push_address(&mut self, address: &[u8; 20]) -> &mut Self {
        self.op(op::PUSH20).raw(address)
    }

    /// Emits `PUSH32` with a full word (event topics).
    pub fn push_word(&mut self, word: &[u8; 32]) -> &mut Self {
        self.op(op::PUSH32).raw(word)
    }

    /// Emits a `PUSH2 0x0000` placeholder and returns the offset of its
    /// immediate for later patching.
    pub fn push2_placeholder(&mut self) -> usize {
        self.op(op::PUSH2);
        let at = self.bytes.len();
        self.raw(&[0, 0]);
        at
    }

    /// Patches a 16-bit big-endian value previously reserved with
    /// [`Asm::push2_placeholder`].
    ///
    /// # Panics
    ///
    /// Panics if `at + 2` exceeds the current length.
    pub fn patch_u16(&mut self, at: usize, value: u16) {
        assert!(at + 2 <= self.bytes.len(), "patch out of range");
        self.bytes[at..at + 2].copy_from_slice(&value.to_be_bytes());
    }

    /// Finishes and returns the bytecode.
    pub fn build(self) -> Bytecode {
        Bytecode::new(self.bytes)
    }

    /// Borrowing view of the bytes emitted so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::disasm::disassemble;

    #[test]
    fn push_uint_picks_minimal_width() {
        let mut a = Asm::new();
        a.push_uint(0);
        a.push_uint(0x7F);
        a.push_uint(0x1234);
        a.push_uint(0xAABBCCDD);
        let code = a.build();
        let instrs = disassemble(code.as_bytes());
        let names: Vec<String> = instrs
            .iter()
            .map(|i| i.mnemonic.name().into_owned())
            .collect();
        assert_eq!(names, ["PUSH0", "PUSH1", "PUSH2", "PUSH4"]);
        assert_eq!(instrs[3].operand, vec![0xAA, 0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn placeholder_patching() {
        let mut a = Asm::new();
        let at = a.push2_placeholder();
        a.op(op::JUMPI);
        a.patch_u16(at, 0xBEEF);
        assert_eq!(a.as_bytes(), &[op::PUSH2, 0xBE, 0xEF, op::JUMPI]);
    }

    #[test]
    fn selector_and_address_widths() {
        let mut a = Asm::new();
        a.push_selector(0xa9059cbb); // transfer(address,uint256)
        a.push_address(&[0x11; 20]);
        let instrs = disassemble(a.build().as_bytes());
        assert_eq!(instrs[0].operand.len(), 4);
        assert_eq!(instrs[1].operand.len(), 20);
    }

    #[test]
    #[should_panic(expected = "patch out of range")]
    fn patch_bounds_checked() {
        let mut a = Asm::new();
        a.patch_u16(0, 1);
    }
}
