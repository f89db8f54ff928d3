//! The EVM opcode registry for the Shanghai fork.
//!
//! This is the substrate behind the paper's Table I: all **144** opcodes that
//! exist as of the Shanghai update (block 17,034,870), each with its byte
//! value, mnemonic, static gas cost, immediate-operand width and a short
//! description. The registry includes the two opcodes the paper had to add to
//! `evmdasm` ([`PUSH0`](op::PUSH0) and [`INVALID`](op::INVALID)).
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::opcodes::{opcode_info, SHANGHAI_OPCODE_COUNT};
//!
//! let add = opcode_info(0x01).expect("ADD is defined");
//! assert_eq!(add.mnemonic, "ADD");
//! assert_eq!(add.gas, Some(3));
//! assert_eq!(SHANGHAI_OPCODE_COUNT, 144);
//! ```

use std::fmt;

/// Functional category of an opcode, following the grouping of the Yellow
/// Paper's Appendix H.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// `STOP` and arithmetic operations (`ADD`, `MUL`, ...).
    StopArithmetic,
    /// Comparison and bitwise logic (`LT`, `AND`, `SHL`, ...).
    ComparisonBitwise,
    /// Keccak-256 hashing (`SHA3`).
    Sha3,
    /// Environmental information (`ADDRESS`, `CALLER`, `CALLDATALOAD`, ...).
    Environment,
    /// Block information (`TIMESTAMP`, `NUMBER`, ...).
    Block,
    /// Stack, memory, storage and flow operations (`POP`, `MLOAD`, `JUMP`, ...).
    StackMemoryFlow,
    /// Push operations (`PUSH0`..`PUSH32`).
    Push,
    /// Duplication operations (`DUP1`..`DUP16`).
    Dup,
    /// Exchange operations (`SWAP1`..`SWAP16`).
    Swap,
    /// Logging operations (`LOG0`..`LOG4`).
    Log,
    /// System operations (`CREATE`, `CALL`, `REVERT`, `SELFDESTRUCT`, ...).
    System,
}

impl fmt::Display for OpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpCategory::StopArithmetic => "stop/arithmetic",
            OpCategory::ComparisonBitwise => "comparison/bitwise",
            OpCategory::Sha3 => "sha3",
            OpCategory::Environment => "environment",
            OpCategory::Block => "block",
            OpCategory::StackMemoryFlow => "stack/memory/flow",
            OpCategory::Push => "push",
            OpCategory::Dup => "dup",
            OpCategory::Swap => "swap",
            OpCategory::Log => "log",
            OpCategory::System => "system",
        };
        f.write_str(name)
    }
}

/// Static metadata describing one EVM opcode.
///
/// The `gas` field is the *static* cost from the Shanghai gas schedule;
/// dynamic components (memory expansion, cold-access surcharges, ...) are out
/// of scope, exactly as in the paper's disassembly output. `INVALID` carries
/// no cost (the paper's Table I prints `NaN`), represented here as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpcodeInfo {
    /// Encoded byte value (e.g. `0x01` for `ADD`).
    pub byte: u8,
    /// Human-readable mnemonic (e.g. `"ADD"`).
    pub mnemonic: &'static str,
    /// Static gas cost; `None` for the designated `INVALID` instruction.
    pub gas: Option<u32>,
    /// Number of immediate operand bytes following the opcode (`PUSHn` only).
    pub immediates: u8,
    /// Functional category.
    pub category: OpCategory,
    /// One-line description, following Table I of the paper.
    pub description: &'static str,
}

impl fmt::Display for OpcodeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic)
    }
}

macro_rules! opcode_table {
    ($(($byte:expr, $name:ident, $gas:expr, $imm:expr, $cat:ident, $desc:expr)),+ $(,)?) => {
        /// Byte constants for every Shanghai opcode, for programmatic
        /// bytecode construction.
        ///
        /// # Examples
        ///
        /// ```
        /// use phishinghook_evm::opcodes::op;
        /// let prologue = [op::PUSH1, 0x80, op::PUSH1, 0x40, op::MSTORE];
        /// assert_eq!(prologue[4], 0x52);
        /// ```
        pub mod op {
            $(#[doc = $desc] pub const $name: u8 = $byte;)+
        }

        /// All opcodes defined in the Shanghai fork, in ascending byte order.
        pub static SHANGHAI_OPCODES: &[OpcodeInfo] = &[
            $(OpcodeInfo {
                byte: $byte,
                mnemonic: stringify!($name),
                gas: $gas,
                immediates: $imm,
                category: OpCategory::$cat,
                description: $desc,
            }),+
        ];
    };
}

#[rustfmt::skip]
opcode_table! {
    (0x00, STOP,           Some(0),     0, StopArithmetic,    "Halts execution"),
    (0x01, ADD,            Some(3),     0, StopArithmetic,    "Addition operation"),
    (0x02, MUL,            Some(5),     0, StopArithmetic,    "Multiplication operation"),
    (0x03, SUB,            Some(3),     0, StopArithmetic,    "Subtraction operation"),
    (0x04, DIV,            Some(5),     0, StopArithmetic,    "Integer division operation"),
    (0x05, SDIV,           Some(5),     0, StopArithmetic,    "Signed integer division operation (truncated)"),
    (0x06, MOD,            Some(5),     0, StopArithmetic,    "Modulo remainder operation"),
    (0x07, SMOD,           Some(5),     0, StopArithmetic,    "Signed modulo remainder operation"),
    (0x08, ADDMOD,         Some(8),     0, StopArithmetic,    "Modulo addition operation"),
    (0x09, MULMOD,         Some(8),     0, StopArithmetic,    "Modulo multiplication operation"),
    (0x0A, EXP,            Some(10),    0, StopArithmetic,    "Exponential operation"),
    (0x0B, SIGNEXTEND,     Some(5),     0, StopArithmetic,    "Extend length of two's complement signed integer"),
    (0x10, LT,             Some(3),     0, ComparisonBitwise, "Less-than comparison"),
    (0x11, GT,             Some(3),     0, ComparisonBitwise, "Greater-than comparison"),
    (0x12, SLT,            Some(3),     0, ComparisonBitwise, "Signed less-than comparison"),
    (0x13, SGT,            Some(3),     0, ComparisonBitwise, "Signed greater-than comparison"),
    (0x14, EQ,             Some(3),     0, ComparisonBitwise, "Equality comparison"),
    (0x15, ISZERO,         Some(3),     0, ComparisonBitwise, "Is-zero comparison"),
    (0x16, AND,            Some(3),     0, ComparisonBitwise, "Bitwise AND operation"),
    (0x17, OR,             Some(3),     0, ComparisonBitwise, "Bitwise OR operation"),
    (0x18, XOR,            Some(3),     0, ComparisonBitwise, "Bitwise XOR operation"),
    (0x19, NOT,            Some(3),     0, ComparisonBitwise, "Bitwise NOT operation"),
    (0x1A, BYTE,           Some(3),     0, ComparisonBitwise, "Retrieve single byte from word"),
    (0x1B, SHL,            Some(3),     0, ComparisonBitwise, "Left shift operation"),
    (0x1C, SHR,            Some(3),     0, ComparisonBitwise, "Logical right shift operation"),
    (0x1D, SAR,            Some(3),     0, ComparisonBitwise, "Arithmetic (signed) right shift operation"),
    (0x20, SHA3,           Some(30),    0, Sha3,              "Compute Keccak-256 hash"),
    (0x30, ADDRESS,        Some(2),     0, Environment,       "Get address of currently executing account"),
    (0x31, BALANCE,        Some(100),   0, Environment,       "Get balance of the given account"),
    (0x32, ORIGIN,         Some(2),     0, Environment,       "Get execution origination address"),
    (0x33, CALLER,         Some(2),     0, Environment,       "Get caller address"),
    (0x34, CALLVALUE,      Some(2),     0, Environment,       "Get deposited value by the instruction/transaction"),
    (0x35, CALLDATALOAD,   Some(3),     0, Environment,       "Get input data of current environment"),
    (0x36, CALLDATASIZE,   Some(2),     0, Environment,       "Get size of input data in current environment"),
    (0x37, CALLDATACOPY,   Some(3),     0, Environment,       "Copy input data in current environment to memory"),
    (0x38, CODESIZE,       Some(2),     0, Environment,       "Get size of code running in current environment"),
    (0x39, CODECOPY,       Some(3),     0, Environment,       "Copy code running in current environment to memory"),
    (0x3A, GASPRICE,       Some(2),     0, Environment,       "Get price of gas in current environment"),
    (0x3B, EXTCODESIZE,    Some(100),   0, Environment,       "Get size of an account's code"),
    (0x3C, EXTCODECOPY,    Some(100),   0, Environment,       "Copy an account's code to memory"),
    (0x3D, RETURNDATASIZE, Some(2),     0, Environment,       "Get size of output data from the previous call"),
    (0x3E, RETURNDATACOPY, Some(3),     0, Environment,       "Copy output data from the previous call to memory"),
    (0x3F, EXTCODEHASH,    Some(100),   0, Environment,       "Get hash of an account's code"),
    (0x40, BLOCKHASH,      Some(20),    0, Block,             "Get the hash of one of the 256 most recent blocks"),
    (0x41, COINBASE,       Some(2),     0, Block,             "Get the block's beneficiary address"),
    (0x42, TIMESTAMP,      Some(2),     0, Block,             "Get the block's timestamp"),
    (0x43, NUMBER,         Some(2),     0, Block,             "Get the block's number"),
    (0x44, PREVRANDAO,     Some(2),     0, Block,             "Get the previous block's RANDAO mix"),
    (0x45, GASLIMIT,       Some(2),     0, Block,             "Get the block's gas limit"),
    (0x46, CHAINID,        Some(2),     0, Block,             "Get the chain ID"),
    (0x47, SELFBALANCE,    Some(5),     0, Block,             "Get balance of currently executing account"),
    (0x48, BASEFEE,        Some(2),     0, Block,             "Get the base fee"),
    (0x50, POP,            Some(2),     0, StackMemoryFlow,   "Remove item from stack"),
    (0x51, MLOAD,          Some(3),     0, StackMemoryFlow,   "Load word from memory"),
    (0x52, MSTORE,         Some(3),     0, StackMemoryFlow,   "Save word to memory"),
    (0x53, MSTORE8,        Some(3),     0, StackMemoryFlow,   "Save byte to memory"),
    (0x54, SLOAD,          Some(100),   0, StackMemoryFlow,   "Load word from storage"),
    (0x55, SSTORE,         Some(100),   0, StackMemoryFlow,   "Save word to storage"),
    (0x56, JUMP,           Some(8),     0, StackMemoryFlow,   "Alter the program counter"),
    (0x57, JUMPI,          Some(10),    0, StackMemoryFlow,   "Conditionally alter the program counter"),
    (0x58, PC,             Some(2),     0, StackMemoryFlow,   "Get the value of the program counter"),
    (0x59, MSIZE,          Some(2),     0, StackMemoryFlow,   "Get the size of active memory in bytes"),
    (0x5A, GAS,            Some(2),     0, StackMemoryFlow,   "Get the amount of available gas"),
    (0x5B, JUMPDEST,       Some(1),     0, StackMemoryFlow,   "Mark a valid destination for jumps"),
    (0x5F, PUSH0,          Some(2),     0, Push,              "Place value 0 on stack"),
    (0x60, PUSH1,          Some(3),     1, Push,              "Place 1-byte item on stack"),
    (0x61, PUSH2,          Some(3),     2, Push,              "Place 2-byte item on stack"),
    (0x62, PUSH3,          Some(3),     3, Push,              "Place 3-byte item on stack"),
    (0x63, PUSH4,          Some(3),     4, Push,              "Place 4-byte item on stack"),
    (0x64, PUSH5,          Some(3),     5, Push,              "Place 5-byte item on stack"),
    (0x65, PUSH6,          Some(3),     6, Push,              "Place 6-byte item on stack"),
    (0x66, PUSH7,          Some(3),     7, Push,              "Place 7-byte item on stack"),
    (0x67, PUSH8,          Some(3),     8, Push,              "Place 8-byte item on stack"),
    (0x68, PUSH9,          Some(3),     9, Push,              "Place 9-byte item on stack"),
    (0x69, PUSH10,         Some(3),    10, Push,              "Place 10-byte item on stack"),
    (0x6A, PUSH11,         Some(3),    11, Push,              "Place 11-byte item on stack"),
    (0x6B, PUSH12,         Some(3),    12, Push,              "Place 12-byte item on stack"),
    (0x6C, PUSH13,         Some(3),    13, Push,              "Place 13-byte item on stack"),
    (0x6D, PUSH14,         Some(3),    14, Push,              "Place 14-byte item on stack"),
    (0x6E, PUSH15,         Some(3),    15, Push,              "Place 15-byte item on stack"),
    (0x6F, PUSH16,         Some(3),    16, Push,              "Place 16-byte item on stack"),
    (0x70, PUSH17,         Some(3),    17, Push,              "Place 17-byte item on stack"),
    (0x71, PUSH18,         Some(3),    18, Push,              "Place 18-byte item on stack"),
    (0x72, PUSH19,         Some(3),    19, Push,              "Place 19-byte item on stack"),
    (0x73, PUSH20,         Some(3),    20, Push,              "Place 20-byte item on stack"),
    (0x74, PUSH21,         Some(3),    21, Push,              "Place 21-byte item on stack"),
    (0x75, PUSH22,         Some(3),    22, Push,              "Place 22-byte item on stack"),
    (0x76, PUSH23,         Some(3),    23, Push,              "Place 23-byte item on stack"),
    (0x77, PUSH24,         Some(3),    24, Push,              "Place 24-byte item on stack"),
    (0x78, PUSH25,         Some(3),    25, Push,              "Place 25-byte item on stack"),
    (0x79, PUSH26,         Some(3),    26, Push,              "Place 26-byte item on stack"),
    (0x7A, PUSH27,         Some(3),    27, Push,              "Place 27-byte item on stack"),
    (0x7B, PUSH28,         Some(3),    28, Push,              "Place 28-byte item on stack"),
    (0x7C, PUSH29,         Some(3),    29, Push,              "Place 29-byte item on stack"),
    (0x7D, PUSH30,         Some(3),    30, Push,              "Place 30-byte item on stack"),
    (0x7E, PUSH31,         Some(3),    31, Push,              "Place 31-byte item on stack"),
    (0x7F, PUSH32,         Some(3),    32, Push,              "Place 32-byte (full word) item on stack"),
    (0x80, DUP1,           Some(3),     0, Dup,               "Duplicate 1st stack item"),
    (0x81, DUP2,           Some(3),     0, Dup,               "Duplicate 2nd stack item"),
    (0x82, DUP3,           Some(3),     0, Dup,               "Duplicate 3rd stack item"),
    (0x83, DUP4,           Some(3),     0, Dup,               "Duplicate 4th stack item"),
    (0x84, DUP5,           Some(3),     0, Dup,               "Duplicate 5th stack item"),
    (0x85, DUP6,           Some(3),     0, Dup,               "Duplicate 6th stack item"),
    (0x86, DUP7,           Some(3),     0, Dup,               "Duplicate 7th stack item"),
    (0x87, DUP8,           Some(3),     0, Dup,               "Duplicate 8th stack item"),
    (0x88, DUP9,           Some(3),     0, Dup,               "Duplicate 9th stack item"),
    (0x89, DUP10,          Some(3),     0, Dup,               "Duplicate 10th stack item"),
    (0x8A, DUP11,          Some(3),     0, Dup,               "Duplicate 11th stack item"),
    (0x8B, DUP12,          Some(3),     0, Dup,               "Duplicate 12th stack item"),
    (0x8C, DUP13,          Some(3),     0, Dup,               "Duplicate 13th stack item"),
    (0x8D, DUP14,          Some(3),     0, Dup,               "Duplicate 14th stack item"),
    (0x8E, DUP15,          Some(3),     0, Dup,               "Duplicate 15th stack item"),
    (0x8F, DUP16,          Some(3),     0, Dup,               "Duplicate 16th stack item"),
    (0x90, SWAP1,          Some(3),     0, Swap,              "Exchange 1st and 2nd stack items"),
    (0x91, SWAP2,          Some(3),     0, Swap,              "Exchange 1st and 3rd stack items"),
    (0x92, SWAP3,          Some(3),     0, Swap,              "Exchange 1st and 4th stack items"),
    (0x93, SWAP4,          Some(3),     0, Swap,              "Exchange 1st and 5th stack items"),
    (0x94, SWAP5,          Some(3),     0, Swap,              "Exchange 1st and 6th stack items"),
    (0x95, SWAP6,          Some(3),     0, Swap,              "Exchange 1st and 7th stack items"),
    (0x96, SWAP7,          Some(3),     0, Swap,              "Exchange 1st and 8th stack items"),
    (0x97, SWAP8,          Some(3),     0, Swap,              "Exchange 1st and 9th stack items"),
    (0x98, SWAP9,          Some(3),     0, Swap,              "Exchange 1st and 10th stack items"),
    (0x99, SWAP10,         Some(3),     0, Swap,              "Exchange 1st and 11th stack items"),
    (0x9A, SWAP11,         Some(3),     0, Swap,              "Exchange 1st and 12th stack items"),
    (0x9B, SWAP12,         Some(3),     0, Swap,              "Exchange 1st and 13th stack items"),
    (0x9C, SWAP13,         Some(3),     0, Swap,              "Exchange 1st and 14th stack items"),
    (0x9D, SWAP14,         Some(3),     0, Swap,              "Exchange 1st and 15th stack items"),
    (0x9E, SWAP15,         Some(3),     0, Swap,              "Exchange 1st and 16th stack items"),
    (0x9F, SWAP16,         Some(3),     0, Swap,              "Exchange 1st and 17th stack items"),
    (0xA0, LOG0,           Some(375),   0, Log,               "Append log record with no topics"),
    (0xA1, LOG1,           Some(750),   0, Log,               "Append log record with one topic"),
    (0xA2, LOG2,           Some(1125),  0, Log,               "Append log record with two topics"),
    (0xA3, LOG3,           Some(1500),  0, Log,               "Append log record with three topics"),
    (0xA4, LOG4,           Some(1875),  0, Log,               "Append log record with four topics"),
    (0xF0, CREATE,         Some(32000), 0, System,            "Create a new account with associated code"),
    (0xF1, CALL,           Some(100),   0, System,            "Message-call into an account"),
    (0xF2, CALLCODE,       Some(100),   0, System,            "Message-call into this account with an alternative account's code"),
    (0xF3, RETURN,         Some(0),     0, System,            "Halt execution returning output data"),
    (0xF4, DELEGATECALL,   Some(100),   0, System,            "Message-call into this account with an alternative account's code, persisting sender and value"),
    (0xF5, CREATE2,        Some(32000), 0, System,            "Create a new account with associated code at a predictable address"),
    (0xFA, STATICCALL,     Some(100),   0, System,            "Static message-call into an account"),
    (0xFD, REVERT,         Some(0),     0, System,            "Halt execution reverting state changes but returning data and remaining gas"),
    (0xFE, INVALID,        None,        0, System,            "Designated invalid instruction"),
    (0xFF, SELFDESTRUCT,   Some(5000),  0, System,            "Halt execution and register account for later deletion"),
}

/// Number of opcodes defined in the Shanghai fork (the paper's "144 opcodes").
pub const SHANGHAI_OPCODE_COUNT: usize = SHANGHAI_OPCODES.len();

/// 256-entry lookup table from byte value to index in [`SHANGHAI_OPCODES`].
static LUT: [i16; 256] = {
    let mut lut = [-1i16; 256];
    let mut i = 0;
    while i < SHANGHAI_OPCODES.len() {
        lut[SHANGHAI_OPCODES[i].byte as usize] = i as i16;
        i += 1;
    }
    lut
};

/// Looks up the Shanghai opcode for a byte value.
///
/// Returns `None` for the 112 byte values that are unassigned in the Shanghai
/// fork (such bytes execute as invalid instructions on chain).
///
/// # Examples
///
/// ```
/// use phishinghook_evm::opcodes::opcode_info;
/// assert_eq!(opcode_info(0x52).unwrap().mnemonic, "MSTORE");
/// assert!(opcode_info(0x0C).is_none());
/// ```
pub fn opcode_info(byte: u8) -> Option<&'static OpcodeInfo> {
    let idx = LUT[byte as usize];
    if idx < 0 {
        None
    } else {
        Some(&SHANGHAI_OPCODES[idx as usize])
    }
}

/// Looks up an opcode by its mnemonic (case-sensitive, e.g. `"MSTORE"`).
///
/// # Examples
///
/// ```
/// use phishinghook_evm::opcodes::opcode_by_mnemonic;
/// assert_eq!(opcode_by_mnemonic("PUSH0").unwrap().byte, 0x5F);
/// assert!(opcode_by_mnemonic("mstore").is_none());
/// ```
pub fn opcode_by_mnemonic(mnemonic: &str) -> Option<&'static OpcodeInfo> {
    SHANGHAI_OPCODES.iter().find(|o| o.mnemonic == mnemonic)
}

/// Returns `true` if `byte` is assigned in the Shanghai fork.
pub fn is_defined(byte: u8) -> bool {
    LUT[byte as usize] >= 0
}

/// Returns the number of immediate bytes that follow `byte` in a code stream
/// (non-zero only for `PUSH1`..`PUSH32`; unassigned bytes take none).
pub fn immediate_len(byte: u8) -> usize {
    if (0x60..=0x7F).contains(&byte) {
        (byte - 0x5F) as usize
    } else {
        0
    }
}

/// Iterates over the mnemonics of all 144 Shanghai opcodes in byte order.
pub fn mnemonics() -> impl Iterator<Item = &'static str> {
    SHANGHAI_OPCODES.iter().map(|o| o.mnemonic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_has_exactly_144_opcodes() {
        assert_eq!(SHANGHAI_OPCODE_COUNT, 144);
    }

    #[test]
    fn bytes_are_unique_and_sorted() {
        let mut prev: i32 = -1;
        for info in SHANGHAI_OPCODES {
            assert!((info.byte as i32) > prev, "{} out of order", info.mnemonic);
            prev = info.byte as i32;
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let set: HashSet<_> = mnemonics().collect();
        assert_eq!(set.len(), SHANGHAI_OPCODE_COUNT);
    }

    #[test]
    fn lookup_round_trips() {
        for info in SHANGHAI_OPCODES {
            assert_eq!(opcode_info(info.byte), Some(info));
            assert_eq!(opcode_by_mnemonic(info.mnemonic), Some(info));
        }
    }

    #[test]
    fn table_one_spot_checks() {
        // The rows printed in the paper's Table I.
        let stop = opcode_info(0x00).unwrap();
        assert_eq!((stop.mnemonic, stop.gas), ("STOP", Some(0)));
        let add = opcode_info(0x01).unwrap();
        assert_eq!((add.mnemonic, add.gas), ("ADD", Some(3)));
        let mul = opcode_info(0x02).unwrap();
        assert_eq!((mul.mnemonic, mul.gas), ("MUL", Some(5)));
        let revert = opcode_info(0xFD).unwrap();
        assert_eq!((revert.mnemonic, revert.gas), ("REVERT", Some(0)));
        let invalid = opcode_info(0xFE).unwrap();
        assert_eq!((invalid.mnemonic, invalid.gas), ("INVALID", None));
        let selfdestruct = opcode_info(0xFF).unwrap();
        assert_eq!(
            (selfdestruct.mnemonic, selfdestruct.gas),
            ("SELFDESTRUCT", Some(5000))
        );
    }

    #[test]
    fn shanghai_additions_present() {
        // The two opcodes the paper added to evmdasm.
        assert_eq!(opcode_info(0x5F).unwrap().mnemonic, "PUSH0");
        assert_eq!(opcode_info(0xFE).unwrap().mnemonic, "INVALID");
    }

    #[test]
    fn push_immediates_match_width() {
        for n in 1..=32u8 {
            let byte = 0x5F + n;
            let info = opcode_info(byte).unwrap();
            assert_eq!(info.immediates, n);
            assert_eq!(immediate_len(byte), n as usize);
        }
        assert_eq!(opcode_info(0x5F).unwrap().immediates, 0);
        // The edges of the PUSH1..PUSH32 range the decoder reads widths from.
        assert_eq!(immediate_len(0x5F), 0);
        assert_eq!(immediate_len(0x80), 0);
        assert_eq!(immediate_len(0x01), 0);
        assert_eq!(immediate_len(op::MSTORE), 0);
        for byte in 0..=u8::MAX {
            let want = opcode_info(byte).map_or(0, |i| usize::from(i.immediates));
            assert_eq!(immediate_len(byte), want, "0x{byte:02X}");
        }
    }

    #[test]
    fn undefined_gaps_are_undefined() {
        for byte in [0x0Cu8, 0x0F, 0x1E, 0x21, 0x2F, 0x49, 0x5C, 0xA5, 0xEF, 0xFB] {
            assert!(opcode_info(byte).is_none(), "0x{byte:02X} should be a gap");
            assert!(!is_defined(byte));
        }
    }

    #[test]
    fn category_counts() {
        let count = |c: OpCategory| SHANGHAI_OPCODES.iter().filter(|o| o.category == c).count();
        assert_eq!(count(OpCategory::Push), 33); // PUSH0..PUSH32
        assert_eq!(count(OpCategory::Dup), 16);
        assert_eq!(count(OpCategory::Swap), 16);
        assert_eq!(count(OpCategory::Log), 5);
        assert_eq!(count(OpCategory::System), 10);
    }
}
