//! Contract families and the per-family bytecode generator.
//!
//! Every synthetic contract belongs to a *family* — a benign archetype
//! (ERC-20 token, NFT mint, vesting wallet, ...) or a phishing archetype
//! (approval drainer, fake airdrop claimer, ...). All families except the
//! EIP-1167 minimal proxy share the same solc-like skeleton: memory-setup
//! prologue, `PUSH4`/`EQ`/`JUMPI` selector dispatcher, function bodies
//! assembled from the snippet library, and a CBOR metadata trailer. The
//! classes therefore overlap heavily in opcode space and differ only in the
//! *mix* of body snippets — like the real corpus in the paper's Fig. 3.

use crate::asm::Asm;
use crate::month::Month;
use crate::snippets::{snippet_index, SnipEnv, SNIPPETS};
use phishinghook_evm::opcodes::op;
use phishinghook_evm::Bytecode;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Ground-truth class of a contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContractClass {
    /// Legitimate contract.
    Benign,
    /// Phishing contract (the Etherscan `Phish/Hack` flag in the paper).
    Phishing,
}

impl fmt::Display for ContractClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractClass::Benign => f.write_str("benign"),
            ContractClass::Phishing => f.write_str("phishing"),
        }
    }
}

/// The synthetic contract families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Standard fungible token.
    Erc20Token,
    /// NFT collection with mint/transfer entry points.
    Erc721Mint,
    /// Token vesting wallet with time gates.
    VestingWallet,
    /// Multi-signature wallet with owner checks.
    MultisigWallet,
    /// Staking pool (deposits, time gates, reward math).
    StakingPool,
    /// Stateless utility/library contract (math, registries).
    UtilityLibrary,
    /// EIP-1167 minimal proxy clone.
    MinimalProxy,
    /// Drains pre-approved ERC-20 allowances to a fixed address.
    ApprovalDrainer,
    /// "Claim your airdrop" bait that sweeps the paid value.
    FakeAirdropClaimer,
    /// Sweeps native ETH balances to a hard-coded wallet.
    WalletSweeper,
    /// ERC-20 look-alike with hidden drain paths.
    CounterfeitToken,
    /// Accepts deposits, reverts every withdrawal path.
    HoneypotVault,
}

impl Family {
    /// All families, benign first.
    pub const ALL: [Family; 12] = [
        Family::Erc20Token,
        Family::Erc721Mint,
        Family::VestingWallet,
        Family::MultisigWallet,
        Family::StakingPool,
        Family::UtilityLibrary,
        Family::MinimalProxy,
        Family::ApprovalDrainer,
        Family::FakeAirdropClaimer,
        Family::WalletSweeper,
        Family::CounterfeitToken,
        Family::HoneypotVault,
    ];

    /// Ground-truth class of this family.
    pub fn class(&self) -> ContractClass {
        match self {
            Family::Erc20Token
            | Family::Erc721Mint
            | Family::VestingWallet
            | Family::MultisigWallet
            | Family::StakingPool
            | Family::UtilityLibrary
            | Family::MinimalProxy => ContractClass::Benign,
            Family::ApprovalDrainer
            | Family::FakeAirdropClaimer
            | Family::WalletSweeper
            | Family::CounterfeitToken
            | Family::HoneypotVault => ContractClass::Phishing,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Family::Erc20Token => "erc20-token",
            Family::Erc721Mint => "erc721-mint",
            Family::VestingWallet => "vesting-wallet",
            Family::MultisigWallet => "multisig-wallet",
            Family::StakingPool => "staking-pool",
            Family::UtilityLibrary => "utility-library",
            Family::MinimalProxy => "minimal-proxy",
            Family::ApprovalDrainer => "approval-drainer",
            Family::FakeAirdropClaimer => "fake-airdrop-claimer",
            Family::WalletSweeper => "wallet-sweeper",
            Family::CounterfeitToken => "counterfeit-token",
            Family::HoneypotVault => "honeypot-vault",
        };
        f.write_str(name)
    }
}

/// Tunable knobs controlling how hard the classification task is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Difficulty {
    /// Probability that a body snippet is drawn from the *other* class's
    /// characteristic pool instead of the family's own profile.
    pub cross_pollination: f64,
    /// Strength of the month-over-month drift applied to phishing profiles
    /// (0 disables; 1 doubles evolving weights by the last month).
    pub drift: f64,
}

impl Default for Difficulty {
    fn default() -> Self {
        // Calibrated so HSC accuracy lands in the paper's 84-94% band.
        Difficulty {
            cross_pollination: 0.35,
            drift: 0.45,
        }
    }
}

/// Profile entry: snippet name, base weight, and a drift slope applied as
/// months pass (phishing families evolve to evade detection; Fig. 8).
struct W(&'static str, f64, f64);

struct Profile {
    selectors: std::ops::Range<usize>,
    blocks_per_fn: std::ops::Range<usize>,
    payable: f64,
    weights: &'static [W],
}

/// Selector pool with well-known 4-byte values so dispatchers look real.
const KNOWN_SELECTORS: [u32; 14] = [
    0xa9059cbb, // transfer(address,uint256)
    0x095ea7b3, // approve(address,uint256)
    0x23b872dd, // transferFrom(address,address,uint256)
    0x70a08231, // balanceOf(address)
    0x18160ddd, // totalSupply()
    0xdd62ed3e, // allowance(address,address)
    0x4e71d92d, // claim()
    0x3ccfd60b, // withdraw()
    0xd0e30db0, // deposit()
    0x8da5cb5b, // owner()
    0xf2fde38b, // transferOwnership(address)
    0x40c10f19, // mint(address,uint256)
    0x42842e0e, // safeTransferFrom(address,address,uint256)
    0xa22cb465, // setApprovalForAll(address,bool)
];

fn profile(family: Family) -> Profile {
    match family {
        Family::Erc20Token => Profile {
            selectors: 6..10,
            blocks_per_fn: 3..7,
            payable: 0.05,
            weights: &[
                W("allowance_update", 3.0, 0.0),
                W("overflow_guard", 3.0, 0.0),
                W("event_transfer", 2.5, 0.0),
                W("access_control", 1.5, 0.0),
                W("hash_slot", 2.0, 0.0),
                W("storage_read", 1.5, 0.0),
                W("storage_write", 1.5, 0.0),
                W("calldata_arg", 2.0, 0.0),
                W("arith_mix", 1.0, 0.0),
                W("branch_check", 1.0, 0.0),
            ],
        },
        Family::Erc721Mint => Profile {
            selectors: 5..9,
            blocks_per_fn: 3..6,
            payable: 0.4,
            weights: &[
                W("event_transfer", 3.0, 0.0),
                W("hash_slot", 2.5, 0.0),
                W("access_control", 2.0, 0.0),
                W("storage_write", 2.0, 0.0),
                W("overflow_guard", 1.5, 0.0),
                W("calldata_arg", 2.0, 0.0),
                W("mem_roundtrip", 1.0, 0.0),
                W("branch_check", 1.0, 0.0),
            ],
        },
        Family::VestingWallet => Profile {
            selectors: 3..6,
            blocks_per_fn: 3..6,
            payable: 0.5,
            weights: &[
                W("time_gate", 3.0, 0.0),
                W("safe_external_call", 2.5, 0.0),
                W("access_control", 2.0, 0.0),
                W("storage_read", 1.5, 0.0),
                W("overflow_guard", 1.5, 0.0),
                W("arith_mix", 1.5, 0.0),
                // Legitimate release() that sends the balance out — the
                // benign hard-negative for the sweeper family.
                W("sweep_balance", 0.6, 0.0),
                W("branch_check", 1.0, 0.0),
            ],
        },
        Family::MultisigWallet => Profile {
            selectors: 4..8,
            blocks_per_fn: 3..7,
            payable: 0.6,
            weights: &[
                W("access_control", 3.5, 0.0),
                W("safe_external_call", 2.5, 0.0),
                W("event_transfer", 1.5, 0.0),
                W("hash_slot", 2.0, 0.0),
                W("storage_write", 1.5, 0.0),
                W("branch_check", 1.5, 0.0),
                W("unchecked_call", 0.4, 0.0),
                W("calldata_arg", 1.5, 0.0),
            ],
        },
        Family::StakingPool => Profile {
            selectors: 5..9,
            blocks_per_fn: 4..8,
            payable: 0.7,
            weights: &[
                W("time_gate", 2.5, 0.0),
                W("overflow_guard", 2.5, 0.0),
                W("event_transfer", 2.0, 0.0),
                W("hash_slot", 2.0, 0.0),
                W("safe_external_call", 2.0, 0.0),
                W("arith_mix", 2.0, 0.0),
                W("storage_write", 1.5, 0.0),
                W("staticcall_view", 1.5, 0.0),
            ],
        },
        Family::UtilityLibrary => Profile {
            selectors: 3..7,
            blocks_per_fn: 2..6,
            payable: 0.0,
            weights: &[
                W("arith_mix", 3.5, 0.0),
                W("mem_roundtrip", 2.5, 0.0),
                W("staticcall_view", 2.0, 0.0),
                W("hash_slot", 1.5, 0.0),
                W("branch_check", 1.5, 0.0),
                W("stack_shuffle", 1.5, 0.0),
                W("calldata_arg", 1.5, 0.0),
                W("delegate_forward", 1.0, 0.0),
            ],
        },
        // Dispatcherless; handled separately in `generate`.
        Family::MinimalProxy => Profile {
            selectors: 0..1,
            blocks_per_fn: 0..1,
            payable: 1.0,
            weights: &[],
        },
        Family::ApprovalDrainer => Profile {
            selectors: 2..6,
            blocks_per_fn: 3..7,
            payable: 0.5,
            weights: &[
                W("drain_transfer_from", 3.0, 0.3),
                W("hardcoded_exfil", 2.0, 0.0),
                W("origin_gate", 1.5, -0.4),
                W("unchecked_call", 2.0, 0.2),
                W("fake_event_spam", 1.0, 0.8),
                W("calldata_arg", 1.5, 0.0),
                W("storage_write", 1.0, 0.0),
                W("branch_check", 1.0, 0.0),
            ],
        },
        Family::FakeAirdropClaimer => Profile {
            selectors: 1..4,
            blocks_per_fn: 2..6,
            payable: 0.95,
            weights: &[
                W("fake_event_spam", 3.0, 0.5),
                W("sweep_balance", 2.5, 0.0),
                W("hardcoded_exfil", 2.0, 0.0),
                W("origin_gate", 1.5, -0.3),
                W("unchecked_call", 1.5, 0.0),
                W("calldata_arg", 1.0, 0.0),
                W("stack_shuffle", 1.0, 0.4),
            ],
        },
        Family::WalletSweeper => Profile {
            selectors: 1..4,
            blocks_per_fn: 2..5,
            payable: 0.9,
            weights: &[
                W("sweep_balance", 3.5, 0.0),
                W("origin_gate", 2.0, -0.5),
                W("hardcoded_exfil", 2.0, 0.0),
                W("unchecked_call", 1.5, 0.3),
                W("selfdestruct_exit", 1.0, -0.3),
                W("storage_read", 1.0, 0.0),
                W("branch_check", 1.0, 0.4),
            ],
        },
        // The hard positive: mostly an ERC-20, with a thin drain layer.
        Family::CounterfeitToken => Profile {
            selectors: 6..10,
            blocks_per_fn: 3..7,
            payable: 0.2,
            weights: &[
                W("allowance_update", 2.5, 0.0),
                W("overflow_guard", 2.0, 0.0),
                W("event_transfer", 2.0, 0.0),
                W("hash_slot", 1.5, 0.0),
                W("calldata_arg", 1.5, 0.0),
                W("approval_bait", 1.5, 0.5),
                W("hardcoded_exfil", 1.0, 0.0),
                W("drain_transfer_from", 0.8, 0.4),
                W("fake_event_spam", 0.6, 0.6),
            ],
        },
        Family::HoneypotVault => Profile {
            selectors: 3..6,
            blocks_per_fn: 3..6,
            payable: 0.95,
            weights: &[
                W("branch_check", 2.5, 0.0),
                W("time_gate", 2.0, 0.0),
                W("storage_write", 2.0, 0.0),
                W("hardcoded_exfil", 1.5, 0.0),
                W("origin_gate", 1.5, 0.0),
                W("sweep_balance", 1.0, 0.3),
                W("stack_shuffle", 1.5, 0.3),
                W("calldata_arg", 1.0, 0.0),
            ],
        },
    }
}

/// Draws a snippet index from a profile, applying drift and cross-class
/// pollination.
fn draw_snippet(
    prof: &Profile,
    family: Family,
    month: Month,
    difficulty: &Difficulty,
    rng: &mut StdRng,
) -> usize {
    // Cross-pollination: sometimes sample from the opposite class's pool.
    if rng.gen_bool(difficulty.cross_pollination) {
        let want = match family.class() {
            ContractClass::Benign => crate::snippets::Lean::Phishing,
            ContractClass::Phishing => crate::snippets::Lean::Benign,
        };
        let pool: Vec<usize> = SNIPPETS
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lean == want || s.lean == crate::snippets::Lean::Neutral)
            .map(|(i, _)| i)
            .collect();
        return pool[rng.gen_range(0..pool.len())];
    }
    let t = month.0 as f64 / 12.0 * difficulty.drift;
    let weights: Vec<f64> = prof
        .weights
        .iter()
        .map(|W(_, w, slope)| (w * (1.0 + slope * t)).max(0.05))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total);
    for (W(name, _, _), w) in prof.weights.iter().zip(&weights) {
        if pick < *w {
            return snippet_index(name);
        }
        pick -= w;
    }
    snippet_index(prof.weights.last().expect("non-empty profile").0)
}

/// Emits the exact EIP-1167 minimal-proxy runtime for an implementation
/// address (45 bytes) — the clone pattern responsible for the paper's
/// massive bytecode duplication.
pub fn minimal_proxy(implementation: &[u8; 20]) -> Bytecode {
    let mut bytes = Vec::with_capacity(45);
    bytes.extend_from_slice(&[0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73]);
    bytes.extend_from_slice(implementation);
    bytes.extend_from_slice(&[
        0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3,
    ]);
    Bytecode::new(bytes)
}

/// Generates one contract of the given family deployed in `month`.
///
/// Deterministic given the RNG state; clone-level duplication is handled by
/// the corpus builder, not here.
pub fn generate_contract(
    family: Family,
    month: Month,
    difficulty: &Difficulty,
    rng: &mut StdRng,
) -> Bytecode {
    if family == Family::MinimalProxy {
        let mut implementation = [0u8; 20];
        rng.fill(&mut implementation);
        return minimal_proxy(&implementation);
    }

    let prof = profile(family);
    let mut attacker = [0u8; 20];
    rng.fill(&mut attacker);
    let env = SnipEnv { attacker };

    let n_fns = rng.gen_range(prof.selectors.clone());
    let mut selectors = Vec::with_capacity(n_fns);
    for _ in 0..n_fns {
        if rng.gen_bool(0.6) {
            selectors.push(KNOWN_SELECTORS[rng.gen_range(0..KNOWN_SELECTORS.len())]);
        } else {
            selectors.push(rng.gen());
        }
    }

    let mut asm = Asm::new();
    // Solidity prologue: free-memory pointer.
    asm.push1(0x80).push1(0x40).op(op::MSTORE);
    // Non-payable guard (most benign contracts; drainers are mostly payable).
    if !rng.gen_bool(prof.payable) {
        asm.op(op::CALLVALUE).op(op::DUP1).op(op::ISZERO);
        let hole = asm.push2_placeholder();
        asm.op(op::JUMPI).op(op::PUSH0).op(op::DUP1).op(op::REVERT);
        let target = asm.len() as u16;
        asm.op(op::JUMPDEST);
        asm.patch_u16(hole, target);
        asm.op(op::POP);
    }
    // Selector extraction.
    asm.push1(0x04).op(op::CALLDATASIZE).op(op::LT);
    let fallback_hole = asm.push2_placeholder();
    asm.op(op::JUMPI);
    asm.op(op::PUSH0)
        .op(op::CALLDATALOAD)
        .push1(0xE0)
        .op(op::SHR);

    // Dispatcher chain with placeholder body targets.
    let mut body_holes = Vec::with_capacity(selectors.len());
    for &sel in &selectors {
        asm.op(op::DUP1).push_selector(sel).op(op::EQ);
        body_holes.push(asm.push2_placeholder());
        asm.op(op::JUMPI);
    }
    // Fallback: revert.
    let fallback_at = asm.len() as u16;
    asm.patch_u16(fallback_hole, fallback_at);
    asm.op(op::JUMPDEST)
        .op(op::PUSH0)
        .op(op::DUP1)
        .op(op::REVERT);

    // Function bodies.
    for hole in body_holes {
        let body_at = asm.len() as u16;
        asm.patch_u16(hole, body_at);
        asm.op(op::JUMPDEST);
        let blocks = rng.gen_range(prof.blocks_per_fn.clone()).max(1);
        for _ in 0..blocks {
            let idx = draw_snippet(&prof, family, month, difficulty, rng);
            (SNIPPETS[idx].emit)(&mut asm, rng, &env);
        }
        // Terminator: return a word, stop, or revert (honeypots revert more).
        let r: f64 = rng.gen();
        let revert_bias = if family == Family::HoneypotVault {
            0.45
        } else {
            0.1
        };
        if r < revert_bias {
            asm.op(op::PUSH0).op(op::DUP1).op(op::REVERT);
        } else if r < 0.6 {
            asm.push1(0x01)
                .op(op::PUSH0)
                .op(op::MSTORE)
                .push1(0x20)
                .op(op::PUSH0)
                .op(op::RETURN);
        } else {
            asm.op(op::STOP);
        }
    }

    // CBOR metadata trailer (ipfs hash + solc version), as solc appends.
    asm.op(0xA2).op(0x64).raw(b"ipfs").op(0x58).op(0x22);
    let mut digest = [0u8; 34];
    rng.fill(&mut digest[..]);
    asm.raw(&digest);
    asm.op(0x64).raw(b"solc").op(0x43);
    asm.raw(&[0, 8, rng.gen_range(17..26)]);
    asm.raw(&[0x00, 0x33]);

    asm.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::disasm::disassemble;
    use rand::SeedableRng;

    #[test]
    fn all_families_generate() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Difficulty::default();
        for family in Family::ALL {
            for m in [Month(0), Month(6), Month(12)] {
                let code = generate_contract(family, m, &d, &mut rng);
                assert!(!code.is_empty(), "{family} empty");
                let instrs = disassemble(code.as_bytes());
                assert!(instrs.len() > 5, "{family} too small");
            }
        }
    }

    #[test]
    fn minimal_proxy_is_exactly_45_bytes() {
        let code = minimal_proxy(&[0x42; 20]);
        assert_eq!(code.len(), 45);
        let hex = code.to_hex();
        assert!(hex.starts_with("0x363d3d373d3d3d363d73"));
        assert!(hex.ends_with("5af43d82803e903d91602b57fd5bf3"));
    }

    #[test]
    fn class_split() {
        let count = |class| Family::ALL.iter().filter(|f| f.class() == class).count();
        assert_eq!(count(ContractClass::Benign), 7);
        assert_eq!(count(ContractClass::Phishing), 5);
    }

    #[test]
    fn classes_share_opcode_space_but_differ_in_mix() {
        // Aggregate opcode histograms differ, yet the shared skeleton keeps
        // overlap high — the regime the models must work in.
        let mut rng = StdRng::seed_from_u64(5);
        let d = Difficulty::default();
        let mut count = |fam: Family| {
            let mut hist = std::collections::HashMap::new();
            for _ in 0..30 {
                let code = generate_contract(fam, Month(2), &d, &mut rng);
                for i in disassemble(code.as_bytes()) {
                    *hist.entry(i.mnemonic.name().into_owned()).or_insert(0usize) += 1;
                }
            }
            hist
        };
        let benign = count(Family::Erc20Token);
        let phishing = count(Family::WalletSweeper);
        // Shared skeleton opcodes appear in both.
        for common in ["PUSH1", "MSTORE", "JUMPI", "PUSH4", "EQ", "CALLDATALOAD"] {
            assert!(benign.contains_key(common), "benign missing {common}");
            assert!(phishing.contains_key(common), "phishing missing {common}");
        }
        // Distributional difference: sweepers use SELFBALANCE much more.
        let b = *benign.get("SELFBALANCE").unwrap_or(&0) as f64 / 30.0;
        let p = *phishing.get("SELFBALANCE").unwrap_or(&0) as f64 / 30.0;
        assert!(p > b, "SELFBALANCE should lean phishing: {p} vs {b}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Difficulty::default();
        let mut rng1 = StdRng::seed_from_u64(99);
        let mut rng2 = StdRng::seed_from_u64(99);
        let a = generate_contract(Family::StakingPool, Month(4), &d, &mut rng1);
        let b = generate_contract(Family::StakingPool, Month(4), &d, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn dispatcher_jump_targets_are_jumpdests() {
        let mut rng = StdRng::seed_from_u64(21);
        let d = Difficulty::default();
        for family in Family::ALL {
            if family == Family::MinimalProxy {
                continue;
            }
            let code = generate_contract(family, Month(1), &d, &mut rng);
            let bytes = code.as_bytes();
            let instrs = disassemble(bytes);
            for w in instrs.windows(2) {
                if w[0].mnemonic.name() == "PUSH2" && w[1].mnemonic.name() == "JUMPI" {
                    let t = ((w[0].operand[0] as usize) << 8) | w[0].operand[1] as usize;
                    // Metadata trailer offsets are never jump targets, so all
                    // PUSH2/JUMPI pairs must land on a JUMPDEST.
                    assert!(t < bytes.len(), "{family}: jump out of range");
                    assert_eq!(bytes[t], 0x5B, "{family}: jump to non-JUMPDEST");
                }
            }
        }
    }
}
