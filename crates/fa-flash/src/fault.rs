//! Injectable fault model for the flash backbone.
//!
//! A [`FaultPlan`] describes which flash operations fail: program/erase
//! failures with a configured probability, scripted failures at exact
//! per-block attempt counts, read-disturb (a read that needs a retry and
//! marks its page for relocation), and an optional power-loss instant. The
//! plan is deterministic and seedable — every probabilistic decision is a
//! pure hash of `(seed, op, channel, die, block, per-channel sequence)`,
//! never a shared RNG stream, so the same plan produces the same fault
//! trace regardless of how commands to different channels interleave: each
//! channel rolls only its own channel-local counters.
//!
//! Installation is per-channel: the backbone hands each
//! [`ChannelController`](crate::ChannelController) a [`FaultState`] built
//! from a shared `Arc<FaultPlan>`. A controller without a state (the
//! default) pays nothing — the hooks are a single `Option` check — which is
//! what keeps fault-free runs byte-identical to the recorded golden
//! campaign.

use crate::geometry::PhysicalPageAddr;
use std::collections::HashMap;
use std::sync::Arc;

/// Operation classes the fault model can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Page program (fails as [`FlashError::InjectedProgramFailure`](crate::FlashError)).
    Program,
    /// Block erase (fails as [`FlashError::InjectedEraseFailure`](crate::FlashError)).
    Erase,
    /// Page read (a *disturb*: the read retries once and the page is
    /// queued for relocation — it never hard-fails).
    Read,
}

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Program => 0,
            FaultOp::Erase => 1,
            FaultOp::Read => 2,
        }
    }

    /// A per-op salt folded into the decision hash so the three op classes
    /// draw independent fault sequences from one seed.
    fn salt(self) -> u64 {
        match self {
            FaultOp::Program => 0x70726F67_72616D00,
            FaultOp::Erase => 0x65726153_65000000,
            FaultOp::Read => 0x72656164_00000000,
        }
    }
}

/// One scripted fault: fail the `nth` attempt (1-based) of `op` on the
/// given physical block, exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Which operation class to fail.
    pub op: FaultOp,
    /// Channel of the target block.
    pub channel: usize,
    /// Die (within the channel) of the target block.
    pub die: usize,
    /// Block (within the die) to fail.
    pub block: usize,
    /// Which attempt to fail: 1 = the first `op` ever issued to the block.
    pub nth: u64,
}

/// Aggregate fault statistics for one channel (or, summed by the backbone,
/// the whole device).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Program commands failed by injection.
    pub injected_program_failures: u64,
    /// Erase commands failed by injection.
    pub injected_erase_failures: u64,
    /// Reads that hit a disturb (retried and queued for relocation).
    pub read_disturbs: u64,
    /// Blocks promoted to the pending-retirement list.
    pub blocks_retired: u64,
}

impl FaultStats {
    /// Element-wise sum, for the backbone's device-wide view.
    pub(crate) fn absorb(&mut self, other: FaultStats) {
        self.injected_program_failures += other.injected_program_failures;
        self.injected_erase_failures += other.injected_erase_failures;
        self.read_disturbs += other.read_disturbs;
        self.blocks_retired += other.blocks_retired;
    }
}

/// A deterministic, seedable fault plan for the whole backbone.
///
/// Probabilities are stored as fixed-point thresholds (`p × 2⁶⁴`) compared
/// against a 64-bit hash, so the decision is exact and platform-independent
/// — no floating-point comparison sits on the fault path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every probabilistic decision hashes from.
    pub seed: u64,
    /// Program-failure threshold (`probability × 2⁶⁴`).
    pub program_threshold: u64,
    /// Erase-failure threshold (`probability × 2⁶⁴`).
    pub erase_threshold: u64,
    /// Read-disturb threshold (`probability × 2⁶⁴`).
    pub read_disturb_threshold: u64,
    /// Injected program/erase failures a block absorbs before it is
    /// promoted to the pending-retirement (bad-block) list.
    pub retire_after: u32,
    /// Simulated instant (ns) at which power is lost, if any. The driver
    /// intercepts the first event at or past this tick, performs the final
    /// supercap-backed metadata dump, and restarts with journal replay.
    pub power_loss_ns: Option<u64>,
    /// Scripted faults on exact per-block attempt counts.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED,
            program_threshold: 0,
            erase_threshold: 0,
            read_disturb_threshold: 0,
            retire_after: 2,
            power_loss_ns: None,
            scripted: Vec::new(),
        }
    }
}

/// Converts a probability in `[0, 1]` to the fixed-point threshold the
/// decision hash is compared against.
pub(crate) fn threshold_from_probability(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * (u64::MAX as f64)) as u64
    }
}

impl FaultPlan {
    /// True when the plan can affect the *read* path (read-disturb or a
    /// scripted read fault). The translation layer uses this to relocate
    /// the groups a section read disturbed.
    pub fn affects_reads(&self) -> bool {
        self.read_disturb_threshold > 0 || self.scripted.iter().any(|f| f.op == FaultOp::Read)
    }

    /// Parses a plan from the `FA_FAULTS` specification string:
    /// comma-separated `key=value` pairs. Keys: `seed` (u64),
    /// `program`/`erase`/`read_disturb` (probabilities in `[0,1]`),
    /// `retire_after` (u32), `power_loss_ns` (u64), and repeatable
    /// `script=<op>@c<ch>.d<die>.b<block>.n<nth>` entries. Every other key
    /// may appear once: a repeated key is an error naming it, not a silent
    /// last-one-wins.
    ///
    /// ```
    /// use fa_flash::fault::{FaultOp, FaultPlan};
    /// let plan = FaultPlan::parse(
    ///     "seed=7,program=0.5,retire_after=3,script=erase@c1.d0.b4.n2",
    /// )
    /// .unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.retire_after, 3);
    /// assert_eq!(plan.scripted[0].op, FaultOp::Erase);
    /// assert_eq!(plan.scripted[0].block, 4);
    /// assert!(!plan.affects_reads());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut seen = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry without '=': {part:?}"))?;
            if key != "script" {
                if seen.contains(&key) {
                    return Err(format!("repeated fault spec key {key:?}"));
                }
                seen.push(key);
            }
            let prob = |v: &str| -> Result<u64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad probability for {key}: {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability for {key} outside [0,1]: {v}"));
                }
                Ok(threshold_from_probability(p))
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed: {value:?}"))?;
                }
                "program" => plan.program_threshold = prob(value)?,
                "erase" => plan.erase_threshold = prob(value)?,
                "read_disturb" => plan.read_disturb_threshold = prob(value)?,
                "retire_after" => {
                    plan.retire_after = value
                        .parse()
                        .map_err(|_| format!("bad retire_after: {value:?}"))?;
                }
                "power_loss_ns" => {
                    plan.power_loss_ns = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad power_loss_ns: {value:?}"))?,
                    );
                }
                "script" => plan.scripted.push(parse_scripted(value)?),
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_scripted(value: &str) -> Result<ScriptedFault, String> {
    let (op, rest) = value
        .split_once('@')
        .ok_or_else(|| format!("scripted fault without '@': {value:?}"))?;
    let op = match op {
        "program" => FaultOp::Program,
        "erase" => FaultOp::Erase,
        "read" => FaultOp::Read,
        other => return Err(format!("unknown scripted fault op {other:?}")),
    };
    let mut fault = ScriptedFault {
        op,
        channel: 0,
        die: 0,
        block: 0,
        nth: 1,
    };
    for field in rest.split('.') {
        let mut chars = field.chars();
        let prefix = chars.next();
        let n: u64 = chars
            .as_str()
            .parse()
            .map_err(|_| format!("bad scripted fault field {field:?} in {value:?}"))?;
        match prefix {
            Some('c') => fault.channel = n as usize,
            Some('d') => fault.die = n as usize,
            Some('b') => fault.block = n as usize,
            Some('n') => fault.nth = n.max(1),
            _ => {
                return Err(format!(
                    "unknown scripted fault field prefix in {field:?} of {value:?}"
                ))
            }
        }
    }
    Ok(fault)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pure decision hash: identical inputs give the identical verdict on
/// every platform and under every channel interleaving.
fn decision_hash(
    seed: u64,
    op: FaultOp,
    channel: usize,
    die: usize,
    block: usize,
    seq: u64,
) -> u64 {
    let mut h = splitmix64(seed ^ op.salt());
    h = splitmix64(h ^ channel as u64);
    h = splitmix64(h ^ ((die as u64) << 32) ^ block as u64);
    splitmix64(h ^ seq)
}

/// Per-channel fault state: the shared plan plus the channel-local attempt
/// and sequence counters that make decisions reproducible, the per-block
/// failure tallies behind bad-block promotion, and the drain lists the
/// backbone collects (pending retirements, disturbed pages).
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: Arc<FaultPlan>,
    channel: usize,
    /// Scripted faults targeting this channel only.
    scripted: Vec<ScriptedFault>,
    /// Attempt counters per (die, block, op class) — scripted faults match
    /// on these, so "the 2nd erase of block 7" means the same thing no
    /// matter what the rest of the device did in between.
    attempts: HashMap<(usize, usize, FaultOp), u64>,
    /// Per-op-class sequence counters, folded into the decision hash so
    /// repeated operations on one block draw fresh verdicts.
    seq: [u64; 3],
    /// Injected program/erase failures per (die, block).
    fail_counts: HashMap<(usize, usize), u32>,
    /// Blocks that crossed `retire_after`, awaiting backbone collection.
    retired_pending: Vec<(usize, usize)>,
    /// Pages hit by read-disturb, awaiting relocation by the translation
    /// layer.
    disturbed: Vec<PhysicalPageAddr>,
    stats: FaultStats,
}

impl FaultState {
    /// Builds the channel-local state for `channel` from a shared plan.
    pub(crate) fn new(plan: Arc<FaultPlan>, channel: usize) -> Self {
        let scripted = plan
            .scripted
            .iter()
            .copied()
            .filter(|f| f.channel == channel)
            .collect();
        FaultState {
            plan,
            channel,
            scripted,
            attempts: HashMap::new(),
            seq: [0; 3],
            fail_counts: HashMap::new(),
            retired_pending: Vec::new(),
            disturbed: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides whether this attempt of `op` on `addr` faults, advancing
    /// the channel-local counters. Scripted faults fire on exact per-block
    /// attempt counts; otherwise the probabilistic threshold decides.
    pub(crate) fn decide(&mut self, op: FaultOp, addr: PhysicalPageAddr) -> bool {
        let nth = {
            let n = self.attempts.entry((addr.die, addr.block, op)).or_insert(0);
            *n += 1;
            *n
        };
        let s = self.seq[op.index()];
        self.seq[op.index()] += 1;
        if self
            .scripted
            .iter()
            .any(|f| f.op == op && f.die == addr.die && f.block == addr.block && f.nth == nth)
        {
            return true;
        }
        let threshold = match op {
            FaultOp::Program => self.plan.program_threshold,
            FaultOp::Erase => self.plan.erase_threshold,
            FaultOp::Read => self.plan.read_disturb_threshold,
        };
        if threshold == 0 {
            return false;
        }
        decision_hash(self.plan.seed, op, self.channel, addr.die, addr.block, s) < threshold
    }

    /// Records an injected program/erase failure on `addr`'s block and
    /// promotes the block to the pending-retirement list once it has
    /// absorbed `retire_after` failures.
    pub(crate) fn note_failure(&mut self, op: FaultOp, addr: PhysicalPageAddr) {
        match op {
            FaultOp::Program => self.stats.injected_program_failures += 1,
            FaultOp::Erase => self.stats.injected_erase_failures += 1,
            FaultOp::Read => {}
        }
        let count = self.fail_counts.entry((addr.die, addr.block)).or_insert(0);
        *count += 1;
        if *count == self.plan.retire_after.max(1) {
            self.retired_pending.push((addr.die, addr.block));
            self.stats.blocks_retired += 1;
        }
    }

    /// Records a read-disturb on `addr` (page queued for relocation).
    pub(crate) fn note_disturb(&mut self, addr: PhysicalPageAddr) {
        self.stats.read_disturbs += 1;
        self.disturbed.push(addr);
    }

    /// Drains the blocks awaiting bad-block retirement, as `(die, block)`
    /// pairs in the order their failures crossed the threshold.
    pub(crate) fn take_retired_pending(&mut self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.retired_pending)
    }

    /// Drains the pages hit by read-disturb since the last drain.
    pub(crate) fn take_disturbed(&mut self) -> Vec<PhysicalPageAddr> {
        std::mem::take(&mut self.disturbed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_round_trips() {
        let plan = FaultPlan::parse(
            "seed=42, program=0.001, erase=0.0005, read_disturb=0.25, retire_after=2, \
             power_loss_ns=5000000, script=program@c0.d0.b3.n2, script=read@c1.d1.b7.n1",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert!(plan.program_threshold > 0 && plan.erase_threshold > 0);
        assert_eq!(
            plan.read_disturb_threshold,
            threshold_from_probability(0.25)
        );
        assert_eq!(plan.retire_after, 2);
        assert_eq!(plan.power_loss_ns, Some(5_000_000));
        assert_eq!(plan.scripted.len(), 2);
        assert_eq!(plan.scripted[1].channel, 1);
        assert_eq!(plan.scripted[1].die, 1);
        assert!(plan.affects_reads());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        // (spec, a fragment the error must contain)
        let cases = [
            ("program", "without '='"),
            ("seed=1,erase", "without '='"),
            ("wibble=1", "unknown fault spec key \"wibble\""),
            ("seed=1,seed=2", "repeated fault spec key \"seed\""),
            (
                "program=0.1,erase=0.1,program=0.2",
                "repeated fault spec key \"program\"",
            ),
            ("program=2.0", "outside [0,1]"),
            ("erase=-0.5", "outside [0,1]"),
            ("read_disturb=NaN", "outside [0,1]"),
            ("program=abc", "bad probability"),
            ("seed=abc", "bad seed"),
            ("seed=-1", "bad seed"),
            ("retire_after=x", "bad retire_after"),
            ("power_loss_ns=", "bad power_loss_ns"),
            ("script=program@x9", "unknown scripted fault field prefix"),
            ("script=flip@c0.d0.b0.n1", "unknown scripted fault op"),
            ("script=program@", "bad scripted fault field"),
            ("script=program@é1", "unknown scripted fault field prefix"),
        ];
        for (spec, fragment) in cases {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(fragment), "{spec:?} gave {err:?}");
        }
        // `script=` is the one repeatable key.
        let plan = FaultPlan::parse("script=erase@c0.d0.b1.n1,script=erase@c0.d0.b2.n1").unwrap();
        assert_eq!(plan.scripted.len(), 2);
    }

    #[test]
    fn empty_spec_is_the_default_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.affects_reads());
    }

    #[test]
    fn decisions_are_deterministic_per_channel() {
        let plan = Arc::new(FaultPlan {
            program_threshold: threshold_from_probability(0.3),
            ..FaultPlan::default()
        });
        let addr = |b: usize, p: usize| PhysicalPageAddr::new(0, 0, b, p);
        let run = || {
            let mut s = FaultState::new(plan.clone(), 0);
            (0..64)
                .map(|i| s.decide(FaultOp::Program, addr(i % 4, i / 4)))
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.3 over 64 rolls should fault");
        assert!(!a.iter().all(|&x| x), "p=0.3 should not always fault");
    }

    #[test]
    fn probability_one_always_faults_and_zero_never_does() {
        let always = Arc::new(FaultPlan {
            erase_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        });
        let mut s = FaultState::new(always, 2);
        for b in 0..16 {
            assert!(s.decide(FaultOp::Erase, PhysicalPageAddr::new(2, 0, b, 0)));
            // The other op classes stay clean.
            assert!(!s.decide(FaultOp::Program, PhysicalPageAddr::new(2, 0, b, 0)));
        }
    }

    #[test]
    fn scripted_fault_fires_on_the_exact_attempt() {
        let plan = Arc::new(FaultPlan {
            scripted: vec![ScriptedFault {
                op: FaultOp::Program,
                channel: 1,
                die: 0,
                block: 3,
                nth: 2,
            }],
            ..FaultPlan::default()
        });
        let mut s = FaultState::new(plan.clone(), 1);
        let addr = PhysicalPageAddr::new(1, 0, 3, 0);
        assert!(!s.decide(FaultOp::Program, addr), "1st attempt clean");
        assert!(s.decide(FaultOp::Program, addr), "2nd attempt faults");
        assert!(!s.decide(FaultOp::Program, addr), "3rd attempt clean");
        // A different channel's state never sees the script.
        let mut other = FaultState::new(plan, 0);
        assert!(!other.decide(FaultOp::Program, PhysicalPageAddr::new(0, 0, 3, 0)));
        assert!(!other.decide(FaultOp::Program, PhysicalPageAddr::new(0, 0, 3, 0)));
    }

    #[test]
    fn repeated_failures_promote_the_block_once() {
        let plan = Arc::new(FaultPlan {
            retire_after: 2,
            ..FaultPlan::default()
        });
        let mut s = FaultState::new(plan, 0);
        let addr = PhysicalPageAddr::new(0, 1, 5, 0);
        s.note_failure(FaultOp::Program, addr);
        assert!(s.take_retired_pending().is_empty());
        s.note_failure(FaultOp::Erase, addr);
        assert_eq!(s.take_retired_pending(), vec![(1, 5)]);
        s.note_failure(FaultOp::Program, addr);
        assert!(s.take_retired_pending().is_empty(), "promoted only once");
        assert_eq!(s.stats().blocks_retired, 1);
        assert_eq!(s.stats().injected_program_failures, 2);
        assert_eq!(s.stats().injected_erase_failures, 1);
    }

    #[test]
    fn disturbed_pages_drain_in_order() {
        let mut s = FaultState::new(Arc::new(FaultPlan::default()), 0);
        let a = PhysicalPageAddr::new(0, 0, 1, 2);
        let b = PhysicalPageAddr::new(0, 1, 3, 4);
        s.note_disturb(a);
        s.note_disturb(b);
        assert_eq!(s.take_disturbed(), vec![a, b]);
        assert!(s.take_disturbed().is_empty());
        assert_eq!(s.stats().read_disturbs, 2);
    }
}
