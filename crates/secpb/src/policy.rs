//! The composable persistence-policy layer.
//!
//! The paper's design spectrum (Section IV, Figure 4) fixes *what
//! security metadata is generated early* per scheme; this module widens
//! that single axis into a [`PersistencePolicy`] with three independent
//! dimensions:
//!
//! * **early work** — which Figure 4 steps run at store-persist time
//!   (the original [`Scheme`] axis, now one instantiation of the policy),
//! * **tree persistence** — how much of the integrity tree is kept
//!   durable online: the baseline root-only register, or Triad-NVM-style
//!   selective depth (Awad et al.): persist levels `0..N` and
//!   reconstruct only `N..` at recovery,
//! * **counter layout** — the plain layout, or the Huang & Hua-style
//!   write-friendly fast-recovery layout that maintains a durable shadow
//!   of the BMT root so recovery validates in near-constant tree work.
//!
//! [`PersistDomain`](crate::domain::PersistDomain), the recovery kernel,
//! and the [`PersistSystem`](crate::facade::PersistSystem) facade are all
//! driven by the policy; the default resolution
//! ([`PersistencePolicy::for_scheme`]) reproduces the pre-policy
//! behaviour bit for bit.  [`RecoveryCost`] replaces the facade's old
//! estimate with exact accounting (blocks swept, hashes folded, cycles),
//! which the `recovery_sweep` bench promotes to a swept grid metric.

use std::fmt;

use secpb_crypto::sha512::Digest;
use secpb_sim::config::{SecurityConfig, SystemConfig};

use crate::scheme::{EarlyWork, Scheme};
use crate::tree::TreeKind;

/// How much of the integrity tree is persisted online.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreePersistence {
    /// Only the root register is durable; recovery rebuilds the whole
    /// tree from the persisted counter blocks (the paper's baseline).
    #[default]
    RootOnly,
    /// Triad-NVM-style selective persistence: node levels `0..n` are
    /// durable alongside the root, so recovery reads the level `n-1`
    /// frontier and folds only levels `n..` (Awad et al.).
    Levels(u8),
}

impl TreePersistence {
    /// Extra durable node writes charged per leaf persist (zero for the
    /// root-only baseline).
    pub fn node_writes_per_persist(self) -> u64 {
        match self {
            TreePersistence::RootOnly => 0,
            TreePersistence::Levels(n) => u64::from(n),
        }
    }
}

/// Durable counter/root layout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterLayout {
    /// The paper's baseline layout.
    #[default]
    Plain,
    /// Huang & Hua-style write-friendly fast-recovery layout: a durable
    /// shadow of the BMT root is refreshed on every persist, so recovery
    /// validates the root in near-constant work instead of a rebuild.
    Shadow,
}

/// A composable persistence policy: what metadata is persisted when.
///
/// Every [`Scheme`] is one instantiation
/// ([`for_scheme`](Self::for_scheme)); the `triad<N>` and `fastrec`
/// fronts are others.  Constructors validate the Figure 4 dependency
/// chain and the tree-depth bounds with typed [`PolicyError`]s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistencePolicy {
    /// Which Figure 4 steps run early (at store persist time).
    pub early: EarlyWork,
    /// How much of the integrity tree stays durable online.
    pub tree: TreePersistence,
    /// Durable counter/root layout.
    pub counters: CounterLayout,
}

impl PersistencePolicy {
    /// Builds a policy, rejecting early-work assignments that violate the
    /// Figure 4 dependency chain.
    ///
    /// # Errors
    ///
    /// [`PolicyError::DependencyViolation`] when a step is early but one
    /// of its producers is not.
    pub fn new(
        early: EarlyWork,
        tree: TreePersistence,
        counters: CounterLayout,
    ) -> Result<Self, PolicyError> {
        if !early.respects_dependencies() {
            return Err(PolicyError::DependencyViolation(early));
        }
        Ok(PersistencePolicy {
            early,
            tree,
            counters,
        })
    }

    /// The policy a plain [`Scheme`] names: its early-work assignment
    /// with the baseline root-only/plain layouts.  Bit-identical to the
    /// pre-policy behaviour.
    pub fn for_scheme(scheme: Scheme) -> Self {
        PersistencePolicy {
            early: scheme.early_work(),
            tree: TreePersistence::RootOnly,
            counters: CounterLayout::Plain,
        }
    }

    /// Resolves the full policy for `scheme` under the configured
    /// tree-persistence and counter-layout knobs
    /// (`cfg.triad_levels` / `cfg.shadow_counters`).
    ///
    /// # Errors
    ///
    /// * [`PolicyError::DepthOutOfRange`] when `triad_levels` exceeds the
    ///   tree height,
    /// * [`PolicyError::UnsupportedTree`] when selective depth is asked
    ///   of a forest (subtree roots already play the frontier role),
    /// * [`PolicyError::DependencyViolation`] is impossible for named
    ///   schemes but kept for hand-built `EarlyWork` assignments.
    pub fn resolve(
        scheme: Scheme,
        sec: &SecurityConfig,
        tree_kind: TreeKind,
    ) -> Result<Self, PolicyError> {
        let tree = match sec.triad_levels {
            0 => TreePersistence::RootOnly,
            n => {
                if tree_kind != TreeKind::Monolithic {
                    return Err(PolicyError::UnsupportedTree(tree_kind));
                }
                if u32::from(n) > sec.bmt_levels {
                    return Err(PolicyError::DepthOutOfRange {
                        depth: n,
                        levels: sec.bmt_levels,
                    });
                }
                TreePersistence::Levels(n)
            }
        };
        let counters = if sec.shadow_counters {
            CounterLayout::Shadow
        } else {
            CounterLayout::Plain
        };
        PersistencePolicy::new(scheme.early_work(), tree, counters)
    }

    /// Whether this is the baseline layout every existing scheme uses
    /// (root-only tree, plain counters) — the fast path that must stay
    /// byte-identical across the refactor.
    pub fn is_baseline(&self) -> bool {
        self.tree == TreePersistence::RootOnly && self.counters == CounterLayout::Plain
    }
}

/// Typed rejection of an illegal policy assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyError {
    /// The early-work assignment is not a legal prefix of the Figure 4
    /// dependency chain.
    DependencyViolation(EarlyWork),
    /// `triad_levels` exceeds the configured tree height.
    DepthOutOfRange {
        /// The requested persistence depth.
        depth: u8,
        /// The configured tree height in levels.
        levels: u32,
    },
    /// Selective tree depth was requested on a forest organisation.
    UnsupportedTree(TreeKind),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::DependencyViolation(ew) => write!(
                f,
                "early-work assignment {ew:?} violates the Figure 4 dependency chain"
            ),
            PolicyError::DepthOutOfRange { depth, levels } => write!(
                f,
                "triad persistence depth {depth} exceeds the {levels}-level tree"
            ),
            PolicyError::UnsupportedTree(kind) => write!(
                f,
                "selective tree persistence requires a monolithic tree, got {kind:?}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Per-domain dynamic policy state: the durable shadow root and the
/// write-amplification counters the recovery sweep reports.  Lives
/// outside [`Stats`](secpb_sim::stats::Stats) so existing grid outputs
/// stay byte-identical.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PolicyState {
    /// The durable shadow copy of the BMT root (fast-recovery layout
    /// only; `None` until the first persist).
    pub shadow_root: Option<Digest>,
    /// Durable tree-node writes charged by selective persistence.
    pub node_writes: u64,
    /// Durable shadow-root writes charged by the fast-recovery layout.
    pub shadow_writes: u64,
    /// Leaf persists observed (the write-amplification denominator).
    pub leaf_persists: u64,
}

impl PolicyState {
    /// Write amplification of the policy's metadata traffic: durable
    /// writes per leaf persist, over the 3-write baseline tuple
    /// (data + MAC + counter block).
    pub fn write_amplification(&self) -> f64 {
        if self.leaf_persists == 0 {
            return 1.0;
        }
        let base = 3 * self.leaf_persists;
        (base + self.node_writes + self.shadow_writes) as f64 / base as f64
    }
}

/// Exact recovery accounting: what a post-crash sweep reads, folds, and
/// costs under a given policy.  Replaces the facade's old closed-form
/// estimate — the [`root_only`](Self::root_only) constructor reproduces
/// that formula exactly, so every existing front reports unchanged
/// numbers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCost {
    /// Persisted counter pages fetched.
    pub counter_pages_read: u64,
    /// Persisted tree-frontier nodes fetched (selective persistence).
    pub tree_nodes_read: u64,
    /// Node hashes folded to revalidate the root.
    pub hashes_folded: u64,
    /// Data blocks fetched, decrypted, and MAC-verified.
    pub blocks_swept: u64,
    /// Total recovery latency in cycles.
    pub cycles: u64,
}

impl RecoveryCost {
    /// The baseline root-only rebuild: fetch every persisted counter
    /// block and fold it into the rebuilt BMT, then fetch, decrypt, and
    /// MAC-verify every data block.  NVM reads pipeline across banks;
    /// crypto units pipeline at their occupancy.  This is exactly the
    /// scalar recovery estimate the facade reported before policies.
    pub fn root_only(cfg: &SystemConfig, pages: u64, blocks: u64) -> Self {
        let sec = &cfg.security;
        let banks = cfg.nvm.banks.max(1) as u64;
        let read = cfg.nvm.read_latency.raw();
        // Counter fetches and tree rebuild.
        let counter_fetch = pages * read / banks + read.min(pages * read);
        let tree_rebuild = pages * u64::from(sec.bmt_levels) * sec.bmt_hash_latency;
        // Data fetch + decrypt + verify, pipelined.
        let data_fetch = blocks * read / banks + if blocks > 0 { read } else { 0 };
        let verify = blocks * sec.mac_latency.max(sec.otp_latency);
        RecoveryCost {
            counter_pages_read: pages,
            tree_nodes_read: 0,
            hashes_folded: pages * u64::from(sec.bmt_levels),
            blocks_swept: blocks,
            cycles: counter_fetch + tree_rebuild + data_fetch + verify,
        }
    }

    /// Triad-NVM selective persistence: the tree rebuild shrinks to
    /// fetching the persisted level frontier (`frontier_nodes` nodes)
    /// and folding `hashes_folded` node hashes up to the root; counter
    /// and data sweeps are unchanged.
    pub fn selective(
        cfg: &SystemConfig,
        pages: u64,
        blocks: u64,
        frontier_nodes: u64,
        hashes_folded: u64,
    ) -> Self {
        let sec = &cfg.security;
        let banks = cfg.nvm.banks.max(1) as u64;
        let read = cfg.nvm.read_latency.raw();
        let counter_fetch = pages * read / banks + read.min(pages * read);
        let frontier_fetch = frontier_nodes * read / banks + read.min(frontier_nodes * read);
        let tree_fold = hashes_folded * sec.bmt_hash_latency;
        let data_fetch = blocks * read / banks + if blocks > 0 { read } else { 0 };
        let verify = blocks * sec.mac_latency.max(sec.otp_latency);
        RecoveryCost {
            counter_pages_read: pages,
            tree_nodes_read: frontier_nodes,
            hashes_folded,
            blocks_swept: blocks,
            cycles: counter_fetch + frontier_fetch + tree_fold + data_fetch + verify,
        }
    }

    /// Huang & Hua fast recovery: one durable shadow-root read and one
    /// comparison hash validate the tree; counter and data sweeps are
    /// unchanged.
    pub fn fast_recovery(cfg: &SystemConfig, pages: u64, blocks: u64) -> Self {
        let sec = &cfg.security;
        let banks = cfg.nvm.banks.max(1) as u64;
        let read = cfg.nvm.read_latency.raw();
        let counter_fetch = pages * read / banks + read.min(pages * read);
        let data_fetch = blocks * read / banks + if blocks > 0 { read } else { 0 };
        let verify = blocks * sec.mac_latency.max(sec.otp_latency);
        RecoveryCost {
            counter_pages_read: pages,
            tree_nodes_read: 1,
            hashes_folded: 1,
            blocks_swept: blocks,
            cycles: counter_fetch + read + sec.bmt_hash_latency + data_fetch + verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_early_work_policy_round_trips() {
        for scheme in Scheme::SECPB_SCHEMES {
            let policy = PersistencePolicy::for_scheme(scheme);
            assert!(policy.is_baseline());
            assert_eq!(Scheme::from_early_work(policy.early), Some(scheme));
        }
    }

    #[test]
    fn exactly_nine_legal_early_assignments() {
        // The Figure 4 chain admits exactly 9 of the 32 combinations:
        // counter=0 forces everything off (1); counter=1/otp=0 leaves
        // only bmt free (2); otp=1 frees bmt x {ct=0, ct=1/mac free} (6).
        let mut legal = 0;
        for bits in 0u32..32 {
            let ew = EarlyWork {
                counter: bits & 1 != 0,
                otp: bits & 2 != 0,
                bmt: bits & 4 != 0,
                ciphertext: bits & 8 != 0,
                mac: bits & 16 != 0,
            };
            let ok =
                PersistencePolicy::new(ew, TreePersistence::RootOnly, CounterLayout::Plain).is_ok();
            assert_eq!(ok, ew.respects_dependencies());
            if ok {
                legal += 1;
            } else {
                assert_eq!(
                    PersistencePolicy::new(ew, TreePersistence::RootOnly, CounterLayout::Plain),
                    Err(PolicyError::DependencyViolation(ew))
                );
            }
        }
        assert_eq!(legal, 9);
    }

    #[test]
    fn resolve_maps_config_knobs() {
        let sec = SecurityConfig::default();
        let p = PersistencePolicy::resolve(Scheme::Cobcm, &sec, TreeKind::Monolithic).unwrap();
        assert!(p.is_baseline());

        let mut triad = sec;
        triad.triad_levels = 4;
        let p = PersistencePolicy::resolve(Scheme::NoGap, &triad, TreeKind::Monolithic).unwrap();
        assert_eq!(p.tree, TreePersistence::Levels(4));
        assert_eq!(p.counters, CounterLayout::Plain);

        let mut shadow = sec;
        shadow.shadow_counters = true;
        let p = PersistencePolicy::resolve(Scheme::NoGap, &shadow, TreeKind::Monolithic).unwrap();
        assert_eq!(p.counters, CounterLayout::Shadow);
    }

    #[test]
    fn resolve_rejects_illegal_depth_and_forests() {
        let mut sec = SecurityConfig::default();
        sec.triad_levels = 9; // > 8-level tree
        assert_eq!(
            PersistencePolicy::resolve(Scheme::NoGap, &sec, TreeKind::Monolithic),
            Err(PolicyError::DepthOutOfRange {
                depth: 9,
                levels: 8
            })
        );
        sec.triad_levels = 2;
        assert_eq!(
            PersistencePolicy::resolve(Scheme::NoGap, &sec, TreeKind::Dbmf),
            Err(PolicyError::UnsupportedTree(TreeKind::Dbmf))
        );
        // Full-height depth is legal (triad(full)).
        sec.triad_levels = 8;
        assert!(PersistencePolicy::resolve(Scheme::NoGap, &sec, TreeKind::Monolithic).is_ok());
    }

    #[test]
    fn policy_errors_render() {
        let e = PolicyError::DepthOutOfRange {
            depth: 9,
            levels: 8,
        };
        assert!(e.to_string().contains("9"));
        assert!(PolicyError::UnsupportedTree(TreeKind::Sbmf)
            .to_string()
            .contains("monolithic"));
    }

    #[test]
    fn write_amplification_counts_extra_writes() {
        let mut st = PolicyState::default();
        assert_eq!(st.write_amplification(), 1.0);
        st.leaf_persists = 10;
        assert_eq!(st.write_amplification(), 1.0);
        st.node_writes = 30; // Levels(3): 3 extra writes per persist
        assert_eq!(st.write_amplification(), 2.0);
        st.node_writes = 0;
        st.shadow_writes = 10;
        assert!((st.write_amplification() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_costs_order_fastrec_below_selective_below_root_only() {
        let cfg = SystemConfig::default();
        let (pages, blocks) = (500, 4_000);
        let root_only = RecoveryCost::root_only(&cfg, pages, blocks);
        // A level-7 frontier of a well-filled 8-ary tree is ~pages/8
        // nodes; folding from there costs far fewer hashes than the full
        // pages * levels rebuild.
        let selective = RecoveryCost::selective(&cfg, pages, blocks, pages / 8, pages / 8 + 8);
        let fast = RecoveryCost::fast_recovery(&cfg, pages, blocks);
        assert!(fast.cycles <= selective.cycles);
        assert!(selective.cycles <= root_only.cycles);
        assert_eq!(root_only.blocks_swept, blocks);
        assert_eq!(fast.hashes_folded, 1);
    }
}
