//! The crash/verdict kernel: battery-powered crash drains for the
//! single-core system, and the post-crash recovery sweep shared by all
//! three fronts.
//!
//! Recovery rebuilds the integrity tree from the persisted counter
//! blocks, checks the root register, then decrypts and MAC-verifies every
//! data block, assigning each a [`BlockVerdict`].  The verdict order is
//! identical for every front: MAC mismatch → tampering detected;
//! decrypts-to-expected → verified; otherwise the staleness must be
//! *accounted* (brown-out loss or an entry still buffered at the crash)
//! or it is a plaintext mismatch — the dangerous case a storm fails on.

use secpb_crypto::counter::SplitCounter;
use secpb_crypto::sha512::digest64_batch;
use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;

use crate::crash::{
    BlockVerdict, CrashKind, CrashReport, DrainPolicy, DrainWork, RecoveryError, RecoveryReport,
};
use crate::domain::PersistDomain;
use crate::facade::PersistSystem;
use crate::metrics::counters;
use crate::policy::CounterLayout;
use crate::system::SecureSystem;

/// Items per multi-lane dispatch in the recovery sweep: counter pages
/// per digest batch in the tree rebuild, blocks per MAC batch in the
/// verify loop.
const SWEEP_CHUNK: usize = 256;

impl PersistDomain {
    /// The recovery sweep.  `secure` selects the full decrypt/MAC/tree
    /// path (plain plaintext comparison otherwise — the `bbb` baseline);
    /// `in_flight` reports whether a block was still buffered at the
    /// crash (always `false` for the whole-hierarchy fronts, which never
    /// leave entries behind).
    pub(crate) fn recover_report(
        &self,
        lost: &[BlockAddr],
        secure: bool,
        in_flight: &dyn Fn(BlockAddr) -> bool,
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let stale_verdict = |block: BlockAddr| {
            if lost.contains(&block) {
                BlockVerdict::LostStale
            } else if in_flight(block) {
                BlockVerdict::InFlightStale
            } else {
                BlockVerdict::PlaintextMismatch
            }
        };
        let mut blocks: Vec<BlockAddr> = self.nvm.data_blocks().collect();
        blocks.sort_unstable();

        if !secure {
            report.root_ok = true;
            for block in blocks {
                report.blocks_checked += 1;
                let pt = self.nvm.read_data(block);
                let verdict = if pt == self.expected_plaintext(block) {
                    BlockVerdict::Verified
                } else {
                    stale_verdict(block)
                };
                match verdict {
                    BlockVerdict::PlaintextMismatch => report.plaintext_mismatches.push(block),
                    BlockVerdict::LostStale => report.lost_stale.push(block),
                    BlockVerdict::InFlightStale => report.in_flight_stale.push(block),
                    _ => {}
                }
                report.verdicts.push((block, verdict));
            }
            return report;
        }

        // The functional oracle is policy-independent: rebuild the tree
        // from the persisted counter blocks and match it against the
        // durable root register, so a flip anywhere in the counter image
        // is caught under every durable-tree layout.  The *policy*
        // changes what the recovery-latency model charges for this sweep
        // ([`RecoveryCost`](crate::policy::RecoveryCost)) and adds its
        // own durable-layout consistency check on top.
        let rebuilt_ok = {
            let mut rebuilt = self.rebuilt_tree();
            let mut pages: Vec<u64> = self.nvm.counter_pages().collect();
            pages.sort_unstable();
            for chunk in pages.chunks(SWEEP_CHUNK) {
                let cbs: Vec<[u8; 64]> = chunk
                    .iter()
                    .map(|&page| self.nvm.read_counters(page).to_bytes())
                    .collect();
                let msgs: Vec<&[u8; 64]> = cbs.iter().collect();
                let mut digests = Vec::with_capacity(chunk.len());
                digest64_batch(&self.backend, &msgs, &mut digests);
                for (&page, digest) in chunk.iter().zip(digests) {
                    rebuilt.update_leaf(page, digest);
                }
            }
            rebuilt.sync();
            self.nvm.bmt_root() == Some(rebuilt.root())
        };
        let layout_ok = if self.policy.counters == CounterLayout::Shadow {
            // Fast-recovery layout (Huang & Hua): the durable shadow of
            // the root must validate the register.  Every recovery
            // follows a sync, which writes the register and the shadow
            // together, so the shadow reflects the final persisted root.
            self.nvm.bmt_root().is_some() && self.nvm.bmt_root() == self.policy_state.shadow_root
        } else if let Some(frontier) = self.persisted_frontier() {
            // Triad-NVM selective persistence: folding up from the
            // durable level frontier must land on the root register.
            self.nvm.bmt_root() == Some(frontier.root)
        } else {
            true
        };
        report.root_ok = rebuilt_ok && layout_ok;

        // The sweep MACs every persisted block; verifying a chunk at a
        // time turns the hot loop into a few multi-lane HMAC dispatches
        // per chunk instead of one full HMAC per block.
        let mut cts: Vec<([u8; 64], SplitCounter)> = Vec::with_capacity(SWEEP_CHUNK);
        let mut tags: Vec<u64> = Vec::with_capacity(SWEEP_CHUNK);
        for chunk in blocks.chunks(SWEEP_CHUNK) {
            cts.clear();
            cts.extend(chunk.iter().map(|&block| {
                let page = NvmStore::page_of(block);
                let slot = NvmStore::page_slot_of(block);
                let ctr = self.nvm.read_counters(page).counter_of(slot);
                (self.nvm.read_data(block), ctr)
            }));
            let msgs: Vec<(&[u8; 64], u64, SplitCounter)> = chunk
                .iter()
                .zip(&cts)
                .map(|(&block, (ct, ctr))| (ct, block.index(), *ctr))
                .collect();
            tags.clear();
            self.mac_engine.compute_truncated_batch(&msgs, &mut tags);
            for ((&block, (ct, ctr)), &tag) in chunk.iter().zip(&cts).zip(&tags) {
                report.blocks_checked += 1;
                let verdict = if tag != self.nvm.read_mac(block) {
                    report.mac_failures.push(block);
                    BlockVerdict::MacMismatch
                } else {
                    let pt = self.otp_engine.decrypt(ct, block.index(), *ctr);
                    if pt == self.expected_plaintext(block) {
                        BlockVerdict::Verified
                    } else {
                        let v = stale_verdict(block);
                        match v {
                            BlockVerdict::PlaintextMismatch => {
                                report.plaintext_mismatches.push(block)
                            }
                            BlockVerdict::LostStale => report.lost_stale.push(block),
                            BlockVerdict::InFlightStale => report.in_flight_stale.push(block),
                            _ => {}
                        }
                        v
                    }
                };
                report.verdicts.push((block, verdict));
            }
        }
        report
    }

    /// Re-reads the durable image of brown-out-lost blocks back into the
    /// architectural expectation, modelling the application observing
    /// what actually persisted before continuing.  Without this a storm
    /// could not keep running after a brown-out: the golden state would
    /// remember stores whose entries evaporated with the battery.
    pub(crate) fn resync_lost(&mut self, lost: &[BlockAddr], secure: bool) {
        for &block in lost {
            if !self.nvm.contains_data(block) {
                // Never persisted at all: the durable view is zeros.
                self.golden.remove(&block);
                self.golden_log.note(block, self.golden.len());
                continue;
            }
            let pt = if secure {
                let page = NvmStore::page_of(block);
                let slot = NvmStore::page_slot_of(block);
                let ctr = self.nvm.read_counters(page).counter_of(slot);
                self.otp_engine
                    .decrypt(&self.nvm.read_data(block), block.index(), ctr)
            } else {
                self.nvm.read_data(block)
            };
            self.golden.insert(block, pt);
            self.golden_log.note(block, self.golden.len());
        }
    }
}

impl SecureSystem {
    /// The single-core battery drain behind
    /// [`PersistSystem::crash_with_budget`]: the battery drains the SecPB
    /// (per `policy` for application crashes, oldest first) and
    /// completes all security metadata, closing the draining and
    /// sec-sync gaps.  At most `max_drain_entries` entries drain;
    /// anything younger is *lost* — dropped undrained and reported in
    /// [`CrashReport::lost_blocks`].
    pub(crate) fn battery_drain(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let at = self.finish_time();
        let before = self.stats.clone();

        let mut blocks: Vec<BlockAddr> = match (kind, policy) {
            (CrashKind::ApplicationCrash(asid), DrainPolicy::DrainProcess) => {
                self.pb.blocks_of_asid(asid)
            }
            _ => self.pb.blocks_oldest_first(),
        };
        let budget = usize::try_from(max_drain_entries.unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
        let lost_blocks: Vec<BlockAddr> = if blocks.len() > budget {
            blocks.split_off(budget)
        } else {
            Vec::new()
        };
        let entries = blocks.len() as u64;
        let mut last_drain_issue = at;
        for block in blocks {
            let completion = self.drain_one(block, last_drain_issue)?;
            // The PB-to-MC move itself is quick; track pipeline occupancy
            // through the drain engine.
            last_drain_issue = last_drain_issue.max(completion.min(last_drain_issue + 8));
        }
        // Battery exhausted: the remaining entries never leave the SecPB,
        // and with power gone the buffer contents evaporate.
        for &block in &lost_blocks {
            if self.pb.remove(block).is_none() {
                return Err(RecoveryError::MissingPbEntry(block));
            }
        }
        let drain_complete_at = last_drain_issue;
        let mut secsync = self.drain_engine.all_complete_at().max(drain_complete_at);
        secsync = secsync.max(self.wpq.drained_at());
        // Fold all deferred tree updates (and any cached BMF subtree
        // roots) into the persisted root.
        let sync_hashes = self.sync_metadata();
        secsync += sync_hashes * self.cfg.security.bmt_hash_latency;

        let full_power_cycle = !matches!(kind, CrashKind::ApplicationCrash(_));
        if full_power_cycle {
            self.hierarchy.clear();
            self.metadata.clear();
            self.store_buffer.clear();
        }

        let after = &self.stats;
        let delta = |name: &str| after.get(name).saturating_sub(before.get(name));
        let work = DrainWork {
            entries,
            // Bytes of entry state per drain: only the fields the scheme
            // actually populates move to the MC (Figure 5's field table).
            bytes_pb_to_mc: entries * self.scheme.entry_footprint_bytes(),
            // Table III's movement costs are end-to-end (SecPB *to PM*),
            // so the PM delivery of the entry's own tuple is already
            // covered by `bytes_pb_to_mc`; nothing extra accrues here.
            bytes_mc_to_pm: 0,
            counter_fetches: delta(counters::COUNTER_MISSES),
            bmt_node_hashes: delta(counters::LATE_BMT_NODE_HASHES),
            bmt_node_fetches: delta(counters::LATE_BMT_NODE_HASHES),
            otps: delta(counters::OTPS),
            macs: delta(counters::MACS),
            ciphertexts: delta(counters::CIPHERTEXTS),
        };

        Ok(CrashReport {
            kind,
            at,
            drain_complete_at,
            secsync_complete_at: secsync,
            work,
            lost_blocks,
        })
    }
}
