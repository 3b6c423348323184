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
//!
//! The sweep is one work-stealing fan-out ([`pool::run_indexed`]) of
//! 256-block chunks of the data map in storage order
//! ([`NvmStore::storage_chunks`]), plus one task for the root check.
//! Storage order makes the data, MAC and golden lookups stream through
//! memory instead of landing at random.  A secure chunk computes its
//! MACs in one multi-lane dispatch (each message laid out in place as the
//! one padded block its inner hash compresses) and its pads in one cipher
//! dispatch.  Chunks report only the blocks that fail a check.  The report
//! lists every block in address order by the NVM store's page walk
//! ([`NvmStore::blocks_in_order`]), which sorts pages rather than blocks,
//! and the failures are filed into it on the caller's thread.
//!
//! [`NvmStore::storage_chunks`]: secpb_mem::store::NvmStore::storage_chunks
//! [`NvmStore::blocks_in_order`]: secpb_mem::store::NvmStore::blocks_in_order

use secpb_crypto::counter::SplitCounter;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::digest64_batch;
use secpb_sim::addr::BlockAddr;
use secpb_sim::pool;

use crate::crash::{
    BlockVerdict, CrashKind, CrashReport, DrainPolicy, DrainWork, RecoveryError, RecoveryReport,
};
use crate::domain::PersistDomain;
use crate::facade::PersistSystem;
use crate::metrics::counters;
use crate::policy::CounterLayout;
use crate::system::SecureSystem;

/// Items per multi-lane dispatch in the recovery sweep: blocks per MAC
/// batch and per pad batch, and so per chunk task of the sweep's fan-out,
/// and counter pages per digest batch in the root rebuild.
const SWEEP_CHUNK: usize = 256;

/// Sweep chunks each worker must get before the secure sweep fans out
/// over the cores: 16 × 256 blocks a worker, so 8,192 blocks on a
/// 2-core host.  Smaller sweeps stay on the caller's thread, because
/// starting the scoped workers costs about 0.2 ms per recovery on a
/// 2-vCPU host: fanning out every sweep took hostbench's grid_loads
/// `recover_s` (CM cells sweeping 1,580 and 2,180 blocks, 7 and 9
/// chunks) from 2.44 to 2.82 ms, while the store-heavy cells' 67- and
/// 118-chunk sweeps gain.
const MIN_CHUNKS_PER_WORKER: usize = 16;

/// Workers for a secure sweep of `blocks` blocks: the core count, capped
/// so every worker gets [`MIN_CHUNKS_PER_WORKER`] chunks, or 1 (inline)
/// when fewer than two workers would.  The chunk count is checked before
/// the core count is probed: a storm recovers thousands of small systems.
fn sweep_jobs(blocks: usize) -> usize {
    let max_workers = blocks.div_ceil(SWEEP_CHUNK) / MIN_CHUNKS_PER_WORKER;
    if max_workers < 2 {
        1
    } else {
        pool::default_jobs().min(max_workers)
    }
}

/// One task's result in the sweep's fan-out.
enum Swept {
    /// The root check (task 0).
    Root(bool),
    /// The blocks of one chunk that failed a check.  A block whose MAC
    /// verified but whose plaintext is stale reads
    /// [`PlaintextMismatch`](BlockVerdict::PlaintextMismatch) until the
    /// caller accounts for it.
    Failures(Vec<(BlockAddr, BlockVerdict)>),
}

impl RecoveryReport {
    /// Files a block that failed a check under its verdict.
    fn file(&mut self, block: BlockAddr, verdict: BlockVerdict) {
        match verdict {
            BlockVerdict::Verified => {}
            BlockVerdict::MacMismatch => self.mac_failures.push(block),
            BlockVerdict::PlaintextMismatch => self.plaintext_mismatches.push(block),
            BlockVerdict::LostStale => self.lost_stale.push(block),
            BlockVerdict::InFlightStale => self.in_flight_stale.push(block),
        }
    }
}

impl PersistDomain {
    /// The recovery sweep.  `secure` selects the full decrypt/MAC/tree
    /// path (plain plaintext comparison otherwise — the `bbb` baseline);
    /// `in_flight` reports whether a block was still buffered at the
    /// crash (always `false` for the whole-hierarchy fronts, which never
    /// leave entries behind).
    ///
    /// The secure sweep verifies 256-block chunks, each with one batched
    /// MAC dispatch and one batched pad dispatch.  The chunks and the root
    /// check are the tasks of one work-stealing fan-out over the cores
    /// once the sweep is large enough to pay for the workers (see
    /// [`MIN_CHUNKS_PER_WORKER`]).  The report is assembled serially in
    /// block order, so it is identical for any worker count.
    pub(crate) fn recover_report(
        &self,
        lost: &[BlockAddr],
        secure: bool,
        in_flight: &dyn Fn(BlockAddr) -> bool,
    ) -> RecoveryReport {
        let jobs = if secure {
            sweep_jobs(self.nvm.data_block_count())
        } else {
            1
        };
        self.recover_report_on(jobs, lost, secure, in_flight)
    }

    /// [`recover_report`](Self::recover_report) with the sweep's worker
    /// count given: 1 runs it inline on the caller's thread.
    pub(crate) fn recover_report_on(
        &self,
        jobs: usize,
        lost: &[BlockAddr],
        secure: bool,
        in_flight: &dyn Fn(BlockAddr) -> bool,
    ) -> RecoveryReport {
        // Task 0 checks the root and task `i` checks chunk `i - 1`.  The
        // tasks are pure, so the workers may run them in any order.
        let chunks = self.nvm.storage_chunks(SWEEP_CHUNK);
        let swept = pool::run_indexed(1 + chunks.len(), jobs, |task| match task {
            0 => Swept::Root(!secure || self.root_ok()),
            i if secure => Swept::Failures(self.verify_chunk(chunks[i - 1].clone())),
            i => Swept::Failures(self.compare_chunk(chunks[i - 1].clone())),
        });

        // Every block reads verified until a failure is filed over it.
        // Staleness is classified here, on the caller's thread, which is
        // why `in_flight` needs no `Sync`.
        let verdicts: Vec<(BlockAddr, BlockVerdict)> = self
            .nvm
            .blocks_in_order()
            .into_iter()
            .map(|block| (block, BlockVerdict::Verified))
            .collect();
        let mut report = RecoveryReport {
            blocks_checked: verdicts.len() as u64,
            verdicts,
            ..RecoveryReport::default()
        };
        let mut failures = Vec::new();
        for result in swept {
            match result {
                Swept::Root(ok) => report.root_ok = ok,
                Swept::Failures(failed) => failures.extend(failed),
            }
        }
        failures.sort_unstable_by_key(|&(block, _)| block);
        for (block, verdict) in failures {
            let verdict = match verdict {
                BlockVerdict::PlaintextMismatch if lost.contains(&block) => BlockVerdict::LostStale,
                BlockVerdict::PlaintextMismatch if in_flight(block) => BlockVerdict::InFlightStale,
                checked => checked,
            };
            let at = report
                .verdicts
                .binary_search_by_key(&block, |&(listed, _)| listed)
                .expect("the page walk lists every stored block");
            report.verdicts[at].1 = verdict;
            report.file(block, verdict);
        }
        report
    }

    /// The secure sweep's root check.  The functional oracle is
    /// policy-independent: the tree rebuilt from the persisted counter
    /// blocks must match the durable root register, so a flip anywhere
    /// in the counter image is caught under every durable-tree layout.
    /// The *policy* changes what the recovery-latency model charges for
    /// the sweep ([`RecoveryCost`](crate::policy::RecoveryCost)) and adds
    /// its own durable-layout consistency check on top.
    fn root_ok(&self) -> bool {
        let rebuilt_ok = {
            let mut rebuilt = self.rebuilt_tree();
            // Counter pages, not the page walk's data pages: a page can
            // hold counters and no block (re-encrypted before any block
            // persisted) or blocks and no counters (a tampered image).
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
        rebuilt_ok && layout_ok
    }

    /// The baseline sweep's check of one chunk of stored blocks: each
    /// block's bytes against the golden image.  Returns the blocks that
    /// differ (see [`Swept::Failures`]).
    fn compare_chunk<'a>(
        &self,
        chunk: impl Iterator<Item = (BlockAddr, &'a [u8; 64])>,
    ) -> Vec<(BlockAddr, BlockVerdict)> {
        chunk
            .filter(|&(block, bytes)| *bytes != self.expected_plaintext(block))
            .map(|(block, _)| (block, BlockVerdict::PlaintextMismatch))
            .collect()
    }

    /// Verifies one chunk of stored blocks: reads each block's counter,
    /// computes the chunk's MACs in one multi-lane dispatch and its pads
    /// in one cipher dispatch, then decrypts each block and compares it
    /// with the golden image.  Returns the blocks that failed (see
    /// [`Swept::Failures`]); a block whose MAC fails is not compared.
    fn verify_chunk<'a>(
        &self,
        chunk: impl Iterator<Item = (BlockAddr, &'a [u8; 64])>,
    ) -> Vec<(BlockAddr, BlockVerdict)> {
        let stored: Vec<(BlockAddr, &[u8; 64])> = chunk.collect();
        // `(block index, counter)` per block: the pad inputs, and with
        // the ciphertext the MAC inputs.
        let counters: Vec<(u64, SplitCounter)> = stored
            .iter()
            .map(|&(block, _)| (block.index(), self.nvm.counter_of(block)))
            .collect();
        let msgs: Vec<(&[u8; 64], u64, SplitCounter)> = stored
            .iter()
            .zip(&counters)
            .map(|(&(_, ct), &(addr, ctr))| (ct, addr, ctr))
            .collect();
        let mut tags = Vec::with_capacity(stored.len());
        self.mac_engine.compute_truncated_batch(&msgs, &mut tags);
        let mut pads = Vec::with_capacity(stored.len());
        self.otp_engine.generate_batch(&counters, &mut pads);
        stored
            .iter()
            .zip(tags.iter().zip(&pads))
            .filter_map(|(&(block, ct), (&tag, pad))| {
                if tag != self.nvm.read_mac(block) {
                    Some((block, BlockVerdict::MacMismatch))
                } else if OtpEngine::apply_pad(ct, pad) != self.expected_plaintext(block) {
                    Some((block, BlockVerdict::PlaintextMismatch))
                } else {
                    None
                }
            })
            .collect()
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
                let ctr = self.nvm.counter_of(block);
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

#[cfg(test)]
mod tests {
    use secpb_sim::addr::{Address, Asid};
    use secpb_sim::config::SystemConfig;
    use secpb_sim::trace::{Access, TraceItem};

    use super::*;
    use crate::scheme::Scheme;
    use secpb_mem::store::{NvmStore, BLOCKS_PER_PAGE};

    /// Distinct blocks each round stores: twelve full sweep chunks and a
    /// partial one.
    const BLOCKS: u64 = 3_100;

    /// One store to each of [`BLOCKS`] blocks (three of every four blocks
    /// of each page, so page runs break inside chunks), alternating
    /// between ASIDs 1 and 2; `round` changes every value.
    fn stores(round: u64) -> impl Iterator<Item = TraceItem> {
        (0..BLOCKS).map(move |i| {
            let block = i / 3 * 4 + i % 3;
            let asid = Asid(1 + (i % 2) as u16);
            let store = Access::store(Address(0x40_0000 + block * 64), round << 32 | i);
            TraceItem::then(3, store.with_asid(asid))
        })
    }

    /// A system whose every block persisted once (the blocks of every
    /// other page twice, so neighbouring pages' counters differ), then
    /// was rewritten.
    fn rewritten_system() -> SecureSystem {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 42);
        sys.run_trace(stores(1));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        sys.run_trace(stores(1).filter(|item| {
            item.access
                .is_some_and(|a| NvmStore::page_of(a.addr.block()).is_multiple_of(2))
        }));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        sys.run_trace(stores(2));
        sys
    }

    /// The secure sweep one block at a time: verify the stored MAC,
    /// decrypt, compare with the golden image, classify staleness.
    /// `root_ok` is taken as given (the tree check is not the sweep's).
    fn per_block_reference(
        sys: &SecureSystem,
        lost: &[BlockAddr],
        root_ok: bool,
    ) -> RecoveryReport {
        let domain = sys.domain();
        let mut blocks: Vec<BlockAddr> = domain.nvm.data_blocks().collect();
        blocks.sort_unstable();
        let mut report = RecoveryReport {
            root_ok,
            ..RecoveryReport::default()
        };
        for block in blocks {
            let ct = domain.nvm.read_data(block);
            let ctr = domain
                .nvm
                .read_counters(NvmStore::page_of(block))
                .counter_of(NvmStore::page_slot_of(block));
            let tag = domain.nvm.read_mac(block);
            let verdict = if !domain
                .mac_engine
                .verify_truncated(&ct, block.index(), ctr, tag)
            {
                report.mac_failures.push(block);
                BlockVerdict::MacMismatch
            } else if domain.otp_engine.decrypt(&ct, block.index(), ctr)
                == domain.expected_plaintext(block)
            {
                BlockVerdict::Verified
            } else if lost.contains(&block) {
                report.lost_stale.push(block);
                BlockVerdict::LostStale
            } else if sys.buffered(block) {
                report.in_flight_stale.push(block);
                BlockVerdict::InFlightStale
            } else {
                report.plaintext_mismatches.push(block);
                BlockVerdict::PlaintextMismatch
            };
            report.blocks_checked += 1;
            report.verdicts.push((block, verdict));
        }
        report
    }

    /// Asserts that the sweep at 1, 2, 3, 4 and 8 workers and the public
    /// `recover_with` all equal the per-block reference, field for field,
    /// and returns it.
    fn assert_sweeps_agree(sys: &SecureSystem, lost: &[BlockAddr]) -> RecoveryReport {
        let in_flight = |block| sys.buffered(block);
        let inline = sys.domain().recover_report_on(1, lost, true, &in_flight);
        let reference = per_block_reference(sys, lost, inline.root_ok);
        let summary = |r: &RecoveryReport| {
            format!(
                "checked={} macs={} mismatches={} lost={} in_flight={}",
                r.blocks_checked,
                r.mac_failures.len(),
                r.plaintext_mismatches.len(),
                r.lost_stale.len(),
                r.in_flight_stale.len()
            )
        };
        assert!(
            inline == reference,
            "inline sweep {} vs reference {}",
            summary(&inline),
            summary(&reference)
        );
        for jobs in [2, 3, 4, 8] {
            let fanned = sys.domain().recover_report_on(jobs, lost, true, &in_flight);
            assert!(
                fanned == reference,
                "{jobs}-worker sweep {} vs reference {}",
                summary(&fanned),
                summary(&reference)
            );
        }
        let public = sys.recover_with(lost);
        assert!(
            public == reference,
            "recover_with {} vs reference {}",
            summary(&public),
            summary(&reference)
        );
        reference
    }

    #[test]
    fn sweep_matches_per_block_reference_under_in_flight_blocks_and_tampering() {
        let mut sys = rewritten_system();
        let first_page = NvmStore::page_of(Address(0x40_0000).block());
        // An application crash drains ASID 1 only: ASID 2's entries stay
        // buffered, so their blocks read back stale but accounted.
        sys.crash(
            CrashKind::ApplicationCrash(Asid(1)),
            DrainPolicy::DrainProcess,
        )
        .unwrap();
        let clean = assert_sweeps_agree(&sys, &[]);
        assert!(clean.blocks_checked >= BLOCKS);
        assert_ne!(
            clean.blocks_checked % SWEEP_CHUNK as u64,
            0,
            "partial last chunk"
        );
        assert!(clean.root_ok);
        assert!(clean.mac_failures.is_empty() && clean.plaintext_mismatches.is_empty());
        assert!(
            !clean.in_flight_stale.is_empty(),
            "ASID 2 left entries buffered"
        );

        // Data and MAC bit flips across every chunk, and a rollback of
        // the first page's counter block to its round-1 image.
        let mut blocks: Vec<BlockAddr> = sys.nvm_store().data_blocks().collect();
        blocks.sort_unstable();
        let old_counters = {
            let mut probe = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 42);
            probe.run_trace(stores(1));
            probe
                .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            probe.nvm_store().read_counters(first_page)
        };
        let nvm = sys.nvm_store_mut();
        for (i, &block) in blocks.iter().enumerate().step_by(97) {
            assert!(nvm.tamper_data(block, i % 64, (i % 8) as u8));
        }
        for &block in blocks.iter().skip(40).step_by(131) {
            assert!(nvm.tamper_mac(block, 5));
        }
        assert_ne!(nvm.read_counters(first_page), old_counters);
        nvm.rollback_counters(first_page, old_counters);
        let tampered = assert_sweeps_agree(&sys, &[]);
        assert!(!tampered.root_ok, "a counter rollback breaks the root");
        assert!(tampered.mac_failures.len() > blocks.len() / 97 + blocks.len() / 131);
        assert!(!tampered.in_flight_stale.is_empty());

        // A tuple spliced into, and one replayed onto, blocks of pages
        // that never persisted counters: the page walk must list both,
        // and neither MAC verifies under the pages' zero counters.
        let spliced = BlockAddr(blocks[blocks.len() - 1].index() + 10 * BLOCKS_PER_PAGE + 3);
        let replayed = BlockAddr(spliced.index() + 2 * BLOCKS_PER_PAGE + 60);
        let nvm = sys.nvm_store_mut();
        for block in [spliced, replayed] {
            let page = NvmStore::page_of(block);
            assert!(nvm.counter_pages().all(|p| p != page) && !nvm.contains_data(block));
        }
        assert!(nvm.splice(blocks[7], spliced));
        nvm.replay_tuple(replayed, [0x5A; 64], 0x1234_5678);
        let foreign = assert_sweeps_agree(&sys, &[]);
        assert_eq!(foreign.blocks_checked, tampered.blocks_checked + 2);
        for block in [spliced, replayed] {
            assert!(
                foreign.mac_failures.contains(&block),
                "{block:?} not caught"
            );
        }
    }

    #[test]
    fn sweep_matches_per_block_reference_under_brown_out_losses() {
        let mut sys = rewritten_system();
        let crash = sys
            .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(4))
            .unwrap();
        assert!(!crash.lost_blocks.is_empty());
        let accounted = assert_sweeps_agree(&sys, &crash.lost_blocks);
        assert!(accounted.is_consistent());
        assert_eq!(accounted.lost_stale.len(), crash.lost_blocks.len());
        // Without the crash report's accounting the same blocks are
        // plaintext mismatches.
        let unaccounted = assert_sweeps_agree(&sys, &[]);
        assert_eq!(unaccounted.plaintext_mismatches, accounted.lost_stale);
    }

    #[test]
    fn sweeps_fan_out_only_with_sixteen_chunks_per_worker() {
        let two_workers = 2 * MIN_CHUNKS_PER_WORKER * SWEEP_CHUNK;
        assert_eq!(sweep_jobs(0), 1);
        // 31 chunks, the last one partial.
        assert_eq!(sweep_jobs(two_workers - SWEEP_CHUNK), 1);
        assert_eq!(
            sweep_jobs(two_workers - SWEEP_CHUNK + 1),
            pool::default_jobs().min(2)
        );
        assert_eq!(sweep_jobs(two_workers), pool::default_jobs().min(2));
        // A grid_stores gamess cell: 118 chunks, at most 7 workers.
        assert_eq!(sweep_jobs(30_024), pool::default_jobs().min(7));
    }
}
