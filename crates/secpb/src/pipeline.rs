//! The per-store persist pipeline of the single-core system: SecPB
//! acceptance, early metadata work, background drains, and the SP
//! baseline's store path.
//!
//! The pipeline is driven entirely by the scheme's [`EarlyWork`] flags
//! (Figure 4's dependency chain `counter → {OTP → ciphertext → MAC,
//! BMT}`): each flag that is set runs its step at store-persist time and
//! marks the entry field valid; each flag that is clear leaves the step
//! for drain time or the post-crash sec-sync.  Every drain — a background
//! burst, a slot wait's single entry, a crash drain — flushes through one
//! path: the front resolves late counters, pads and ciphertexts in drain
//! order, and the domain's batched kernel MACs, digests and persists the
//! run.  The only scheme identities consulted are capability predicates
//! on [`Scheme`] (store-release serialization for NoGap, the double
//! buffer access for OBCM, SecPB use at all for SP).

use secpb_crypto::counter::SplitCounter;
use secpb_crypto::otp::OtpEngine;
use secpb_mem::cache::LineState;
use secpb_mem::hierarchy::HitLevel;
use secpb_mem::metadata::{MetadataCaches, MetadataKind};
use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;
use secpb_sim::cycle::Cycle;
use secpb_sim::telemetry::TelemetryEvent;
use secpb_sim::trace::Access;
use secpb_sim::tracer::Phase;

use crate::crash::RecoveryError;
use crate::entry::Entry;
use crate::scheme::EarlyWork;
use crate::system::{Attr, SecureSystem};

#[allow(unused_imports)] // rustdoc link target
use crate::scheme::Scheme;

impl SecureSystem {
    pub(crate) fn do_load(&mut self, access: Access) {
        self.stats.inc(self.h.loads);
        let block = access.addr.block();
        let out = self
            .hierarchy
            .load_traced(block, self.now, &mut self.tracer);
        let mut extra = out.latency.saturating_sub(self.cfg.l1.access_latency);
        match out.hit_level {
            HitLevel::L1 => self.stats.inc(self.h.l1_hits),
            HitLevel::L2 => self.stats.inc(self.h.l2_hits),
            HitLevel::L3 => self.stats.inc(self.h.l3_hits),
            HitLevel::Memory => {
                let done = self.nvm_timing.read(block, self.now);
                extra += done.since(self.now);
                self.stats.inc(self.h.load_misses);
                if self.scheme.is_secure() && !self.cfg.security.speculative_verification {
                    // Blocking verification: decrypt + MAC check before use.
                    extra += self.cfg.security.otp_latency + self.cfg.security.mac_latency;
                    self.stats.inc(self.h.blocking_verifications);
                }
            }
        }
        for wb in out.writebacks {
            self.wpq.enqueue(wb, self.now, &mut self.nvm_timing);
        }
        self.advance(self.cfg.core.load_exposure * extra as f64, Attr::Load);
    }

    pub(crate) fn do_store(&mut self, access: Access) {
        self.stats.inc(self.h.stores);
        // Architectural effect.
        self.domain.apply_store_golden(access);

        if self.scheme.uses_secpb() {
            self.pb_store(access);
        } else {
            self.sp_store(access);
        }
    }

    // ---------------------------------------------------------------
    // SecPB store path
    // ---------------------------------------------------------------

    fn pb_store(&mut self, access: Access) {
        let block = access.addr.block();
        let offset = access.addr.block_offset();
        let size = usize::from(access.size);
        self.hierarchy.store(block, LineState::PersistDirty);

        if self.scheme.serializes_store_release() {
            // NoGap only raises its unblocking signal at the *completion*
            // of the full metadata persist (Section IV-B): the store
            // buffer cannot accept a new store until then, so the
            // previous persist serializes with the core directly.
            let old = self.now;
            self.now = self.now.max(self.pb_busy_until);
            self.attribute(Attr::NogapWait, old);
        }
        let mut release = self.now.max(self.pb_busy_until);
        self.drain_engine.retire(release);
        // The policy's early-step assignment drives the per-store
        // pipeline; `Scheme::early_work` is just its default resolution.
        let ew = self.domain.policy.early;
        let secure = self.scheme.is_secure();
        let pb_lat = self.cfg.secpb.access_latency;

        let accept_end;
        if self.pb.contains(block) {
            // Coalescing hit.
            match self.pb.entry_mut(block) {
                Some(e) => e.apply_store(offset, access.value, size),
                None => self.stats.inc(self.h.anomalies),
            }
            self.pb.note_persist();
            self.stats.inc(self.h.persists);
            accept_end = self.accept_coalesced(block, release + pb_lat, ew, secure);
        } else {
            // Allocation path: wait for a slot if necessary.
            release = self.wait_for_slot(release);
            let base = self.domain.expected_plaintext(block);
            let e = self.pb.allocate(block, access.asid, base);
            e.apply_store(offset, access.value, size);
            e.born = release;
            self.pb.note_persist();
            self.stats.inc(self.h.persists);
            self.stats.inc(self.h.allocations);
            accept_end = self.accept_allocated(block, release, ew, secure);

            if self.pb.above_high_watermark() {
                self.issue_background_drains(accept_end);
            }
        }

        self.pb_busy_until = accept_end;
        self.tracer.span(Phase::StorePersist, release, accept_end);
        self.stats
            .record(self.h.occupancy, self.pb.occupancy() as u64);
        let work = accept_end.since(release + pb_lat);
        self.push_store_buffer(accept_end);
        self.advance(
            self.cfg.core.store_exposure * work as f64,
            Attr::StoreAccept,
        );
    }

    /// Early work on a coalescing hit: value-dependent steps only, unless
    /// the value-independent-coalescing ablation is off.
    fn accept_coalesced(
        &mut self,
        block: BlockAddr,
        start: Cycle,
        ew: EarlyWork,
        secure: bool,
    ) -> Cycle {
        let mut t = start;
        if secure && !self.cfg.security.value_independent_coalescing && ew.counter {
            // Ablation: redo value-independent metadata on every store.
            let (done, ctr) = self.early_counter_increment(block, t);
            t = done;
            if let Some(e) = self.pb.entry_mut(block) {
                e.counter = ctr;
                e.valid.counter = true;
            } else {
                self.stats.inc(self.h.anomalies);
            }
            if ew.otp {
                t = self.early_otp(block, t);
            }
            if ew.bmt {
                t = self.early_bmt_walk(block, t);
            }
        }
        if secure && ew.ciphertext {
            t = self.early_ciphertext(block, t);
        }
        if secure && ew.mac {
            t = self.early_mac(block, t);
        }
        t
    }

    /// Early work on a fresh allocation: the scheme's whole early set,
    /// with the data chain and the BMT walk in parallel.
    fn accept_allocated(
        &mut self,
        block: BlockAddr,
        release: Cycle,
        ew: EarlyWork,
        secure: bool,
    ) -> Cycle {
        let pb_lat = self.cfg.secpb.access_latency;
        let mut t = release + pb_lat;
        if self.scheme.double_buffer_check() {
            // OBCM pays a second SecPB access to check the counter
            // valid bit before unblocking the L1D (Section VI-B).
            t += pb_lat;
        }
        if secure && ew.counter {
            let (done, ctr) = self.early_counter_increment(block, t);
            t = done;
            if let Some(e) = self.pb.entry_mut(block) {
                e.counter = ctr;
                e.valid.counter = true;
            } else {
                self.stats.inc(self.h.anomalies);
            }
        }
        let mut data_done = t;
        if secure && ew.otp {
            data_done = self.early_otp(block, data_done);
            if ew.ciphertext {
                data_done = self.early_ciphertext(block, data_done);
                if ew.mac {
                    data_done = self.early_mac(block, data_done);
                }
            }
        }
        let bmt_done = if secure && ew.bmt {
            self.early_bmt_walk(block, t)
        } else {
            t
        };
        data_done.max(bmt_done)
    }

    fn push_store_buffer(&mut self, accept_end: Cycle) {
        while self.store_buffer.front().is_some_and(|&c| c <= self.now) {
            self.store_buffer.pop_front();
        }
        if self.store_buffer.len() >= self.cfg.core.store_buffer_entries {
            if let Some(oldest) = self.store_buffer.pop_front() {
                let stall = oldest.since(self.now);
                self.stats.add(self.h.sb_stall_cycles, stall);
                let old = self.now;
                self.now = self.now.max(oldest);
                self.attribute(Attr::SbStall, old);
            }
        }
        self.store_buffer.push_back(accept_end);
    }

    /// Blocks until a SecPB slot is available, issuing drains as needed.
    fn wait_for_slot(&mut self, mut release: Cycle) -> Cycle {
        loop {
            let in_flight = self.drain_engine.in_flight(release);
            if self.pb.occupancy() + in_flight < self.cfg.secpb.entries {
                return release;
            }
            match self.drain_engine.next_completion() {
                None => {
                    if !self.issue_drains(release, 1) {
                        // Nothing drainable and nothing in flight: the
                        // buffer cannot make progress — accept the store
                        // rather than deadlock, and flag the anomaly.
                        self.stats.inc(self.h.anomalies);
                        if let Some(sink) = self.stats.sink() {
                            sink.emit(&TelemetryEvent::AnomalyMarker {
                                count: self.stats.value(self.h.anomalies),
                                cycle: release.raw(),
                            });
                        }
                        return release;
                    }
                }
                Some(c) => {
                    self.stats.add(self.h.full_stall_cycles, c.since(release));
                    self.tracer.span(Phase::FullStall, release, c);
                    release = release.max(c);
                    self.drain_engine.retire(release);
                }
            }
        }
    }

    fn issue_background_drains(&mut self, now: Cycle) {
        let target = self.cfg.secpb.low_watermark_entries();
        let excess = self.pb.occupancy().saturating_sub(target);
        if excess > 0 {
            self.drain_burst(now, excess);
        }
    }

    /// Drains the `n` oldest entries as one burst: per-entry timing,
    /// stats and spans in drain order, then one
    /// [`flush_entries`](Self::flush_entries) call for the whole burst.
    fn drain_burst(&mut self, now: Cycle, n: usize) {
        let mut pending: Vec<Entry> = Vec::with_capacity(n);
        for _ in 0..n {
            let Some(block) = self.pb.oldest() else { break };
            let Some(entry) = self.pb.remove(block) else {
                self.stats.inc(self.h.anomalies);
                break;
            };
            self.issue_drain(&entry, now);
            pending.push(entry);
        }
        self.flush_entries(pending);
    }

    /// Flushes drained entries in drain order through the domain's
    /// batched drain kernel.  Each entry's late counter (overflow-aware),
    /// pad and ciphertext resolve here first.  An increment that would
    /// overflow its page splits the run: the entries resolved before it
    /// persist before the page is re-encrypted, exactly as one-at-a-time
    /// flushing would order them.
    fn flush_entries(&mut self, entries: impl IntoIterator<Item = Entry>) {
        if !self.scheme.is_secure() {
            for entry in entries {
                self.domain.nvm.write_data(entry.block, entry.plaintext);
            }
            return;
        }
        let mut run: Vec<Entry> = Vec::new();
        for mut entry in entries {
            if !entry.valid.counter {
                if self.domain.increment_overflows(entry.block) {
                    self.flush_run(&run);
                    run.clear();
                }
                entry.counter = self.increment_logical(entry.block);
                entry.valid.counter = true;
            }
            if !entry.valid.otp {
                self.stats.inc(self.h.otps);
            }
            if !entry.valid.ciphertext {
                self.stats.inc(self.h.ciphertexts);
            }
            self.domain.seal(&mut entry);
            run.push(entry);
        }
        self.flush_run(&run);
    }

    /// Persists a resolved run through the domain kernel and translates
    /// its per-entry hash charges into the typed stats.
    fn flush_run(&mut self, run: &[Entry]) {
        if run.is_empty() {
            return;
        }
        let tree_hashes = self.domain.flush_resolved(run);
        for (entry, &hashes) in run.iter().zip(&tree_hashes) {
            // With `valid.mac` set the modeled MAC unit already ran early
            // and only the host-side tag was deferred to this flush.
            if !entry.valid.mac {
                self.stats.inc(self.h.macs);
            }
            self.stats.inc(self.h.bmt_root_updates);
            self.stats.add(self.h.bmt_node_hashes, hashes);
            if !entry.valid.bmt {
                // Only schemes that left the BMT update *late* charge
                // these hashes to the drain (battery) budget; eager
                // schemes already paid at store time.
                self.stats.add(self.h.late_bmt_node_hashes, hashes);
            }
        }
    }

    /// Issues up to `n` oldest-first drains; returns whether any issued.
    fn issue_drains(&mut self, now: Cycle, n: usize) -> bool {
        let mut any = false;
        for _ in 0..n {
            let Some(block) = self.pb.oldest() else { break };
            match self.drain_one(block, now) {
                Ok(_) => any = true,
                Err(_) => {
                    // `oldest` said the block was resident but `remove`
                    // disagreed; count it and stop issuing this round.
                    self.stats.inc(self.h.anomalies);
                    break;
                }
            }
        }
        any
    }

    /// Drains one entry as a one-entry run: timing through the drain
    /// engine, function through [`flush_entries`](Self::flush_entries).
    /// Crash drains call this per entry, so each entry's drain timing
    /// sees the tree state the previous flush left behind.
    pub(crate) fn drain_one(
        &mut self,
        block: BlockAddr,
        now: Cycle,
    ) -> Result<Cycle, RecoveryError> {
        let entry = self
            .pb
            .remove(block)
            .ok_or(RecoveryError::MissingPbEntry(block))?;
        let completion = self.issue_drain(&entry, now);
        self.flush_entries([entry]);
        Ok(completion)
    }

    /// Issues `entry`'s drain at `now` through the drain engine and
    /// records its span and stats; returns the completion cycle.
    fn issue_drain(&mut self, entry: &Entry, now: Cycle) -> Cycle {
        let (ii, latency) = self.drain_timing(entry, now);
        let completion = self.drain_engine.issue(now, ii, latency);
        self.tracer.span(Phase::Drain, now, completion);
        self.stats
            .record(self.h.drain_latency, completion.since(now));
        self.stats
            .record(self.h.entry_lifetime, now.since(entry.born));
        self.stats.record(self.h.writes_per_entry, entry.stores);
        self.stats.inc(self.h.drains);
        completion
    }

    /// Computes (initiation interval, latency) of draining `entry` at
    /// `now`: the scheme's *late* work plus the PM writes.
    fn drain_timing(&mut self, entry: &Entry, now: Cycle) -> (u64, u64) {
        let block = entry.block;
        let page = NvmStore::page_of(block);
        let sec = &self.cfg.security;
        let pb_lat = self.cfg.secpb.access_latency;
        // The MC-side sec-sync pipeline overlaps drains (PLP-style
        // pipelined tree updates): the initiation interval models the
        // PB read port, with NVM write bandwidth applying backpressure
        // through the WPQ below.
        let ii = 8u64;
        let mut t = now + pb_lat;

        if self.scheme.is_secure() {
            if !entry.valid.counter {
                let md = self.metadata.access(
                    MetadataKind::Counter,
                    page,
                    true,
                    t,
                    &mut self.nvm_timing,
                );
                if !md.hit {
                    self.stats.inc(self.h.counter_misses);
                }
                self.tracer.span(Phase::CounterFetch, t, md.done + 1);
                t = md.done + 1;
            }
            let mut data_t = t;
            if !entry.valid.otp {
                self.tracer
                    .span(Phase::OtpGen, data_t, data_t + sec.otp_latency);
                data_t += sec.otp_latency;
            }
            if !entry.valid.ciphertext {
                data_t += 1;
            }
            if !entry.valid.mac {
                self.tracer
                    .span(Phase::Mac, data_t, data_t + sec.mac_latency);
                data_t += sec.mac_latency;
            }
            let mut bmt_t = t;
            if !entry.valid.bmt {
                let hashes = self.domain.tree.update_cost_hashes(page);
                let mut walk = bmt_t;
                for lvl in 1..=hashes {
                    let idx = (lvl << 32) | (page >> (3 * lvl as u32).min(63));
                    let md = self.metadata.access(
                        MetadataKind::BmtNode,
                        idx,
                        true,
                        walk,
                        &mut self.nvm_timing,
                    );
                    walk = md.done + sec.bmt_hash_latency;
                }
                self.tracer.span(Phase::BmtUpdate, bmt_t, walk);
                bmt_t = walk;
            }
            t = data_t.max(bmt_t);
            // PM writes: data, counter block, MAC block.
            let a1 = self.wpq.enqueue(block, t, &mut self.nvm_timing);
            let a2 = self.wpq.enqueue(
                MetadataCaches::region_block(MetadataKind::Counter, page),
                t,
                &mut self.nvm_timing,
            );
            let a3 = self.wpq.enqueue(
                MetadataCaches::region_block(MetadataKind::Mac, block.index() / 8),
                t,
                &mut self.nvm_timing,
            );
            t = a1.max(a2).max(a3);
        } else {
            // Insecure bbb: just move the data block to the WPQ.
            t = self.wpq.enqueue(block, t, &mut self.nvm_timing);
        }
        (ii, t.since(now))
    }

    // ---------------------------------------------------------------
    // Early metadata work (timing + function)
    // ---------------------------------------------------------------

    /// Fetches and increments the block's counter (timing through the
    /// counter cache; function through the logical counter state).
    fn early_counter_increment(&mut self, block: BlockAddr, t: Cycle) -> (Cycle, SplitCounter) {
        let page = NvmStore::page_of(block);
        let md = self
            .metadata
            .access(MetadataKind::Counter, page, true, t, &mut self.nvm_timing);
        if !md.hit {
            self.stats.inc(self.h.counter_misses);
        }
        self.tracer.span(Phase::CounterFetch, t, md.done + 1);
        let ctr = self.increment_logical(block);
        (md.done + 1, ctr)
    }

    fn early_otp(&mut self, block: BlockAddr, t: Cycle) -> Cycle {
        let Some(e) = self.pb.entry(block) else {
            self.stats.inc(self.h.anomalies);
            return t;
        };
        let ctr = e.counter;
        let pad = self.domain.otp_engine.generate(block.index(), ctr);
        if let Some(e) = self.pb.entry_mut(block) {
            e.otp = pad;
            e.valid.otp = true;
        }
        self.stats.inc(self.h.otps);
        self.tracer
            .span(Phase::OtpGen, t, t + self.cfg.security.otp_latency);
        t + self.cfg.security.otp_latency
    }

    fn early_ciphertext(&mut self, block: BlockAddr, t: Cycle) -> Cycle {
        let Some(e) = self.pb.entry_mut(block) else {
            self.stats.inc(self.h.anomalies);
            return t;
        };
        debug_assert!(e.valid.otp, "ciphertext requires a valid pad (Figure 4)");
        e.ciphertext = OtpEngine::apply_pad(&e.plaintext, &e.otp);
        e.valid.ciphertext = true;
        self.stats.inc(self.h.ciphertexts);
        t + 1
    }

    fn early_mac(&mut self, block: BlockAddr, t: Cycle) -> Cycle {
        let Some(e) = self.pb.entry_mut(block) else {
            self.stats.inc(self.h.anomalies);
            return t;
        };
        debug_assert!(e.valid.ciphertext, "MAC requires the ciphertext (Figure 4)");
        // The modeled MAC unit runs here (stat, span, validity), but the
        // host-side HMAC is deferred to drain: a coalescing rewrite would
        // throw the tag away, and only the tag persisted at drain is
        // architecturally visible.
        e.mac = None;
        e.valid.mac = true;
        self.stats.inc(self.h.macs);
        self.tracer
            .span(Phase::Mac, t, t + self.cfg.security.mac_latency);
        t + self.cfg.security.mac_latency
    }

    /// Walks the BMT from leaf to root for timing (the functional leaf
    /// update happens at drain).  Serialized to one in flight when
    /// configured.
    fn early_bmt_walk(&mut self, block: BlockAddr, t: Cycle) -> Cycle {
        let page = NvmStore::page_of(block);
        let sec = &self.cfg.security;
        let start = if sec.single_inflight_bmt {
            t.max(self.bmt_busy_until)
        } else {
            t
        };
        let hashes = self.domain.tree.update_cost_hashes(page);
        let mut walk = start;
        for lvl in 1..=hashes {
            let idx = (lvl << 32) | (page >> (3 * lvl as u32).min(63));
            let md =
                self.metadata
                    .access(MetadataKind::BmtNode, idx, true, walk, &mut self.nvm_timing);
            walk = md.done + sec.bmt_hash_latency;
        }
        if sec.single_inflight_bmt {
            self.bmt_busy_until = walk;
        }
        self.stats.inc(self.h.early_bmt_walks);
        self.tracer.span(Phase::BmtUpdate, start, walk);
        if let Some(e) = self.pb.entry_mut(block) {
            e.valid.bmt = true;
        }
        walk
    }

    /// Increments the logical counter of `block` through the domain,
    /// which re-encrypts the page on overflow; the front accounts the
    /// re-encryption and refreshes its in-flight entries of the page.
    pub(crate) fn increment_logical(&mut self, block: BlockAddr) -> SplitCounter {
        let (ctr, reencryption) = self.domain.increment_counter(block);
        self.stats.inc(self.h.counter_increments);
        if let Some(r) = reencryption {
            self.stats.inc(self.h.page_overflows);
            for _ in 0..r.blocks {
                self.stats.inc(self.h.otps);
                self.stats.inc(self.h.ciphertexts);
                self.stats.inc(self.h.macs);
            }
            self.stats.inc(self.h.bmt_root_updates);
            self.stats.add(self.h.bmt_node_hashes, r.tree_hashes);
            self.refresh_in_flight(NvmStore::page_of(block));
        }
        ctr
    }

    /// After a page re-encryption, refreshes the SecPB entries of the
    /// page: their recorded counters are stale after the major bump.
    fn refresh_in_flight(&mut self, page: u64) {
        let Some(cb) = self.domain.counters.get(&page) else {
            self.stats.inc(self.h.anomalies);
            return;
        };
        let resident: Vec<BlockAddr> = self
            .pb
            .iter()
            .filter(|e| NvmStore::page_of(e.block) == page)
            .map(|e| e.block)
            .collect();
        for block in resident {
            let Some(e) = self.pb.entry_mut(block) else {
                self.stats.inc(self.h.anomalies);
                continue;
            };
            if e.valid.counter {
                e.counter = cb.counter_of(NvmStore::page_slot_of(block));
            }
            e.valid.otp = false;
            e.valid.ciphertext = false;
            e.valid.mac = false;
            e.mac = None;
        }
    }

    // ---------------------------------------------------------------
    // SP baseline (SPoP at the memory controller, no SecPB)
    // ---------------------------------------------------------------

    fn sp_store(&mut self, access: Access) {
        let block = access.addr.block();
        // Caches hold a clean copy (the store persists through the MC).
        self.hierarchy.store(block, LineState::Clean);
        let release = self.now.max(self.pb_busy_until);
        let sec = self.cfg.security;

        // Counter fetch + increment (per store: no coalescing).
        let (t, ctr) = {
            let page = NvmStore::page_of(block);
            let md = self.metadata.access(
                MetadataKind::Counter,
                page,
                true,
                release,
                &mut self.nvm_timing,
            );
            if !md.hit {
                self.stats.inc(self.h.counter_misses);
            }
            self.tracer.span(Phase::CounterFetch, release, md.done + 1);
            (md.done + 1, self.increment_logical(block))
        };

        // Data-dependent chain and BMT walk in parallel.
        let data_done = t + sec.otp_latency + 1 + sec.mac_latency;
        self.stats.inc(self.h.otps);
        self.stats.inc(self.h.ciphertexts);
        self.stats.inc(self.h.macs);
        self.tracer.span(Phase::OtpGen, t, t + sec.otp_latency);
        self.tracer
            .span(Phase::Mac, t + sec.otp_latency + 1, data_done);
        let bmt_done = self.sp_bmt_walk(block, t);

        let mut done = data_done.max(bmt_done);
        // Persist through the WPQ.
        let page = NvmStore::page_of(block);
        let a1 = self.wpq.enqueue(block, done, &mut self.nvm_timing);
        let a2 = self.wpq.enqueue(
            MetadataCaches::region_block(MetadataKind::Counter, page),
            done,
            &mut self.nvm_timing,
        );
        done = a1.max(a2);

        self.pb_busy_until = done;
        self.stats.inc(self.h.persists);
        self.tracer.span(Phase::StorePersist, release, done);
        self.push_store_buffer(done);
        self.advance(
            self.cfg.core.store_exposure * done.since(release) as f64,
            Attr::StoreAccept,
        );

        // Functional: persist the tuple immediately through the shared
        // kernel.
        let hashes = self.domain.persist_with_counter(block, ctr);
        self.stats.inc(self.h.bmt_root_updates);
        self.stats.add(self.h.bmt_node_hashes, hashes);
    }

    fn sp_bmt_walk(&mut self, block: BlockAddr, t: Cycle) -> Cycle {
        let page = NvmStore::page_of(block);
        let sec = &self.cfg.security;
        let start = if sec.single_inflight_bmt {
            t.max(self.bmt_busy_until)
        } else {
            t
        };
        let hashes = self.domain.tree.update_cost_hashes(page);
        let mut walk = start;
        for lvl in 1..=hashes {
            let idx = (lvl << 32) | (page >> (3 * lvl as u32).min(63));
            let md =
                self.metadata
                    .access(MetadataKind::BmtNode, idx, true, walk, &mut self.nvm_timing);
            walk = md.done + sec.bmt_hash_latency;
        }
        if sec.single_inflight_bmt {
            self.bmt_busy_until = walk;
        }
        self.tracer.span(Phase::BmtUpdate, start, walk);
        walk
    }
}
