//! Worst-case drain energy per scheme (Section V-B) — the quantity the
//! battery must provision.
//!
//! The assumptions follow the paper exactly:
//!
//! 1. every drained block is dirty and needs its metadata updated,
//! 2. no two blocks share an encryption page; all counter-cache accesses
//!    miss (a counter block must be fetched from PM per block),
//! 3. no BMT update paths overlap; all BMT-cache accesses miss (every
//!    level fetches a node from PM and hashes it),
//! 4. MACs are up to date in the MAC cache at runtime and need computing
//!    but not fetching,
//! 5. OTPs must be generated,
//! 6. XORs and counter increments are free.
//!
//! For SecPB the per-entry *late* work is the complement of the scheme's
//! early work; eagerly generated metadata enlarges the entry that must be
//! moved instead.

use crate::constants::{
    cache_bytes, entry_bytes, AES192_PER_BYTE, BLOCK_BYTES, BMT_LEVELS, MOVE_MC_TO_PM_PER_BYTE,
    MOVE_PB_TO_PM_PER_BYTE, SHA512_PER_BYTE,
};

/// The scheme whose battery is being sized (energy-model view; decoupled
/// from `secpb-core` so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Insecure battery-backed buffer.
    Bbb,
    /// Everything post-crash.
    Cobcm,
    /// Counter early.
    Obcm,
    /// Counter + OTP early.
    Bcm,
    /// Counter + OTP + BMT early.
    Cm,
    /// Everything but the MAC early.
    M,
    /// Everything early.
    NoGap,
}

impl SchemeKind {
    /// All SecPB schemes in Table V row order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Cobcm,
        SchemeKind::Obcm,
        SchemeKind::Bcm,
        SchemeKind::Cm,
        SchemeKind::M,
        SchemeKind::NoGap,
        SchemeKind::Bbb,
    ];

    /// Bytes of SecPB entry state that must move to the MC on a drain.
    pub fn entry_footprint_bytes(self) -> u64 {
        match self {
            SchemeKind::Bbb => BLOCK_BYTES,
            SchemeKind::Cobcm | SchemeKind::Obcm => entry_bytes::DATA_ONLY,
            SchemeKind::Bcm => entry_bytes::WITH_OTP,
            SchemeKind::Cm => entry_bytes::WITH_BMT_ACK,
            SchemeKind::M => entry_bytes::WITH_CIPHERTEXT,
            SchemeKind::NoGap => entry_bytes::FULL,
        }
    }

    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Bbb => "bbb",
            SchemeKind::Cobcm => "cobcm",
            SchemeKind::Obcm => "obcm",
            SchemeKind::Bcm => "bcm",
            SchemeKind::Cm => "cm",
            SchemeKind::M => "m",
            SchemeKind::NoGap => "nogap",
        }
    }
}

/// Energy (J) of one worst-case BMT leaf-to-root update: per level, fetch
/// a 64-byte node from PM and hash it.
pub fn bmt_update_energy() -> f64 {
    BMT_LEVELS as f64
        * (BLOCK_BYTES as f64 * MOVE_MC_TO_PM_PER_BYTE + BLOCK_BYTES as f64 * SHA512_PER_BYTE)
}

/// Energy (J) of one MAC computation over a 64-byte block.
pub fn mac_energy() -> f64 {
    BLOCK_BYTES as f64 * SHA512_PER_BYTE
}

/// Energy (J) of one OTP generation (AES-192 over the block).
pub fn otp_energy() -> f64 {
    BLOCK_BYTES as f64 * AES192_PER_BYTE
}

/// Energy (J) of fetching one counter block from PM.
pub fn counter_fetch_energy() -> f64 {
    BLOCK_BYTES as f64 * MOVE_MC_TO_PM_PER_BYTE
}

/// Worst-case drain energy (J) of a single SecPB entry under `scheme`.
pub fn per_entry_drain_energy(scheme: SchemeKind) -> f64 {
    let mut e = scheme.entry_footprint_bytes() as f64 * MOVE_PB_TO_PM_PER_BYTE;
    // Late work = complement of the scheme's early work.  BBB is the
    // insecure baseline: no metadata exists, so nothing is ever late.
    let (counter_late, otp_late, bmt_late, mac_late) = match scheme {
        SchemeKind::Bbb => (false, false, false, false),
        SchemeKind::Cobcm => (true, true, true, true),
        SchemeKind::Obcm => (false, true, true, true),
        SchemeKind::Bcm => (false, false, true, true),
        SchemeKind::Cm => (false, false, false, true),
        SchemeKind::M => (false, false, false, true),
        SchemeKind::NoGap => (false, false, false, false),
    };
    if counter_late {
        e += counter_fetch_energy();
    }
    if otp_late {
        e += otp_energy();
    }
    if bmt_late {
        e += bmt_update_energy();
    }
    if mac_late {
        e += mac_energy();
    }
    e
}

/// Worst-case battery energy (J) for a SecPB of `entries` entries: every
/// entry is assumed dirty with all of its late memory-tuple work still
/// pending (Section V-B assumptions 1–6).
pub fn secpb_drain_energy(scheme: SchemeKind, entries: usize) -> f64 {
    per_entry_drain_energy(scheme) * entries as f64
}

/// How many entries (SecPB entries, or dirty lines on eADR) a battery
/// holding `budget_joules` can drain at a worst case of `per` joules per
/// entry — the truncation point of a brown-out (a battery that browns
/// out mid-drain completes exactly this many oldest-first entries).
///
/// Saturating: a non-positive or non-finite budget drains nothing, and a
/// budget covering more than `u64::MAX` entries clamps.
pub fn entries_within_budget(per: f64, budget_joules: f64) -> u64 {
    if !budget_joules.is_finite() || budget_joules <= 0.0 || per <= 0.0 {
        return 0;
    }
    let n = (budget_joules / per).floor();
    if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        n as u64
    }
}

/// Drain energy (J) of insecure eADR: every cache line in the hierarchy
/// is dirty and must be flushed.
pub fn eadr_energy() -> f64 {
    cache_bytes::L1 as f64 * MOVE_PB_TO_PM_PER_BYTE
        + (cache_bytes::L2 + cache_bytes::L3) as f64 * MOVE_MC_TO_PM_PER_BYTE
}

/// Cache lines (s_)eADR drains: every line of the L1, L2 and L3.
fn eadr_lines() -> u64 {
    (cache_bytes::L1 + cache_bytes::L2 + cache_bytes::L3) / BLOCK_BYTES
}

/// Drain energy (J) of *secure* eADR: every dirty line additionally needs
/// its full memory tuple generated under the worst-case assumptions.
pub fn secure_eadr_energy() -> f64 {
    let per_line_security =
        counter_fetch_energy() + otp_energy() + bmt_update_energy() + mac_energy();
    eadr_energy() + eadr_lines() as f64 * per_line_security
}

/// Drain energy (J) of one dirty line under secure eADR: an equal share
/// of [`secure_eadr_energy`], so a hierarchy whose every line is dirty
/// prices at exactly that worst case.
pub fn secure_eadr_line_energy() -> f64 {
    secure_eadr_energy() / eadr_lines() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::BatteryTech;

    const UJ: f64 = 1e-6;

    #[test]
    fn component_energies_match_table_iii() {
        assert!((otp_energy() - 1.92 * UJ).abs() < 0.01 * UJ);
        assert!((mac_energy() - 5.0746 * UJ).abs() < 0.01 * UJ);
        assert!((counter_fetch_energy() - 0.7186 * UJ).abs() < 0.001 * UJ);
        // 8 levels x (fetch + hash) ≈ 46.35 µJ.
        assert!((bmt_update_energy() - 46.35 * UJ).abs() < 0.1 * UJ);
    }

    #[test]
    fn secure_eadr_lines_share_the_worst_case() {
        let whole = secure_eadr_line_energy() * eadr_lines() as f64;
        assert!((whole - secure_eadr_energy()).abs() < 1e-9 * secure_eadr_energy());
    }

    #[test]
    fn per_entry_ordering_follows_laziness() {
        // Lazier schemes leave more work to the battery.
        let e: Vec<f64> = [
            SchemeKind::NoGap,
            SchemeKind::Cm,
            SchemeKind::M,
            SchemeKind::Bcm,
            SchemeKind::Obcm,
            SchemeKind::Cobcm,
        ]
        .iter()
        .map(|&s| per_entry_drain_energy(s))
        .collect();
        assert!(e[0] < e[1], "NoGap < CM");
        assert!(e[2] < e[3], "M < BCM");
        assert!(e[3] < e[4], "BCM < OBCM");
        assert!(e[4] < e[5], "OBCM < COBCM");
    }

    #[test]
    fn bcm_to_cm_is_the_big_cliff() {
        // Table V: moving the BMT update off the battery shrinks it ~6.5x.
        let ratio =
            per_entry_drain_energy(SchemeKind::Bcm) / per_entry_drain_energy(SchemeKind::Cm);
        assert!(ratio > 5.0 && ratio < 10.0, "got {ratio}");
    }

    #[test]
    fn table_v_volumes_within_tolerance() {
        // Paper values (mm³, SuperCap, 32 entries): COBCM 4.89,
        // OBCM 4.82, BCM 4.72, NoGap 0.28, BBB 0.07.
        let check = |s, expect: f64, tol: f64| {
            let v = BatteryTech::SuperCap.volume_mm3(secpb_drain_energy(s, 32));
            assert!(
                (v - expect).abs() / expect < tol,
                "{s:?}: got {v:.3} mm³, paper {expect}"
            );
        };
        check(SchemeKind::Cobcm, 4.89, 0.05);
        check(SchemeKind::Obcm, 4.82, 0.05);
        check(SchemeKind::Bcm, 4.72, 0.05);
        check(SchemeKind::NoGap, 0.28, 0.35);
        check(SchemeKind::Bbb, 0.07, 0.15);
    }

    #[test]
    fn eadr_matches_table_v() {
        // 149.32 mm³ SuperCap / 1.49 mm³ Li-Thin.
        let v = BatteryTech::SuperCap.volume_mm3(eadr_energy());
        assert!((v - 149.32).abs() < 2.0, "got {v}");
        let li = BatteryTech::LiThin.volume_mm3(eadr_energy());
        assert!((li - 1.49).abs() < 0.05, "got {li}");
    }

    #[test]
    fn secure_eadr_dwarfs_every_secpb_scheme() {
        let seadr = secure_eadr_energy();
        for s in SchemeKind::ALL {
            let ratio = seadr / secpb_drain_energy(s, 32);
            assert!(ratio > 100.0, "{s:?}: only {ratio}x");
        }
    }

    #[test]
    fn battery_scales_linearly_with_entries() {
        // Table VI: doubling the SecPB roughly doubles the battery.
        for s in [SchemeKind::Cobcm, SchemeKind::NoGap] {
            let e32 = secpb_drain_energy(s, 32);
            let e64 = secpb_drain_energy(s, 64);
            let ratio = e64 / e32;
            assert!(ratio > 1.8 && ratio < 2.1, "{s:?}: {ratio}");
        }
    }

    #[test]
    fn budget_truncation_is_exact_and_saturating() {
        for s in SchemeKind::ALL {
            let per = per_entry_drain_energy(s);
            // A budget of exactly 7 entries (with float headroom) drains 7;
            // a hair under 7 drains 6.
            assert_eq!(entries_within_budget(per, per * 7.0 * (1.0 + 1e-12)), 7);
            assert_eq!(entries_within_budget(per, per * 6.999), 6);
            assert_eq!(entries_within_budget(per, 0.0), 0);
            assert_eq!(entries_within_budget(per, -1.0), 0);
            assert_eq!(entries_within_budget(per, f64::NAN), 0);
        }
        let bbb = per_entry_drain_energy(SchemeKind::Bbb);
        assert_eq!(
            entries_within_budget(bbb, f64::INFINITY),
            0,
            "non-finite budgets are rejected, not treated as unlimited"
        );
        // Lazier schemes drain fewer entries from the same battery.
        let budget = secpb_drain_energy(SchemeKind::Cobcm, 32);
        assert!(
            entries_within_budget(per_entry_drain_energy(SchemeKind::NoGap), budget)
                > entries_within_budget(per_entry_drain_energy(SchemeKind::Cobcm), budget)
        );
    }

    #[test]
    fn table_vi_extremes() {
        // 512-entry COBCM ≈ 76.1 mm³ SuperCap; 512-entry NoGap ≈ 4.35 mm³.
        let cobcm = BatteryTech::SuperCap.volume_mm3(secpb_drain_energy(SchemeKind::Cobcm, 512));
        assert!((cobcm - 76.1).abs() / 76.1 < 0.05, "got {cobcm}");
        let nogap = BatteryTech::SuperCap.volume_mm3(secpb_drain_energy(SchemeKind::NoGap, 512));
        assert!((nogap - 4.35).abs() / 4.35 < 0.1, "got {nogap}");
    }
}
