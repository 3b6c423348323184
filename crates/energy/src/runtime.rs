//! Converting *measured* crash-drain work into joules.
//!
//! The battery is provisioned for the worst case ([`crate::drain`]); the
//! system model reports what a crash actually cost.  Comparing the two
//! shows the provisioning headroom — the measured energy must never
//! exceed the provisioned energy, which the integration tests assert.

use secpb_core::crash::DrainWork;
use secpb_sim::addr::BLOCK_SIZE;

use crate::constants::{
    AES192_PER_BYTE, MOVE_MC_TO_PM_PER_BYTE, MOVE_PB_TO_PM_PER_BYTE, SHA512_PER_BYTE,
};

/// Joules consumed by the work a crash drain reported, priced with
/// Table III.
pub fn measured_energy(w: &DrainWork) -> f64 {
    let block = BLOCK_SIZE as f64;
    w.bytes_pb_to_mc as f64 * MOVE_PB_TO_PM_PER_BYTE
        + w.bytes_mc_to_pm as f64 * MOVE_MC_TO_PM_PER_BYTE
        + w.counter_fetches as f64 * block * MOVE_MC_TO_PM_PER_BYTE
        + w.bmt_node_fetches as f64 * block * MOVE_MC_TO_PM_PER_BYTE
        + w.bmt_node_hashes as f64 * block * SHA512_PER_BYTE
        + w.otps as f64 * block * AES192_PER_BYTE
        + w.macs as f64 * block * SHA512_PER_BYTE
    // Ciphertext XORs cost nothing (assumption 6).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain::per_entry_drain_energy;
    use secpb_core::scheme::Scheme;

    #[test]
    fn empty_work_costs_nothing() {
        assert_eq!(measured_energy(&DrainWork::default()), 0.0);
    }

    #[test]
    fn one_full_cobcm_entry_close_to_worst_case() {
        // Worst-case assumptions: counter fetch misses, 8 BMT node
        // fetches + hashes, one OTP, one MAC.
        let w = DrainWork {
            entries: 1,
            bytes_pb_to_mc: 65,
            bytes_mc_to_pm: 0,
            counter_fetches: 1,
            bmt_node_hashes: 8,
            bmt_node_fetches: 8,
            otps: 1,
            macs: 1,
            ciphertexts: 1,
        };
        let measured = measured_energy(&w);
        let provisioned = per_entry_drain_energy(Scheme::Cobcm);
        assert!(
            measured <= provisioned * 1.001,
            "{measured} > {provisioned}"
        );
        assert!(
            measured > provisioned * 0.95,
            "should be close to worst case"
        );
    }

    #[test]
    fn xors_are_free() {
        let a = DrainWork {
            ciphertexts: 0,
            ..DrainWork::default()
        };
        let b = DrainWork {
            ciphertexts: 1_000_000,
            ..DrainWork::default()
        };
        assert_eq!(measured_energy(&a), measured_energy(&b));
    }

    #[test]
    fn energy_is_monotone_in_every_component() {
        let base = DrainWork {
            entries: 1,
            bytes_pb_to_mc: 64,
            bytes_mc_to_pm: 64,
            counter_fetches: 1,
            bmt_node_hashes: 1,
            bmt_node_fetches: 1,
            otps: 1,
            macs: 1,
            ciphertexts: 0,
        };
        let e0 = measured_energy(&base);
        for bump in [
            DrainWork {
                bytes_pb_to_mc: 128,
                ..base
            },
            DrainWork {
                bytes_mc_to_pm: 128,
                ..base
            },
            DrainWork {
                counter_fetches: 2,
                ..base
            },
            DrainWork {
                bmt_node_hashes: 2,
                ..base
            },
            DrainWork {
                bmt_node_fetches: 2,
                ..base
            },
            DrainWork { otps: 2, ..base },
            DrainWork { macs: 2, ..base },
        ] {
            assert!(measured_energy(&bump) > e0);
        }
    }
}
