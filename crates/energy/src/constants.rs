//! Energy constants (Table III of the paper) and battery parameters.
//!
//! All energies are in joules; Table III gives them per byte.

/// Joules per byte: accessing data in SRAM (1 pJ/B).
pub const SRAM_ACCESS_PER_BYTE: f64 = 1e-12;

/// Joules per byte: moving data from the SecPB (or L1D) to PM
/// (11.839 nJ/B).
pub const MOVE_PB_TO_PM_PER_BYTE: f64 = 11.839e-9;

/// Joules per byte: moving data from L2/L3/MC to PM (11.228 nJ/B).
pub const MOVE_MC_TO_PM_PER_BYTE: f64 = 11.228e-9;

/// Joules per byte: one SHA-512 computation (BMT node or MAC, 79.29 nJ/B).
pub const SHA512_PER_BYTE: f64 = 79.29e-9;

/// Joules per byte: AES-192 encryption (OTP generation, 30 nJ/B).
pub const AES192_PER_BYTE: f64 = 30e-9;

/// Energy density of a supercapacitor: 10⁻⁴ Wh per cm³.
pub const SUPERCAP_WH_PER_CM3: f64 = 1e-4;

/// Energy density of a lithium thin-film battery: 10⁻² Wh per cm³.
pub const LI_THIN_WH_PER_CM3: f64 = 1e-2;

/// Footprint area of a client-class core (Section VI-B: 5.37 mm²).
pub const CORE_AREA_MM2: f64 = 5.37;

/// Joules in one watt-hour.
pub const JOULES_PER_WH: f64 = 3600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn table_iii_magnitudes() {
        assert!(MOVE_PB_TO_PM_PER_BYTE > MOVE_MC_TO_PM_PER_BYTE);
        assert!(SHA512_PER_BYTE > AES192_PER_BYTE);
        assert!(SRAM_ACCESS_PER_BYTE < AES192_PER_BYTE);
    }

    #[test]
    fn density_units() {
        // One cm³ of Li-thin holds 100x a supercap's energy.
        assert!((LI_THIN_WH_PER_CM3 / SUPERCAP_WH_PER_CM3 - 100.0).abs() < 1e-9);
    }
}
