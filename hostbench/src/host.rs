//! Host-speed calibration.
//!
//! Co-tenants on a shared host slow this benchmark down by up to ~40%, in
//! stretches from seconds to longer than a whole run, and every time
//! measured meanwhile reads slow together: set-up, replay and recovery
//! alike.  So a calibration pass runs after every unit of work: a fixed
//! loop of integer mixing and random read-modify-writes over an 8 MiB
//! table, sharing no code with the simulator.  The mean of the passes on
//! either side of a unit, relative to the nominal time below, is how slow
//! the host was while that unit ran, and the unit's times and rates are
//! rescaled by it.  A change to the simulator moves the simulator's times
//! but not the calibration pass.

use std::time::Instant;

/// Median seconds of one calibration pass on the 2-vCPU host the
/// benchmark was tuned on: the speed every calibrated figure is quoted
/// at.
const NOMINAL_PASS_S: f64 = 0.0109;

/// Words in the calibration table (8 MiB: beyond the private caches).
const TABLE_WORDS: usize = 1 << 20;

/// Read-modify-writes per pass.
const STEPS: u32 = 2_000_000;

/// The calibration passes of one run.
#[derive(Default)]
pub struct Calibration {
    passes: Vec<f64>,
}

impl Calibration {
    /// Runs a pass right after a unit of work and returns that unit's
    /// slowdown: the mean time of the passes on either side of it (only
    /// this one for the first unit) over the nominal time.  1.0 is
    /// nominal speed, 1.3 is 30% slower.
    pub fn after_unit(&mut self) -> f64 {
        let now = pass();
        let around = match self.passes.last() {
            Some(before) => (before + now) / 2.0,
            None => now,
        };
        self.passes.push(now);
        around / NOMINAL_PASS_S
    }

    /// Prints every pass time as one JSON line.
    pub fn report(&self) {
        println!("{{\"calibration\": {{\"passes\": {:?}}}}}", self.passes);
    }
}

/// Runs and times one pass.  The table is allocated (and touched) before
/// timing and freed after, so it never adds to the peak memory of a unit
/// of work.
fn pass() -> f64 {
    let mut table = vec![1u64; TABLE_WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (TABLE_WORDS - 1);
        table[i] = table[i].wrapping_add(x).rotate_left(5);
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}
