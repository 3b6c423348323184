//! Instruments for the traced run: spans around the public calls, a
//! per-step timer that splits host time by trace-item kind, and crypto
//! kernel floors timed in isolation.
//!
//! Nothing here runs during an end-to-end (untraced) run.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use secpb_core::system::SecureSystem;
use secpb_crypto::hmac::HmacSha512;
use secpb_crypto::sha512::Digest;
use secpb_crypto::{Aes, BonsaiMerkleTree, CipherBackend, CryptoBackend};
use secpb_sim::config::SystemConfig;
use secpb_sim::trace::TraceItem;

use crate::summary;

/// One closed span: a named interval and the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out once, when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already-closed interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Writes one JSON object per span (`id`, `name`, `parent`,
    /// `start_ns`, `end_ns`, relative to the run's start).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Host time of single `step` calls, split by what the item does.
/// Per-step spans would number in the millions, so steps aggregate here
/// and only store latencies keep every sample (for p50/p99).
#[derive(Default)]
pub struct StepProfile {
    pub load_ns: u64,
    pub loads: u64,
    pub store_ns: u64,
    pub store_samples: Vec<u64>,
    pub compute_ns: u64,
}

impl StepProfile {
    pub fn step(&mut self, sys: &mut SecureSystem, item: TraceItem) {
        let t = Instant::now();
        sys.step(item);
        let ns = t.elapsed().as_nanos() as u64;
        match item.access {
            Some(a) if a.is_store() => {
                self.store_ns += ns;
                self.store_samples.push(ns);
            }
            Some(_) => {
                self.load_ns += ns;
                self.loads += 1;
            }
            None => self.compute_ns += ns,
        }
    }

    /// All step time, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.load_ns + self.store_ns + self.compute_ns
    }

    pub fn mean_load_ns(&self) -> f64 {
        ratio(self.load_ns as f64, self.loads as f64)
    }

    pub fn mean_store_ns(&self) -> f64 {
        ratio(self.store_ns as f64, self.store_samples.len() as f64)
    }

    pub fn store_percentile(&mut self, p: f64) -> f64 {
        if self.store_samples.is_empty() {
            return 0.0;
        }
        summary::percentile(&mut self.store_samples, p) as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Crypto kernel floors, each the median of several timed batches.
pub struct KernelFloors {
    pub aes_block_ns: f64,
    pub hmac64_ns: f64,
    pub bmt_update_ns: f64,
}

/// Times `op` over `iters` calls, seven times; the median ns per call.
fn floor_ns(iters: u32, mut op: impl FnMut(u32)) -> f64 {
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    summary::median(&reps)
}

/// The public crypto kernels the simulator's metadata engine calls, timed
/// in isolation: one AES-128 block through the backend the simulator
/// resolves by default, one HMAC-SHA-512 over a 64-byte counter block,
/// and one eager leaf-to-root Bonsai Merkle tree update at the default
/// height (arity 8, as the simulator builds it).
pub fn kernel_floors() -> KernelFloors {
    let backend = CryptoBackend::auto();
    let aes = Aes::new_128(&[0x5E; 16]);
    let mut blocks = [[0u8; 16]; 64];
    let aes_batch_ns = floor_ns(2_000, |i| {
        blocks[0][0] = i as u8;
        backend.encrypt_batch(&aes, std::hint::black_box(&mut blocks));
    });

    let hmac = HmacSha512::new(b"hostbench-hmac-key");
    let mut msg = [0u8; 64];
    let hmac64_ns = floor_ns(20_000, |i| {
        msg[..4].copy_from_slice(&i.to_le_bytes());
        std::hint::black_box(hmac.compute(std::hint::black_box(&msg)));
    });

    let levels = SystemConfig::default().security.bmt_levels;
    let mut tree = BonsaiMerkleTree::new(b"hostbench-bmt-key", 8, levels);
    let capacity = tree.capacity();
    let bmt_update_ns = floor_ns(2_000, |i| {
        let leaf = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % capacity;
        std::hint::black_box(tree.update_leaf(leaf, Digest([i as u8; 64])));
    });

    KernelFloors {
        aes_block_ns: aes_batch_ns / blocks.len() as f64,
        hmac64_ns,
        bmt_update_ns,
    }
}
