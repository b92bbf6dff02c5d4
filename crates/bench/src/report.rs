//! Wall-clock accounting for experiment cells and the `harness bench`
//! report (`BENCH_harness.json`).
//!
//! Every cell the experiment engine runs (see [`crate::experiments`])
//! records its wall-clock time and headline simulation counters here. The
//! `harness bench` subcommand drains these records after a timed run and
//! serializes them — together with an AES fast-path microbenchmark and the
//! serial-vs-parallel engine comparison — as a small, dependency-free JSON
//! document. Schema:
//!
//! ```json
//! {
//!   "schema": "fsencr-bench-harness/6",
//!   "host_parallelism": 4,
//!   "jobs": 4,
//!   "scale": 0.05,
//!   "aes": {
//!     "ttable_blocks_per_sec": 1.0e7,
//!     "reference_blocks_per_sec": 2.0e6,
//!     "speedup": 5.0
//!   },
//!   "digest": {
//!     "line_hashes_per_sec": 8.0e6,
//!     "streaming_hashes_per_sec": 4.0e6,
//!     "speedup": 2.0
//!   },
//!   "pad": {
//!     "cached_pads_per_sec": 3.0e6,
//!     "uncached_pads_per_sec": 1.0e6,
//!     "speedup": 3.0
//!   },
//!   "metadata": {
//!     "memo_digests_per_sec": 2.0e7,
//!     "rehash_digests_per_sec": 2.0e6,
//!     "speedup": 10.0,
//!     "memo_persists_per_sec": 1.0e6,
//!     "rehash_persists_per_sec": 0.7e6,
//!     "persist_speedup": 1.43
//!   },
//!   "batch": {
//!     "quad_pads_per_sec": 8.0e6,
//!     "single_pads_per_sec": 4.0e6,
//!     "pad_speedup": 2.0,
//!     "batched_reads_per_sec": 2.0e5,
//!     "looped_reads_per_sec": 1.5e5,
//!     "read_speedup": 1.33
//!   },
//!   "merkle": {
//!     "lane_digests_per_sec": 1.6e7,
//!     "oneshot_digests_per_sec": 8.0e6,
//!     "lanes_speedup": 2.0,
//!     "batched_verifies_per_sec": 4.0e5,
//!     "looped_verifies_per_sec": 2.0e5,
//!     "verify_speedup": 2.0,
//!     "batched_persists_per_sec": 3.0e5,
//!     "looped_persists_per_sec": 2.0e5,
//!     "persist_speedup": 1.5
//!   },
//!   "ecc": {
//!     "streaming_tags_per_sec": 8.0e5,
//!     "quad_tags_per_sec": 5.0e6,
//!     "speedup": 6.25
//!   },
//!   "snapshot": {
//!     "cold_setup_wall_s": 0.8,
//!     "restore_wall_s": 0.1,
//!     "speedup": 8.0,
//!     "snapshot_bytes": 1048576
//!   },
//!   "engine": {
//!     "serial_wall_s": 10.0,
//!     "parallel_wall_s": 3.0,
//!     "speedup": 3.33,
//!     "cells": [
//!       {
//!         "workload": "YCSB", "mode": "fsencr", "wall_s": 0.5,
//!         "sim_cycles": 123, "nvm_lines": 456,
//!         "sim_lines_per_sec": 912.0
//!       }
//!     ]
//!   }
//! }
//! ```

use std::sync::Mutex;
use std::time::Duration;

use fsencr::machine::{RunStats, SecurityMode};
use fsencr_sim::stats::per_second;

/// One completed experiment cell: a single workload × mode simulation.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Workload label (row name the figure uses).
    pub workload: String,
    /// Security mode the cell ran under.
    pub mode: String,
    /// Host wall-clock the simulation took.
    pub wall: Duration,
    /// Simulated cycles covered by the measurement window.
    pub sim_cycles: u64,
    /// Simulated NVM line transfers (reads + writes).
    pub nvm_lines: u64,
}

impl CellRecord {
    /// Simulated NVM lines processed per host second — the engine's
    /// simulation throughput for this cell.
    pub fn sim_lines_per_sec(&self) -> f64 {
        per_second(self.nvm_lines, self.wall)
    }
}

static RECORDS: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());

/// Appends one cell record (called by the experiment engine).
pub(crate) fn record_cell(workload: &str, mode: SecurityMode, wall: Duration, stats: &RunStats) {
    RECORDS.lock().expect("record lock poisoned").push(CellRecord {
        workload: workload.to_string(),
        mode: mode.to_string(),
        wall,
        sim_cycles: stats.cycles,
        nvm_lines: stats.nvm_reads + stats.nvm_writes,
    });
}

/// Drains every cell recorded since the previous call (records are kept
/// in completion order; sort before relying on ordering).
pub fn take_cell_records() -> Vec<CellRecord> {
    std::mem::take(&mut RECORDS.lock().expect("record lock poisoned"))
}

/// AES microbenchmark results: T-table hot path vs byte-wise reference.
#[derive(Debug, Clone, Copy)]
pub struct AesThroughput {
    /// `Aes128::encrypt_block` blocks per second.
    pub ttable_blocks_per_sec: f64,
    /// `Aes128::encrypt_block_ref` blocks per second.
    pub reference_blocks_per_sec: f64,
}

impl AesThroughput {
    /// Fast path over reference speedup.
    pub fn speedup(&self) -> f64 {
        if self.reference_blocks_per_sec <= 0.0 {
            0.0
        } else {
            self.ttable_blocks_per_sec / self.reference_blocks_per_sec
        }
    }
}

/// Line-digest microbenchmark: the one-shot 64-byte fast path against
/// the streaming hasher it bypasses.
#[derive(Debug, Clone, Copy)]
pub struct DigestThroughput {
    /// `sha256_line` hashes per second.
    pub line_hashes_per_sec: f64,
    /// Streaming `sha256` hashes of the same 64-byte input per second.
    pub streaming_hashes_per_sec: f64,
}

impl DigestThroughput {
    /// Fast path over streaming speedup.
    pub fn speedup(&self) -> f64 {
        if self.streaming_hashes_per_sec <= 0.0 {
            0.0
        } else {
            self.line_hashes_per_sec / self.streaming_hashes_per_sec
        }
    }
}

/// CTR pad-generation microbenchmark: reusing a cached AES key schedule
/// against re-expanding the key for every 64-byte pad.
#[derive(Debug, Clone, Copy)]
pub struct PadThroughput {
    /// `line_pad_with` (cached schedule) pads per second.
    pub cached_pads_per_sec: f64,
    /// `line_pad` (fresh key expansion) pads per second.
    pub uncached_pads_per_sec: f64,
}

impl PadThroughput {
    /// Cached over uncached speedup.
    pub fn speedup(&self) -> f64 {
        if self.uncached_pads_per_sec <= 0.0 {
            0.0
        } else {
            self.cached_pads_per_sec / self.uncached_pads_per_sec
        }
    }
}

/// Metadata-system microbenchmark, two granularities of the same memoized
/// line-digest path. The *digest* pair times `trusted_line_digest` — the
/// exact call parent-digest write-backs make — with the memo serving hits
/// against the memo disabled (every call re-hashes). The *persist* pair
/// times full `persist_block` round trips of unchanged content, where the
/// digest saving is diluted by the simulated NVM write and cache
/// bookkeeping that surround it.
#[derive(Debug, Clone, Copy)]
pub struct MetaThroughput {
    /// `trusted_line_digest` calls per second with the memo serving hits.
    pub memo_digests_per_sec: f64,
    /// The same calls with the memo disabled (every call re-hashes).
    pub rehash_digests_per_sec: f64,
    /// `persist_block` calls per second with the digest memo enabled.
    pub memo_persists_per_sec: f64,
    /// The same call sequence with the memo disabled (every parent bump
    /// re-hashes the line).
    pub rehash_persists_per_sec: f64,
}

impl MetaThroughput {
    /// Memo-hit over re-hash speedup on the line-digest path itself.
    pub fn speedup(&self) -> f64 {
        if self.rehash_digests_per_sec <= 0.0 {
            0.0
        } else {
            self.memo_digests_per_sec / self.rehash_digests_per_sec
        }
    }

    /// Memoized over re-hashing speedup of the end-to-end persist path.
    pub fn persist_speedup(&self) -> f64 {
        if self.rehash_persists_per_sec <= 0.0 {
            0.0
        } else {
            self.memo_persists_per_sec / self.rehash_persists_per_sec
        }
    }
}

/// Batched-datapath microbenchmark: the two host-side wins of the
/// page-batched fast path. The *pad* pair times `ctr_pads_n` four lanes
/// at a time against one pad per call over the same cached schedule. The
/// *read* pair times a full-page `MemoryController::read_lines` region
/// read against the equivalent per-line `read_line` loop — same
/// simulated cycles, different host work (counter-block re-parses and
/// schedule-cache probes amortized across the run).
#[derive(Debug, Clone, Copy)]
pub struct BatchThroughput {
    /// `ctr_pads_n` pads per second, four lanes per call.
    pub quad_pads_per_sec: f64,
    /// `ctr_pads_n` pads per second, one lane per call.
    pub single_pads_per_sec: f64,
    /// `read_lines` lines per second over a 64-line page.
    pub batched_reads_per_sec: f64,
    /// Looped `read_line` lines per second over the same page.
    pub looped_reads_per_sec: f64,
}

impl BatchThroughput {
    /// Four-lane over single-lane pad-generation speedup.
    pub fn pad_speedup(&self) -> f64 {
        if self.single_pads_per_sec <= 0.0 {
            0.0
        } else {
            self.quad_pads_per_sec / self.single_pads_per_sec
        }
    }

    /// Region-read over per-line-loop speedup.
    pub fn read_speedup(&self) -> f64 {
        if self.looped_reads_per_sec <= 0.0 {
            0.0
        } else {
            self.batched_reads_per_sec / self.looped_reads_per_sec
        }
    }
}

/// Batched Merkle-engine microbenchmark: the three host-side wins of the
/// shared-ancestor batch planner. The *lane* pair times the interleaved
/// [`digest8_lines4`](fsencr_crypto::digest8_lines4) kernel against the
/// same four digests via one-shot calls. The *verify* pair times a
/// 64-line `MetadataSystem::verify_lines` region from cold post-crash
/// state against the equivalent chained `read_block` loop — identical
/// simulated cycles, but the loop re-hashes every shared ancestor per
/// climb while the batch plans each once. The *persist* pair times
/// `persist_blocks` over freshly dirtied leaves against the per-line
/// `persist_block` loop.
#[derive(Debug, Clone, Copy)]
pub struct MerkleThroughput {
    /// `digest8_lines4` digests per second (four lanes per call).
    pub lane_digests_per_sec: f64,
    /// The same digests via one-shot `digest8_line` calls, per second.
    pub oneshot_digests_per_sec: f64,
    /// `verify_lines` lines per second over cold 64-line regions.
    pub batched_verifies_per_sec: f64,
    /// Chained per-line `read_block` lines per second, same regions.
    pub looped_verifies_per_sec: f64,
    /// `persist_blocks` lines per second over dirty 64-line regions.
    pub batched_persists_per_sec: f64,
    /// Per-line `persist_block` lines per second, same regions.
    pub looped_persists_per_sec: f64,
}

impl MerkleThroughput {
    /// Four-lane over one-shot digest speedup.
    pub fn lanes_speedup(&self) -> f64 {
        if self.oneshot_digests_per_sec <= 0.0 {
            0.0
        } else {
            self.lane_digests_per_sec / self.oneshot_digests_per_sec
        }
    }

    /// Batched over per-line region-verify speedup.
    pub fn verify_speedup(&self) -> f64 {
        if self.looped_verifies_per_sec <= 0.0 {
            0.0
        } else {
            self.batched_verifies_per_sec / self.looped_verifies_per_sec
        }
    }

    /// Batched over per-line region-persist speedup.
    pub fn persist_speedup(&self) -> f64 {
        if self.looped_persists_per_sec <= 0.0 {
            0.0
        } else {
            self.batched_persists_per_sec / self.looped_persists_per_sec
        }
    }
}

/// Osiris ECC-tag microbenchmark: the tag every line write stores,
/// SHA-256(plaintext ‖ line address)[..8]. The *quad* side runs the
/// four-lane [`digest8_line_tails4`](fsencr_crypto::digest8_line_tails4)
/// kernel `EccStore` hashes its pending quads with; the *streaming* side
/// computes the same tags through the buffered streaming hasher.
#[derive(Debug, Clone, Copy)]
pub struct EccThroughput {
    /// Streaming `sha256` tags of 72-byte `line ‖ address` messages per
    /// second.
    pub streaming_tags_per_sec: f64,
    /// `digest8_line_tails4` tags per second (four lanes per call).
    pub quad_tags_per_sec: f64,
}

impl EccThroughput {
    /// Four-lane kernel over streaming-hasher speedup.
    pub fn speedup(&self) -> f64 {
        if self.streaming_tags_per_sec <= 0.0 {
            0.0
        } else {
            self.quad_tags_per_sec / self.streaming_tags_per_sec
        }
    }
}

/// Snapshot-subsystem microbenchmark: the warm-start win. The *cold*
/// side simulates a representative setup phase in process; the *restore*
/// side rebuilds the identical machine from its `fsencr-snap/1` image.
/// Both machines are bit-identical afterwards (the snapshot round-trip
/// theorem), so the wall-clock gap is pure saved simulation.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotThroughput {
    /// Wall-clock of the in-process setup simulation.
    pub cold_setup_wall: Duration,
    /// Wall-clock of restoring the equivalent snapshot.
    pub restore_wall: Duration,
    /// Encoded snapshot size in bytes.
    pub snapshot_bytes: u64,
}

impl SnapshotThroughput {
    /// Cold-setup over restore wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        let r = self.restore_wall.as_secs_f64();
        if r <= 0.0 {
            0.0
        } else {
            self.cold_setup_wall.as_secs_f64() / r
        }
    }
}

/// Everything `harness bench` measures.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Worker threads the parallel run used.
    pub jobs: usize,
    /// `std::thread::available_parallelism` on this host.
    pub host_parallelism: usize,
    /// Experiment scale the engine comparison ran at.
    pub scale: f64,
    /// AES fast-path microbenchmark.
    pub aes: AesThroughput,
    /// Line-digest fast-path microbenchmark.
    pub digest: DigestThroughput,
    /// CTR pad schedule-cache microbenchmark.
    pub pad: PadThroughput,
    /// Metadata-system digest-memo microbenchmark.
    pub meta: MetaThroughput,
    /// Batched-datapath microbenchmark.
    pub batch: BatchThroughput,
    /// Batched Merkle-engine microbenchmark.
    pub merkle: MerkleThroughput,
    /// Osiris ECC-tag microbenchmark.
    pub ecc: EccThroughput,
    /// Snapshot restore-vs-setup microbenchmark.
    pub snap: SnapshotThroughput,
    /// Wall-clock of the serial (`jobs = 1`) engine run.
    pub serial_wall: Duration,
    /// Wall-clock of the parallel engine run.
    pub parallel_wall: Duration,
    /// Per-cell records from the parallel run.
    pub cells: Vec<CellRecord>,
}

impl BenchReport {
    /// Serial over parallel wall-clock speedup.
    pub fn engine_speedup(&self) -> f64 {
        let p = self.parallel_wall.as_secs_f64();
        if p <= 0.0 {
            0.0
        } else {
            self.serial_wall.as_secs_f64() / p
        }
    }

    /// Renders the report as the `BENCH_harness.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push_str(",\n");
            }
            cells.push_str(&format!(
                "      {{\"workload\": {}, \"mode\": {}, \"wall_s\": {}, \"sim_cycles\": {}, \"nvm_lines\": {}, \"sim_lines_per_sec\": {}}}",
                json_string(&c.workload),
                json_string(&c.mode),
                json_f64(c.wall.as_secs_f64()),
                c.sim_cycles,
                c.nvm_lines,
                json_f64(c.sim_lines_per_sec()),
            ));
        }
        format!(
            "{{\n  \"schema\": \"fsencr-bench-harness/6\",\n  \"host_parallelism\": {},\n  \"jobs\": {},\n  \"scale\": {},\n  \"aes\": {{\n    \"ttable_blocks_per_sec\": {},\n    \"reference_blocks_per_sec\": {},\n    \"speedup\": {}\n  }},\n  \"digest\": {{\n    \"line_hashes_per_sec\": {},\n    \"streaming_hashes_per_sec\": {},\n    \"speedup\": {}\n  }},\n  \"pad\": {{\n    \"cached_pads_per_sec\": {},\n    \"uncached_pads_per_sec\": {},\n    \"speedup\": {}\n  }},\n  \"metadata\": {{\n    \"memo_digests_per_sec\": {},\n    \"rehash_digests_per_sec\": {},\n    \"speedup\": {},\n    \"memo_persists_per_sec\": {},\n    \"rehash_persists_per_sec\": {},\n    \"persist_speedup\": {}\n  }},\n  \"batch\": {{\n    \"quad_pads_per_sec\": {},\n    \"single_pads_per_sec\": {},\n    \"pad_speedup\": {},\n    \"batched_reads_per_sec\": {},\n    \"looped_reads_per_sec\": {},\n    \"read_speedup\": {}\n  }},\n  \"merkle\": {{\n    \"lane_digests_per_sec\": {},\n    \"oneshot_digests_per_sec\": {},\n    \"lanes_speedup\": {},\n    \"batched_verifies_per_sec\": {},\n    \"looped_verifies_per_sec\": {},\n    \"verify_speedup\": {},\n    \"batched_persists_per_sec\": {},\n    \"looped_persists_per_sec\": {},\n    \"persist_speedup\": {}\n  }},\n  \"ecc\": {{\n    \"streaming_tags_per_sec\": {},\n    \"quad_tags_per_sec\": {},\n    \"speedup\": {}\n  }},\n  \"snapshot\": {{\n    \"cold_setup_wall_s\": {},\n    \"restore_wall_s\": {},\n    \"speedup\": {},\n    \"snapshot_bytes\": {}\n  }},\n  \"engine\": {{\n    \"serial_wall_s\": {},\n    \"parallel_wall_s\": {},\n    \"speedup\": {},\n    \"cells\": [\n{}\n    ]\n  }}\n}}\n",
            self.host_parallelism,
            self.jobs,
            json_f64(self.scale),
            json_f64(self.aes.ttable_blocks_per_sec),
            json_f64(self.aes.reference_blocks_per_sec),
            json_f64(self.aes.speedup()),
            json_f64(self.digest.line_hashes_per_sec),
            json_f64(self.digest.streaming_hashes_per_sec),
            json_f64(self.digest.speedup()),
            json_f64(self.pad.cached_pads_per_sec),
            json_f64(self.pad.uncached_pads_per_sec),
            json_f64(self.pad.speedup()),
            json_f64(self.meta.memo_digests_per_sec),
            json_f64(self.meta.rehash_digests_per_sec),
            json_f64(self.meta.speedup()),
            json_f64(self.meta.memo_persists_per_sec),
            json_f64(self.meta.rehash_persists_per_sec),
            json_f64(self.meta.persist_speedup()),
            json_f64(self.batch.quad_pads_per_sec),
            json_f64(self.batch.single_pads_per_sec),
            json_f64(self.batch.pad_speedup()),
            json_f64(self.batch.batched_reads_per_sec),
            json_f64(self.batch.looped_reads_per_sec),
            json_f64(self.batch.read_speedup()),
            json_f64(self.merkle.lane_digests_per_sec),
            json_f64(self.merkle.oneshot_digests_per_sec),
            json_f64(self.merkle.lanes_speedup()),
            json_f64(self.merkle.batched_verifies_per_sec),
            json_f64(self.merkle.looped_verifies_per_sec),
            json_f64(self.merkle.verify_speedup()),
            json_f64(self.merkle.batched_persists_per_sec),
            json_f64(self.merkle.looped_persists_per_sec),
            json_f64(self.merkle.persist_speedup()),
            json_f64(self.ecc.streaming_tags_per_sec),
            json_f64(self.ecc.quad_tags_per_sec),
            json_f64(self.ecc.speedup()),
            json_f64(self.snap.cold_setup_wall.as_secs_f64()),
            json_f64(self.snap.restore_wall.as_secs_f64()),
            json_f64(self.snap.speedup()),
            self.snap.snapshot_bytes,
            json_f64(self.serial_wall.as_secs_f64()),
            json_f64(self.parallel_wall.as_secs_f64()),
            json_f64(self.engine_speedup()),
            cells,
        )
    }
}

/// Formats an `f64` as a JSON number (finite; NaN/inf degrade to 0).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Enough digits to round-trip the interesting range without
        // printing `1e20`-style exponents JSON consumers dislike least.
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            jobs: 4,
            host_parallelism: 8,
            scale: 0.05,
            aes: AesThroughput {
                ttable_blocks_per_sec: 4.0e6,
                reference_blocks_per_sec: 1.0e6,
            },
            digest: DigestThroughput {
                line_hashes_per_sec: 8.0e6,
                streaming_hashes_per_sec: 4.0e6,
            },
            pad: PadThroughput {
                cached_pads_per_sec: 3.0e6,
                uncached_pads_per_sec: 1.0e6,
            },
            meta: MetaThroughput {
                memo_digests_per_sec: 2.0e7,
                rehash_digests_per_sec: 2.0e6,
                memo_persists_per_sec: 1.0e6,
                rehash_persists_per_sec: 0.8e6,
            },
            batch: BatchThroughput {
                quad_pads_per_sec: 8.0e6,
                single_pads_per_sec: 4.0e6,
                batched_reads_per_sec: 3.0e5,
                looped_reads_per_sec: 1.5e5,
            },
            merkle: MerkleThroughput {
                lane_digests_per_sec: 1.6e7,
                oneshot_digests_per_sec: 8.0e6,
                batched_verifies_per_sec: 4.0e5,
                looped_verifies_per_sec: 2.0e5,
                batched_persists_per_sec: 3.0e5,
                looped_persists_per_sec: 2.0e5,
            },
            ecc: EccThroughput {
                streaming_tags_per_sec: 1.0e6,
                quad_tags_per_sec: 6.0e6,
            },
            snap: SnapshotThroughput {
                cold_setup_wall: Duration::from_millis(800),
                restore_wall: Duration::from_millis(100),
                snapshot_bytes: 1 << 20,
            },
            serial_wall: Duration::from_millis(900),
            parallel_wall: Duration::from_millis(300),
            cells: vec![CellRecord {
                workload: "YCSB \"zipf\"".to_string(),
                mode: "fsencr".to_string(),
                wall: Duration::from_millis(250),
                sim_cycles: 1000,
                nvm_lines: 500,
            }],
        }
    }

    #[test]
    fn speedups_are_ratios() {
        let r = sample_report();
        assert!((r.aes.speedup() - 4.0).abs() < 1e-9);
        assert!((r.digest.speedup() - 2.0).abs() < 1e-9);
        assert!((r.pad.speedup() - 3.0).abs() < 1e-9);
        assert!((r.meta.speedup() - 10.0).abs() < 1e-9);
        assert!((r.meta.persist_speedup() - 1.25).abs() < 1e-9);
        assert!((r.batch.pad_speedup() - 2.0).abs() < 1e-9);
        assert!((r.batch.read_speedup() - 2.0).abs() < 1e-9);
        assert!((r.merkle.lanes_speedup() - 2.0).abs() < 1e-9);
        assert!((r.merkle.verify_speedup() - 2.0).abs() < 1e-9);
        assert!((r.merkle.persist_speedup() - 1.5).abs() < 1e-9);
        assert!((r.ecc.speedup() - 6.0).abs() < 1e-9);
        assert!((r.snap.speedup() - 8.0).abs() < 1e-9);
        assert!((r.engine_speedup() - 3.0).abs() < 1e-9);
        assert_eq!(r.cells[0].sim_lines_per_sec(), 2000.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_report().to_json();
        assert!(json.contains("\"schema\": \"fsencr-bench-harness/6\""));
        assert!(json.contains("\"line_hashes_per_sec\""));
        assert!(json.contains("\"cached_pads_per_sec\""));
        assert!(json.contains("\"memo_digests_per_sec\""));
        assert!(json.contains("\"memo_persists_per_sec\""));
        assert!(json.contains("\"quad_pads_per_sec\""));
        assert!(json.contains("\"batched_reads_per_sec\""));
        assert!(json.contains("\"lane_digests_per_sec\""));
        assert!(json.contains("\"batched_verifies_per_sec\""));
        assert!(json.contains("\"batched_persists_per_sec\""));
        assert!(json.contains("\"quad_tags_per_sec\""));
        assert!(json.contains("\"cold_setup_wall_s\""));
        assert!(json.contains("\"snapshot_bytes\": 1048576"));
        assert!(json.contains("\\\"zipf\\\""), "quotes must be escaped: {json}");
        assert!(json.contains("\"speedup\": 4.000000"));
        // Balanced braces/brackets (cheap sanity check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn recorder_drains() {
        // Other tests in this binary may be recording cells concurrently,
        // so only reason about this test's own uniquely-named record.
        let name = "recorder-drains-probe";
        record_cell(
            name,
            SecurityMode::FsEncr,
            Duration::from_millis(1),
            &RunStats::default(),
        );
        let got = take_cell_records();
        assert_eq!(got.iter().filter(|c| c.workload == name).count(), 1);
        let again = take_cell_records();
        assert_eq!(again.iter().filter(|c| c.workload == name).count(), 0);
    }
}
