//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! harness [--jobs N] [--no-cache] <experiment> [scale]
//!
//! experiments:
//!   fig3        software-encryption overhead (Whisper)
//!   fig8-10     PMEMKV slowdown / writes / reads
//!   fig11       Whisper slowdown / writes / reads + reduction
//!   fig12-14    DAX micro-benchmarks
//!   fig15       metadata-cache sensitivity
//!   table1      vulnerability matrix
//!   params      Table III simulation parameters
//!   list        Table II workload descriptions
//!   bench       engine + crypto self-benchmarks -> BENCH_harness.json
//!   bench-check schema-check an existing BENCH_harness.json
//!   profile <fig> [scale]
//!               cycle-attribution profile of a figure's cells
//!               -> stdout + PROFILE_<fig>.json + PROFILE_<fig>_trace.json
//!   ablation-ott / ablation-osiris / ablation-direct / ablation-partition
//!   all         everything above except bench (slow)
//!   snapshot <save|load|info> [PATH]
//!               save/restore/inspect an fsencr-snap/1 machine image
//! ```
//!
//! `scale` in (0, 1] shrinks operation counts; default 1.0. Run with
//! `--release`.
//!
//! `--jobs N` (or the `FSENCR_JOBS` environment variable) sets how many
//! experiment cells run concurrently; the default is the host's available
//! parallelism. The figures are identical at any worker count — only the
//! wall-clock changes.
//!
//! Figure subcommands memoize their work in the result store `CACHE/`:
//! finished cells (`<key>.cell`, keyed by the full cell specification)
//! and post-setup machine snapshots (`<key>.snap`, keyed by the
//! setup-only parameter subset), so re-running an unchanged figure skips
//! its simulations and a cell that misses still warm-starts past its
//! setup. Every key includes the build's behaviour fingerprint, so a
//! rebuilt simulator never sees an older build's objects. Output is
//! byte-identical either way; `--no-cache` disables the store and
//! `rm -rf CACHE/` empties it.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use fsencr_bench as exp;
use fsencr_bench::jsonio::Json;
use fsencr_bench::store::Kind;
use fsencr::controller::{CtrlMode, MemoryController};
use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_bench::report::{
    AesThroughput, BatchThroughput, BenchReport, DigestThroughput, MerkleThroughput,
    MetaThroughput, PadThroughput, SnapshotThroughput,
};
use fsencr_crypto::{
    ctr_pads_n, digest8_line, digest8_lines4, line_pad, line_pad_with, sha256, sha256_line,
    Aes128, Key128, PadDomain, PadInput,
};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_nvm::{LineAddr, NvmDevice, PageId, PhysAddr};
use fsencr_secmem::{MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};
use fsencr_sim::{Cycle, MachineConfig, SplitMix64};

fn usage() -> ! {
    eprintln!(
        "usage: harness [--jobs N] [--no-cache] <fig3|fig8-10|fig11|fig12-14|fig15|table1|params|list|bench|bench-check|ablation-ott|ablation-osiris|ablation-direct|ablation-partition|all> [scale]\n       harness [--jobs N] profile <fig3|fig8-10|fig11|fig12-14> [scale]\n       harness [--jobs N] faults [--seed N] [--campaign SPEC] [--out PATH]\n       harness snapshot <save|load|info> [PATH] [--seed N] [--pages N] [--mode M]\n\nFigure subcommands reuse cell results and post-setup machine snapshots\nfrom the result store CACHE/ (content-addressed and keyed by the build;\noutput is byte-identical either way). `--no-cache` disables it;\n`rm -rf CACHE/` empties it.\n\n`faults` runs a deterministic fault-injection campaign and writes\nFAULTS_report.json (byte-identical at any --jobs count). SPEC is a\ncomma list like `scenarios=8,ops=64,bitrot=2,torn=1,cuts=1,stuck=1`;\nomitted knobs keep their defaults (`default` for all defaults).\n\n`snapshot save` simulates the reference setup and writes its\nfsencr-snap/1 image (default MACHINE.snap); `load` restores it; `info`\nlists its digest-chained sections without restoring."
    );
    std::process::exit(2);
}

fn params() {
    let cfg = MachineConfig::paper_defaults();
    println!("\n=== Table III: simulation parameters ===");
    println!("CPU: {} cores @ {} MHz, out-of-order x86-64 (modelled request-level)", cfg.cpu.cores, cfg.cpu.freq_mhz);
    for (name, c) in [("L1", cfg.cpu.l1), ("L2", cfg.cpu.l2), ("L3", cfg.cpu.l3)] {
        println!(
            "{name}: {} KiB, {}-way, {}B lines, {} cycles",
            c.size_bytes / 1024,
            c.ways,
            c.block_bytes,
            c.latency_cycles
        );
    }
    let n = cfg.nvm;
    println!(
        "NVM: {} GiB PCM, {} ranks/ch x {} banks, {} B row buffer, read {} ns / write {} ns",
        n.capacity_bytes >> 30,
        n.ranks_per_channel,
        n.banks_per_rank,
        n.row_buffer_bytes,
        n.read_ns,
        n.write_ns
    );
    println!(
        "timing: tRCD {} ns, tCL {} ns, tBURST {} ns, tWR {} ns",
        n.t_rcd_ns, n.t_cl_ns, n.t_burst_ns, n.t_wr_ns
    );
    let s = cfg.security;
    println!(
        "security: AES {} ns, metadata cache {} KiB {}-way, Merkle {}-ary (<= {} levels), OTT {} entries @ {} cycles, Osiris stop-loss {}",
        s.aes_ns,
        s.metadata_cache.size_bytes / 1024,
        s.metadata_cache.ways,
        s.merkle_arity,
        s.merkle_levels,
        s.ott_entries(),
        s.ott_latency_cycles,
        s.osiris_stop_loss
    );
}

fn list() {
    println!("\n=== Table II: benchmark descriptions ===");
    let rows = [
        ("DAX-1", "reads 1 byte after each 16 bytes of a persistent DAX file"),
        ("DAX-2", "reads 1 byte after each 128 bytes of a persistent DAX file"),
        ("DAX-3", "initialises two 16 B arrays at two locations and swaps them"),
        ("DAX-4", "initialises two 128 B arrays at two locations and swaps them"),
        ("Fillseq-S/L", "btree loads values (64 B / 4 KiB) in sequential key order"),
        ("Fillrandom-S/L", "btree loads values in random key order"),
        ("Overwrite-S/L", "btree replaces values in random key order"),
        ("Readrandom-S/L", "btree reads values in random key order"),
        ("Readseq-S/L", "btree reads values via an in-order leaf scan"),
        ("YCSB", "zipfian 50/50 read/update over a persistent hashmap, 2 workers"),
        ("Hashmap", "insert/lookup mix, 128 B records, 2 threads"),
        ("CTree", "insert/lookup mix on a persistent binary tree, 128 B, 2 threads"),
    ];
    for (name, desc) in rows {
        println!("{name:16} {desc}");
    }
}

/// Measures raw single-thread AES block throughput: the T-table hot path
/// against the byte-wise reference it replaced.
fn aes_throughput() -> AesThroughput {
    let aes = Aes128::new(&Key128::from_seed(0x5eed));
    let blocks_per_sec = |f: &dyn Fn([u8; 16]) -> [u8; 16]| {
        let mut block = [0x3cu8; 16];
        // Warm up tables and caches.
        for _ in 0..1_000 {
            block = f(block);
        }
        let mut blocks = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(200) {
            for _ in 0..4_096 {
                block = f(block);
            }
            blocks += 4_096;
        }
        // Feed the chained block back in so the loop cannot be elided.
        std::hint::black_box(block);
        blocks as f64 / start.elapsed().as_secs_f64()
    };
    AesThroughput {
        ttable_blocks_per_sec: blocks_per_sec(&|b| aes.encrypt_block(b)),
        reference_blocks_per_sec: blocks_per_sec(&|b| aes.encrypt_block_ref(b)),
    }
}

/// Best rate over several short measurement windows: scheduler noise and
/// frequency ramps only ever make a window slower, so the max is the
/// most faithful estimate of the code's actual throughput.
fn best_of_windows(mut window: impl FnMut(Duration) -> f64) -> f64 {
    (0..5).map(|_| window(Duration::from_millis(60))).fold(0.0, f64::max)
}

/// Measures 64-byte line hashing: the two-block `sha256_line` fast path
/// against the streaming hasher it bypasses.
fn digest_throughput() -> DigestThroughput {
    let hashes_per_sec = |f: &dyn Fn(&[u8; 64]) -> [u8; 32]| {
        let mut line = [0x5au8; 64];
        for _ in 0..1_000 {
            let d = f(&line);
            line[..32].copy_from_slice(&d);
        }
        let rate = best_of_windows(|budget| {
            let mut hashes = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for _ in 0..1_024 {
                    // Chain the digest back into the line so the loop
                    // cannot be elided.
                    let d = f(&line);
                    line[..32].copy_from_slice(&d);
                }
                hashes += 1_024;
            }
            hashes as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(line);
        rate
    };
    DigestThroughput {
        line_hashes_per_sec: hashes_per_sec(&|l| sha256_line(l)),
        streaming_hashes_per_sec: hashes_per_sec(&|l| sha256(l)),
    }
}

/// Measures CTR pad generation: a reused expanded key schedule (what the
/// `ScheduleCache` serves on every hit) against per-pad key expansion.
fn pad_throughput() -> PadThroughput {
    let key = Key128::from_seed(0x9ad5);
    let aes = Aes128::new(&key);
    let mut input = PadInput {
        page_id: 0x1234,
        block_in_page: 3,
        major: 7,
        minor: 0,
        domain: PadDomain::File,
    };
    let mut pads_per_sec = |f: &mut dyn FnMut(&PadInput) -> [u8; 64]| {
        let mut acc = 0u8;
        for _ in 0..256 {
            input.minor = input.minor.wrapping_add(1) & 0x7f;
            acc ^= f(&input)[0];
        }
        let rate = best_of_windows(|budget| {
            let mut pads = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for _ in 0..256 {
                    input.minor = input.minor.wrapping_add(1) & 0x7f;
                    acc ^= f(&input)[0];
                }
                pads += 256;
            }
            pads as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(acc);
        rate
    };
    PadThroughput {
        cached_pads_per_sec: pads_per_sec(&mut |i| line_pad_with(&aes, i)),
        uncached_pads_per_sec: pads_per_sec(&mut |i| line_pad(&key, i)),
    }
}

/// Measures the metadata persist path end to end: repeated
/// `persist_block` calls on unchanged lines, where the digest memo turns
/// each parent bump's line hash into a map probe, against the same
/// sequence with the memo disabled (every bump re-hashes the line).
/// This is the line-digest fast path as the integrity pipeline actually
/// exercises it.
fn meta_throughput() -> MetaThroughput {
    const LINES: u64 = 32;
    let build = |memo: bool| -> (MetadataSystem, NvmDevice, Cycle) {
        let layout = MetadataLayout::new(64 * 4096, 4096);
        let cfg = SecurityConfig {
            metadata_cache: CacheConfig {
                size_bytes: 64 * 64, // 64 lines
                ways: 8,
                block_bytes: 64,
                latency_cycles: 3,
            },
            ..SecurityConfig::default()
        };
        let mut sys = MetadataSystem::new(layout, &cfg);
        sys.set_digest_memo_enabled(memo);
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut t = Cycle::ZERO;
        for p in 0..LINES {
            let addr = sys.layout().mecb_addr(PageId::new(p));
            t = sys
                .write_block(&mut nvm, t, addr, [p as u8; 64])
                .expect("fresh tree verifies")
                .done;
        }
        t = sys.flush(&mut nvm, t);
        (sys, nvm, t)
    };
    let digests_per_sec = |memo: bool| {
        let (mut sys, mut nvm, _) = build(memo);
        let lines: Vec<_> = (0..LINES)
            .map(|p| {
                let addr = sys.layout().mecb_addr(PageId::new(p));
                let (bytes, _) = sys
                    .read_block(&mut nvm, Cycle::ZERO, addr)
                    .expect("cached line reads back");
                (addr, bytes)
            })
            .collect();
        let mut acc = 0u8;
        for (addr, bytes) in &lines {
            acc ^= sys.trusted_line_digest(*addr, bytes)[0];
        }
        let rate = best_of_windows(|budget| {
            let mut digests = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for (addr, bytes) in &lines {
                    acc ^= sys.trusted_line_digest(*addr, bytes)[0];
                }
                digests += LINES;
            }
            digests as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(acc);
        rate
    };
    let persists_per_sec = |memo: bool| {
        let (mut sys, mut nvm, mut t) = build(memo);
        let addrs: Vec<_> =
            (0..LINES).map(|p| sys.layout().mecb_addr(PageId::new(p))).collect();
        for &addr in &addrs {
            t = sys.persist_block(&mut nvm, t, addr).expect("persist verified line");
        }
        best_of_windows(|budget| {
            let mut persists = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for &addr in &addrs {
                    t = sys.persist_block(&mut nvm, t, addr).expect("persist verified line");
                }
                persists += LINES;
            }
            persists as f64 / start.elapsed().as_secs_f64()
        })
    };
    MetaThroughput {
        memo_digests_per_sec: digests_per_sec(true),
        rehash_digests_per_sec: digests_per_sec(false),
        memo_persists_per_sec: persists_per_sec(true),
        rehash_persists_per_sec: persists_per_sec(false),
    }
}

/// Measures the two host-side wins of the page-batched datapath. The pad
/// pair runs `ctr_pads_n` four lanes at a time against one pad per call
/// over the same cached schedule. The read pair runs a 64-line
/// `read_lines` region read of a primed file page against the equivalent
/// per-line `read_line` loop — identical simulated cycles either way, so
/// the delta is purely the amortized counter-block parses and
/// schedule-cache probes.
fn batch_throughput() -> BatchThroughput {
    let aes = Aes128::new(&Key128::from_seed(0xba7c));
    let mut input = PadInput {
        page_id: 0x88,
        block_in_page: 5,
        major: 3,
        minor: 0,
        domain: PadDomain::File,
    };
    let mut pads_per_sec = |lanes: usize| {
        let mut pad = [0u8; 64];
        let mut acc = 0u8;
        for _ in 0..256 {
            input.minor = input.minor.wrapping_add(1) & 0x7f;
            ctr_pads_n(&aes, &input, lanes, &mut pad);
            acc ^= pad[0];
        }
        let rate = best_of_windows(|budget| {
            let mut pads = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for _ in 0..256 {
                    input.minor = input.minor.wrapping_add(1) & 0x7f;
                    ctr_pads_n(&aes, &input, lanes, &mut pad);
                    acc ^= pad[0];
                }
                pads += 256;
            }
            pads as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(acc);
        rate
    };
    let quad_pads_per_sec = pads_per_sec(4);
    let single_pads_per_sec = pads_per_sec(1);

    // A controller with one primed DF page: key installed, FECB stamped,
    // every line written once, metadata cache warm.
    let build = || -> (MemoryController, Vec<PhysAddr>, Cycle) {
        let layout = MetadataLayout::new(64 * 4096, 8192);
        let cfg = SecurityConfig::default();
        let mut ctrl = MemoryController::new(
            CtrlMode::Encrypted,
            layout,
            &cfg,
            Key128::from_seed(1),
            Key128::from_seed(2),
            NvmDevice::new(NvmConfig::default()),
        );
        let mut t = ctrl
            .install_key(Cycle::ZERO, 1, 7, Key128::from_seed(0xfee))
            .expect("fresh OTT accepts a key");
        let page = PageId::new(2);
        t = ctrl.stamp_file_page(t, page, 1, 7).expect("fresh tree verifies");
        let addrs: Vec<PhysAddr> = page.lines().map(|l| PhysAddr::new(l.get())).collect();
        for (i, &addr) in addrs.iter().enumerate() {
            t = ctrl
                .write_line(t, addr, &[i as u8; 64])
                .expect("primed page writes cleanly");
        }
        (ctrl, addrs, t)
    };
    let looped_reads_per_sec = {
        let (mut ctrl, addrs, mut t) = build();
        best_of_windows(|budget| {
            let mut lines = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                let mut acc = 0u8;
                for &addr in &addrs {
                    let (plain, done) =
                        ctrl.read_line(t, addr).expect("primed page reads back");
                    acc ^= plain[0];
                    t = done;
                }
                std::hint::black_box(acc);
                lines += addrs.len() as u64;
            }
            lines as f64 / start.elapsed().as_secs_f64()
        })
    };
    let batched_reads_per_sec = {
        let (mut ctrl, addrs, mut t) = build();
        let mut out: Vec<[u8; 64]> = Vec::with_capacity(addrs.len());
        best_of_windows(|budget| {
            let mut lines = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                out.clear();
                t = ctrl
                    .read_lines(t, &addrs, &mut out)
                    .expect("primed page reads back");
                std::hint::black_box(out[0][0]);
                lines += addrs.len() as u64;
            }
            lines as f64 / start.elapsed().as_secs_f64()
        })
    };
    BatchThroughput {
        quad_pads_per_sec,
        single_pads_per_sec,
        batched_reads_per_sec,
        looped_reads_per_sec,
    }
}

/// Measures the batched Merkle engine. The lane pair chains
/// `digest8_lines4` against the same four digests via one-shot
/// `digest8_line` calls. The verify pair replays a 64-line region from
/// cold post-crash state — `verify_lines` (one shared-ancestor plan,
/// four-lane hashing) against the equivalent chained `read_block` loop —
/// timing only the verify itself, not the crash that re-colds the
/// caches. The persist pair dirties the same 64 leaves with fresh
/// content each round and times `persist_blocks` against the per-line
/// `persist_block` loop, excluding the (identical) dirtying writes.
fn merkle_throughput() -> MerkleThroughput {
    let mut lines = [[0u8; 64]; 4];
    for (i, line) in lines.iter_mut().enumerate() {
        for (j, byte) in line.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(67).wrapping_add((j as u8).wrapping_mul(13)).wrapping_add(5);
        }
    }
    let lane_digests_per_sec = {
        let mut lines = lines;
        let rate = best_of_windows(|budget| {
            let mut digests = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for _ in 0..256 {
                    let [l0, l1, l2, l3] = &lines;
                    let d = digest8_lines4([l0, l1, l2, l3]);
                    // Chain the digests back in so the loop cannot be
                    // elided.
                    for (l, digest) in d.iter().enumerate() {
                        lines[l][..8].copy_from_slice(digest);
                    }
                }
                digests += 4 * 256;
            }
            digests as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(lines);
        rate
    };
    let oneshot_digests_per_sec = {
        let mut lines = lines;
        let rate = best_of_windows(|budget| {
            let mut digests = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget {
                for _ in 0..256 {
                    for line in &mut lines {
                        let d = digest8_line(line);
                        line[..8].copy_from_slice(&d);
                    }
                }
                digests += 4 * 256;
            }
            digests as f64 / start.elapsed().as_secs_f64()
        });
        std::hint::black_box(lines);
        rate
    };

    const REGION: u64 = 64;
    // A populated tree: 64 persisted MECB leaves behind a deliberately
    // small metadata cache, so cold per-line climbs re-hash shared
    // ancestors — the redundancy the batch planner removes.
    let build = |cache_lines: usize| -> (MetadataSystem, NvmDevice, Vec<LineAddr>, Cycle) {
        let layout = MetadataLayout::new(REGION * 4096, 4096);
        let cfg = SecurityConfig {
            metadata_cache: CacheConfig {
                size_bytes: cache_lines * 64,
                ways: 8,
                block_bytes: 64,
                latency_cycles: 3,
            },
            ..SecurityConfig::default()
        };
        let mut sys = MetadataSystem::new(layout, &cfg);
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut t = Cycle::ZERO;
        let addrs: Vec<LineAddr> =
            (0..REGION).map(|p| sys.layout().mecb_addr(PageId::new(p))).collect();
        for (i, &addr) in addrs.iter().enumerate() {
            t = sys
                .write_block(&mut nvm, t, addr, [i as u8 + 1; 64])
                .expect("fresh tree verifies")
                .done;
        }
        t = sys.flush(&mut nvm, t);
        (sys, nvm, addrs, t)
    };
    let verifies_per_sec = |batched: bool| {
        let (mut sys, mut nvm, addrs, _) = build(8);
        best_of_windows(|budget| {
            let mut lines = 0u64;
            let mut spent = Duration::ZERO;
            let start = Instant::now();
            while start.elapsed() < budget {
                sys.crash();
                let timed = Instant::now();
                if batched {
                    sys.verify_lines(&mut nvm, Cycle::ZERO, &addrs).expect("tree verifies");
                } else {
                    let mut t = Cycle::ZERO;
                    for &addr in &addrs {
                        t = sys.read_block(&mut nvm, t, addr).expect("tree verifies").1.done;
                    }
                }
                spent += timed.elapsed();
                lines += REGION;
            }
            lines as f64 / spent.as_secs_f64()
        })
    };
    let persists_per_sec = |batched: bool| {
        let (mut sys, mut nvm, addrs, mut t) = build(256);
        let mut v = 0u8;
        best_of_windows(|budget| {
            let mut lines = 0u64;
            let mut spent = Duration::ZERO;
            let start = Instant::now();
            while start.elapsed() < budget {
                v = v.wrapping_add(1);
                for (i, &addr) in addrs.iter().enumerate() {
                    let bytes = [v ^ (i as u8).wrapping_mul(3); 64];
                    t = sys
                        .write_block(&mut nvm, t, addr, bytes)
                        .expect("cached line writes cleanly")
                        .done;
                }
                let timed = Instant::now();
                if batched {
                    t = sys.persist_blocks(&mut nvm, t, &addrs).expect("persist verified lines");
                } else {
                    for &addr in &addrs {
                        t = sys.persist_block(&mut nvm, t, addr).expect("persist verified line");
                    }
                }
                spent += timed.elapsed();
                lines += REGION;
            }
            lines as f64 / spent.as_secs_f64()
        })
    };
    MerkleThroughput {
        lane_digests_per_sec,
        oneshot_digests_per_sec,
        batched_verifies_per_sec: verifies_per_sec(true),
        looped_verifies_per_sec: verifies_per_sec(false),
        batched_persists_per_sec: persists_per_sec(true),
        looped_persists_per_sec: persists_per_sec(false),
    }
}

/// The reference setup behind `harness snapshot save` and the snapshot
/// self-benchmark: one encrypted file of `pages` seeded-random pages,
/// mapped, with every page written and persisted.
fn snapshot_fixture(
    seed: u64,
    pages: u64,
    opts: MachineOpts,
    mode: SecurityMode,
) -> Result<Machine, fsencr::machine::MachineError> {
    const PAGE: u64 = 4096;
    let mut m = Machine::new(opts, mode);
    // The file name is part of the saved image: changing it changes the
    // bytes `snapshot save` writes.
    let h = m.create(UserId::new(1), GroupId::new(1), "epochs.bin", Mode::PRIVATE, Some("pw"))?;
    let map = m.mmap(&h)?;
    let mut rng = SplitMix64::new(seed ^ 0xEF0C);
    let mut page = vec![0u8; PAGE as usize];
    for p in 0..pages {
        for b in page.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        m.write(0, map, p * PAGE, &page)?;
        m.persist(0, map, p * PAGE, PAGE)?;
    }
    Ok(m)
}

/// Measures the warm-start win: simulating a representative setup phase
/// (a fully initialised and persisted 512 KiB encrypted file) against
/// restoring the identical machine from its `fsencr-snap/1` image. Both
/// sides take the best of several attempts; the restored machine is
/// bit-identical (round-trip theorem), so the gap is pure saved
/// simulation.
fn snapshot_throughput() -> SnapshotThroughput {
    let opts = MachineOpts::small_test();
    let mode = SecurityMode::FsEncr;
    let mut cold = Duration::MAX;
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let m = snapshot_fixture(0x57AB, 128, opts, mode).expect("snapshot bench setup");
        cold = cold.min(t.elapsed());
        bytes = m.save_snapshot().expect("no injector armed during setup");
    }
    let mut restore = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let m = Machine::restore_snapshot(opts, mode, &bytes).expect("snapshot restores");
        restore = restore.min(t.elapsed());
        std::hint::black_box(m.elapsed());
    }
    SnapshotThroughput {
        cold_setup_wall: cold,
        restore_wall: restore,
        snapshot_bytes: bytes.len() as u64,
    }
}

/// Times one full `fig8_9_10` pass at `scale` with a fixed worker count.
fn timed_fig8(jobs: usize, scale: f64) -> Duration {
    exp::pool::set_jobs(jobs);
    let start = Instant::now();
    let (a, b, c) = exp::fig8_9_10(scale);
    std::hint::black_box((a, b, c));
    start.elapsed()
}

/// `harness bench`: emits `BENCH_harness.json` with the AES fast-path
/// speedup and the serial-vs-parallel experiment-engine comparison.
fn bench(scale: f64, jobs_flag: Option<usize>) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = jobs_flag.unwrap_or_else(exp::pool::jobs);
    eprintln!("[bench] AES throughput (single thread)...");
    let aes = aes_throughput();
    eprintln!(
        "[bench]   ttable {:.0} blk/s, reference {:.0} blk/s, speedup {:.2}x",
        aes.ttable_blocks_per_sec,
        aes.reference_blocks_per_sec,
        aes.speedup()
    );
    eprintln!("[bench] line-digest throughput (single thread)...");
    let digest = digest_throughput();
    eprintln!(
        "[bench]   sha256_line {:.0} h/s, streaming {:.0} h/s, speedup {:.2}x",
        digest.line_hashes_per_sec,
        digest.streaming_hashes_per_sec,
        digest.speedup()
    );
    eprintln!("[bench] CTR pad throughput (single thread)...");
    let pad = pad_throughput();
    eprintln!(
        "[bench]   cached schedule {:.0} pad/s, fresh expansion {:.0} pad/s, speedup {:.2}x",
        pad.cached_pads_per_sec,
        pad.uncached_pads_per_sec,
        pad.speedup()
    );
    eprintln!("[bench] metadata digest-memo throughput (single thread)...");
    let meta = meta_throughput();
    eprintln!(
        "[bench]   digest path: memo {:.0} /s, re-hash {:.0} /s, speedup {:.2}x",
        meta.memo_digests_per_sec,
        meta.rehash_digests_per_sec,
        meta.speedup()
    );
    eprintln!(
        "[bench]   persist path: memo {:.0} /s, re-hash {:.0} /s, speedup {:.2}x",
        meta.memo_persists_per_sec,
        meta.rehash_persists_per_sec,
        meta.persist_speedup()
    );
    eprintln!("[bench] batched-datapath throughput (single thread)...");
    let batch = batch_throughput();
    eprintln!(
        "[bench]   pad kernel: 4-lane {:.0} pad/s, 1-lane {:.0} pad/s, speedup {:.2}x",
        batch.quad_pads_per_sec,
        batch.single_pads_per_sec,
        batch.pad_speedup()
    );
    eprintln!(
        "[bench]   region read: batched {:.0} ln/s, looped {:.0} ln/s, speedup {:.2}x",
        batch.batched_reads_per_sec,
        batch.looped_reads_per_sec,
        batch.read_speedup()
    );
    eprintln!("[bench] batched Merkle-engine throughput (single thread)...");
    let merkle = merkle_throughput();
    eprintln!(
        "[bench]   digest kernel: 4-lane {:.0} /s, one-shot {:.0} /s, speedup {:.2}x",
        merkle.lane_digests_per_sec,
        merkle.oneshot_digests_per_sec,
        merkle.lanes_speedup()
    );
    eprintln!(
        "[bench]   region verify: batched {:.0} ln/s, looped {:.0} ln/s, speedup {:.2}x",
        merkle.batched_verifies_per_sec,
        merkle.looped_verifies_per_sec,
        merkle.verify_speedup()
    );
    eprintln!(
        "[bench]   region persist: batched {:.0} ln/s, looped {:.0} ln/s, speedup {:.2}x",
        merkle.batched_persists_per_sec,
        merkle.looped_persists_per_sec,
        merkle.persist_speedup()
    );
    eprintln!("[bench] snapshot restore vs cold setup...");
    let snap = snapshot_throughput();
    eprintln!(
        "[bench]   cold setup {:.2?}, restore {:.2?}, speedup {:.2}x ({} snapshot bytes)",
        snap.cold_setup_wall,
        snap.restore_wall,
        snap.speedup(),
        snap.snapshot_bytes
    );
    eprintln!("[bench] engine serial run (jobs=1, scale {scale})...");
    exp::report::take_cell_records();
    let serial_wall = timed_fig8(1, scale);
    exp::report::take_cell_records();
    eprintln!("[bench] engine parallel run (jobs={jobs})...");
    let parallel_wall = timed_fig8(jobs, scale);
    let mut cells = exp::report::take_cell_records();
    cells.sort_by(|a, b| (&a.workload, &a.mode).cmp(&(&b.workload, &b.mode)));
    exp::pool::set_jobs(0);
    let report = BenchReport {
        jobs,
        host_parallelism: host,
        scale,
        aes,
        digest,
        pad,
        meta,
        batch,
        merkle,
        snap,
        serial_wall,
        parallel_wall,
        cells,
    };
    eprintln!(
        "[bench]   serial {:.2?}, parallel {:.2?}, speedup {:.2}x",
        serial_wall,
        parallel_wall,
        report.engine_speedup()
    );
    let path = "BENCH_harness.json";
    std::fs::write(path, report.to_json()).expect("write BENCH_harness.json");
    eprintln!("[bench] wrote {path}");
}

/// `harness bench-check`: validates the schema and required sections of
/// an existing `BENCH_harness.json` (used by `scripts/verify.sh`). Exits
/// non-zero with a diagnostic on any mismatch.
fn bench_check(path: &str) {
    let fail = |msg: &str| -> ! {
        eprintln!("[bench-check] {path}: {msg}");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("unreadable: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")));
    match json.get("schema").and_then(Json::as_str) {
        Some("fsencr-bench-harness/5") => {}
        other => fail(&format!("schema mismatch: {other:?}")),
    }
    for key in ["host_parallelism", "jobs", "scale"] {
        if json.get(key).and_then(Json::as_f64).is_none() {
            fail(&format!("missing numeric field {key:?}"));
        }
    }
    let sections: &[(&str, &[&str])] = &[
        ("aes", &["ttable_blocks_per_sec", "reference_blocks_per_sec", "speedup"]),
        ("digest", &["line_hashes_per_sec", "streaming_hashes_per_sec", "speedup"]),
        ("pad", &["cached_pads_per_sec", "uncached_pads_per_sec", "speedup"]),
        (
            "metadata",
            &[
                "memo_digests_per_sec",
                "rehash_digests_per_sec",
                "speedup",
                "memo_persists_per_sec",
                "rehash_persists_per_sec",
                "persist_speedup",
            ],
        ),
        (
            "batch",
            &[
                "quad_pads_per_sec",
                "single_pads_per_sec",
                "pad_speedup",
                "batched_reads_per_sec",
                "looped_reads_per_sec",
                "read_speedup",
            ],
        ),
        (
            "merkle",
            &[
                "lane_digests_per_sec",
                "oneshot_digests_per_sec",
                "lanes_speedup",
                "batched_verifies_per_sec",
                "looped_verifies_per_sec",
                "verify_speedup",
                "batched_persists_per_sec",
                "looped_persists_per_sec",
                "persist_speedup",
            ],
        ),
        (
            "snapshot",
            &["cold_setup_wall_s", "restore_wall_s", "speedup", "snapshot_bytes"],
        ),
        ("engine", &["serial_wall_s", "parallel_wall_s", "speedup"]),
    ];
    for (section, fields) in sections {
        let Some(obj) = json.get(section) else {
            fail(&format!("missing section {section:?}"));
        };
        for f in *fields {
            match obj.get(f).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => {}
                other => fail(&format!("{section}.{f}: bad value {other:?}")),
            }
        }
    }
    let Some(cells) = json.get("engine").and_then(|e| e.get("cells")).and_then(Json::as_arr)
    else {
        fail("engine.cells missing or not an array");
    };
    if cells.is_empty() {
        fail("engine.cells is empty");
    }
    for cell in cells {
        for f in ["workload", "mode"] {
            if cell.get(f).and_then(Json::as_str).is_none() {
                fail(&format!("cell missing string field {f:?}"));
            }
        }
        for f in ["wall_s", "sim_cycles", "nvm_lines", "sim_lines_per_sec"] {
            if cell.get(f).and_then(Json::as_f64).is_none() {
                fail(&format!("cell missing numeric field {f:?}"));
            }
        }
    }
    println!("[bench-check] {path}: OK ({} cells)", cells.len());
}

/// `harness faults`: runs a deterministic fault-injection campaign and
/// writes `FAULTS_report.json`. Exits non-zero if any in-coverage
/// corruption went undetected — the report is a pass/fail artifact, not
/// just telemetry.
fn faults(args: &[String]) {
    let mut seed: u64 = 42;
    let mut spec_str = String::from("default");
    let mut out_path = String::from("FAULTS_report.json");
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut take = |key: &str| -> Option<String> {
            if arg == key {
                let v = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
                Some(v)
            } else if let Some(v) = arg.strip_prefix(&format!("{key}=")) {
                i += 1;
                Some(v.to_string())
            } else {
                None
            }
        };
        if let Some(v) = take("--seed") {
            seed = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = take("--campaign") {
            spec_str = v;
        } else if let Some(v) = take("--out") {
            out_path = v;
        } else {
            usage();
        }
    }
    let spec: fsencr_faults::CampaignSpec = spec_str.parse().unwrap_or_else(|e| {
        eprintln!("[faults] bad --campaign spec: {e}");
        std::process::exit(2);
    });
    eprintln!("[faults] seed {seed}, campaign {spec}");
    let report = exp::faultcamp::run_campaign(seed, &spec);
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[faults] {}", report.summary());
    eprintln!("[faults] wrote {out_path}");
    if report.undetected_in_coverage() > 0 {
        eprintln!(
            "[faults] FAIL: {} in-coverage corruption(s) went undetected",
            report.undetected_in_coverage()
        );
        std::process::exit(1);
    }
}

/// Parses a `--mode` operand; accepts the `Display` names plus common
/// shorthands.
fn parse_mode(s: &str) -> SecurityMode {
    match s {
        "ext4-dax" | "unencrypted" => SecurityMode::Unencrypted,
        "baseline-security" | "memory-only" => SecurityMode::MemoryOnly,
        "fsencr" => SecurityMode::FsEncr,
        "software-encryption" | "software" => SecurityMode::Software,
        _ => usage(),
    }
}

/// `harness snapshot <save|load|info> [PATH]`: the snapshot subsystem's
/// CLI. `save` simulates the reference setup (a fully initialised,
/// persisted encrypted file) and writes its post-setup `fsencr-snap/1`
/// image; `load` restores the image and reports the machine it rebuilt;
/// `info` walks the stream's digest-chained sections without restoring
/// anything.
fn snapshot_cmd(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    let verb = verb.as_str();
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or("MACHINE.snap", String::as_str);
    let flags = if args.get(1).is_some_and(|a| !a.starts_with("--")) { &args[2..] } else { &args[1..] };
    let mut seed: u64 = 0x57AB;
    let mut pages: u64 = 128;
    let mut mode = SecurityMode::FsEncr;
    let mut i = 0;
    while i < flags.len() {
        let arg = flags[i].as_str();
        let mut take = |key: &str| -> Option<String> {
            if arg == key {
                let v = flags.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
                Some(v)
            } else if let Some(v) = arg.strip_prefix(&format!("{key}=")) {
                i += 1;
                Some(v.to_string())
            } else {
                None
            }
        };
        if let Some(v) = take("--seed") {
            seed = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = take("--pages") {
            pages = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = take("--mode") {
            mode = parse_mode(&v);
        } else {
            usage();
        }
    }
    let opts = MachineOpts::small_test();
    match verb {
        "save" => {
            let t0 = Instant::now();
            let m = snapshot_fixture(seed, pages, opts, mode).unwrap_or_else(|e| {
                eprintln!("[snapshot] setup failed: {e}");
                std::process::exit(1);
            });
            let setup = t0.elapsed();
            let bytes = m.save_snapshot().unwrap_or_else(|e| {
                eprintln!("[snapshot] save refused: {e}");
                std::process::exit(1);
            });
            std::fs::write(path, &bytes).unwrap_or_else(|e| {
                eprintln!("[snapshot] write {path}: {e}");
                std::process::exit(1);
            });
            let sections = fsencr_snapshot::describe(&bytes).map_or(0, |s| s.len());
            eprintln!(
                "[snapshot] wrote {path}: {} bytes, {sections} sections (setup {setup:.2?}, \
                 seed {seed}, {pages} pages, mode {mode})",
                bytes.len()
            );
        }
        "load" => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("[snapshot] read {path}: {e}");
                std::process::exit(1);
            });
            let t0 = Instant::now();
            let m = Machine::restore_snapshot(opts, mode, &bytes).unwrap_or_else(|e| {
                eprintln!("[snapshot] {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "[snapshot] {path}: restored in {:.2?} ({} bytes, machine at cycle {}, mode {mode})",
                t0.elapsed(),
                bytes.len(),
                m.elapsed()
            );
        }
        "info" => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("[snapshot] read {path}: {e}");
                std::process::exit(1);
            });
            match fsencr_snapshot::describe(&bytes) {
                Ok(sections) => {
                    println!(
                        "{path}: fsencr-snap/1, {} bytes, {} sections",
                        bytes.len(),
                        sections.len()
                    );
                    for s in &sections {
                        println!("  {:<24} {:>12} B  digest {:016x}", s.name, s.payload_len, s.digest);
                    }
                }
                Err(e) => {
                    eprintln!("[snapshot] {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// `harness profile <fig>`: re-runs the figure's cells with the machine
/// observer enabled and emits the per-cell cycle-attribution breakdown,
/// plus JSON and chrome-trace exports next to the working directory.
fn profile(fig: &str, scale: f64) {
    let Some(report) = exp::profile::profile(fig, scale, exp::profile::DEFAULT_SPAN_CAPACITY)
    else {
        eprintln!("[profile] `{fig}` has no profilable cell matrix (try fig3, fig8-10, fig11, fig12-14)");
        std::process::exit(2);
    };
    print!("{}", report.render_text());
    let json_path = format!("PROFILE_{fig}.json");
    std::fs::write(&json_path, report.to_json()).expect("write profile json");
    let trace_path = format!("PROFILE_{fig}_trace.json");
    std::fs::write(&trace_path, report.to_chrome_trace()).expect("write chrome trace");
    eprintln!("[profile] wrote {json_path} and {trace_path}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs_flag: Option<usize> = None;
    let mut no_cache = false;
    // Accept `--jobs N`, `--jobs=N` and `--no-cache` anywhere on the
    // command line.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            let Some(v) = args.get(i + 1) else { usage() };
            jobs_flag = Some(v.parse().unwrap_or_else(|_| usage()));
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            jobs_flag = Some(v.parse().unwrap_or_else(|_| usage()));
            args.remove(i);
        } else if args[i] == "--no-cache" {
            no_cache = true;
            args.remove(i);
        } else {
            i += 1;
        }
    }
    if let Some(n) = jobs_flag {
        if n == 0 {
            usage();
        }
        exp::pool::set_jobs(n);
    }
    let Some(which) = args.first() else { usage() };
    let which = which.clone();
    if which == "profile" {
        let Some(fig) = args.get(1) else { usage() };
        // Like `bench`, profiling defaults to a small scale: the span
        // buffers make full-scale runs memory-heavy.
        let scale: f64 = args
            .get(2)
            .map_or(0.05, |s| s.parse().unwrap_or_else(|_| usage()));
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let t0 = std::time::Instant::now();
        profile(fig, scale);
        eprintln!("[harness] completed in {:.1?}", t0.elapsed());
        return;
    }
    if which == "bench-check" {
        bench_check(args.get(1).map_or("BENCH_harness.json", String::as_str));
        return;
    }
    if which == "faults" {
        let t0 = std::time::Instant::now();
        faults(&args[1..]);
        eprintln!("[harness] completed in {:.1?}", t0.elapsed());
        return;
    }
    if which == "snapshot" {
        snapshot_cmd(&args[1..]);
        return;
    }
    let scale_arg: Option<f64> = args.get(1).map(|s| s.parse().unwrap_or_else(|_| usage()));
    let scale = scale_arg.unwrap_or(1.0);
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");

    // The result store serves figure subcommands only. `bench` and
    // `profile` keep it disabled: `bench` times the simulation engine (a
    // warm cache would skip the very work being measured) and `profile`
    // needs the observer to actually run.
    let cacheable = matches!(
        which.as_str(),
        "fig3" | "fig8-10" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12-14" | "fig12"
            | "fig13" | "fig14" | "fig15" | "ablation-ott" | "ablation-osiris"
            | "ablation-direct" | "ablation-partition" | "all"
    );
    let use_cache = cacheable && !no_cache;
    if use_cache {
        exp::store::configure(Some(std::path::PathBuf::from("CACHE")));
    }

    let t0 = std::time::Instant::now();
    match which.as_str() {
        "fig3" => println!("{}", exp::fig3(scale)),
        "fig8-10" | "fig8" | "fig9" | "fig10" => {
            let (a, b, c) = exp::fig8_9_10(scale);
            println!("{a}{b}{c}");
        }
        "fig11" => {
            let (a, b, c, d) = exp::fig11(scale);
            println!("{a}{b}{c}{d}");
        }
        "fig12-14" | "fig12" | "fig13" | "fig14" => {
            let (a, b, c) = exp::fig12_13_14(scale);
            println!("{a}{b}{c}");
        }
        "fig15" => println!("{}", exp::fig15(scale)),
        "table1" => println!("{}", exp::table1()),
        "params" => params(),
        "list" => list(),
        // The engine comparison runs fig8-10 twice; default to a small
        // scale so a bare `harness bench` finishes in minutes.
        "bench" => bench(scale_arg.unwrap_or(0.05), jobs_flag),
        "ablation-ott" => println!("{}", exp::ablation_ott(scale)),
        "ablation-osiris" => println!("{}", exp::ablation_osiris(scale)),
        "ablation-direct" => println!("{}", exp::ablation_direct(scale)),
        "ablation-partition" => println!("{}", exp::ablation_partition(scale)),
        "all" => {
            params();
            list();
            println!("{}", exp::table1());
            println!("{}", exp::fig3(scale));
            let (a, b, c) = exp::fig8_9_10(scale);
            println!("{a}{b}{c}");
            let (a, b, c, d) = exp::fig11(scale);
            println!("{a}{b}{c}{d}");
            let (a, b, c) = exp::fig12_13_14(scale);
            println!("{a}{b}{c}");
            println!("{}", exp::fig15(scale));
            println!("{}", exp::ablation_ott(scale));
            println!("{}", exp::ablation_osiris(scale));
            println!("{}", exp::ablation_direct(scale));
            println!("{}", exp::ablation_partition(scale));
        }
        _ => usage(),
    }
    if use_cache {
        let (cells, setups) = (exp::store::counts(Kind::Cell), exp::store::counts(Kind::Setup));
        eprintln!(
            "[store] cells {} hit / {} miss; setups {} warm / {} cold / {} stored",
            cells.hits, cells.misses, setups.hits, setups.misses, setups.puts
        );
        exp::store::configure(None);
    }
    eprintln!("[harness] completed in {:.1?}", t0.elapsed());
}
