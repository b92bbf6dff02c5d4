//! The three seeded workloads.
//!
//! The benchmark's seed generates every key, offset and value up front;
//! the simulator only receives the generated operations. Setup builds a
//! machine, preloads it (kv-write also crashes and recovers it) and saves
//! one `fsencr-snap/1` image. Each round
//! restores that image and replays the same operation stream, so every
//! round of one run does the same simulated work: simulated counters are
//! taken from a round and must repeat exactly in every other one.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use fsencr::controller::RecoveryReport;
use fsencr::machine::{Machine, MachineError, MachineOpts, MapId, Preset, SecurityMode};
use fsencr::StatsSnapshot;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_sim::SplitMix64;
use fsencr_workloads::driver::prefault;
use fsencr_workloads::kv::{BTreeKv, HashKv};
use fsencr_workloads::Zipfian;

use crate::trace::Tracer;

const USER: UserId = UserId::new(1);
const GROUP: GroupId = GroupId::new(1);
const PASS: &str = "perfbench";
const PAGE: u64 = 4096;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["kv-write", "dax-read", "sw-ycsb"];

/// What one round did.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Host nanoseconds per measured op.
    pub lat_ns: Vec<u64>,
    /// Operations issued, read-backs included.
    pub attempted: u64,
    /// Operations that raised a `MachineError`, read back a value other
    /// than the shadow's, or recovered with unrecoverable lines.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Simulated counters over the measured ops.
    pub window: StatsSnapshot,
    /// Host-side Merkle planner `(plans, digests seeded)` over the window.
    pub plans: (u64, u64),
    /// Merkle root after the last measured op.
    pub root: [u8; 8],
    /// KV-engine calls in the window (puts and gets of measured ops).
    pub kv_ops: u64,
    /// Snapshot image size in bytes.
    pub image_bytes: u64,
}

impl RoundOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one issued operation and records its outcome.
    fn check<T>(&mut self, what: impl FnOnce() -> String, r: Result<T, MachineError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{}: {e}", what()));
                None
            }
        }
    }

    /// Compares a read-back against the shadow (the op itself was
    /// already counted as attempted).
    fn expect_eq(&mut self, what: impl FnOnce() -> String, got: &[u8], want: &[u8]) {
        if got != want {
            self.fail(format!("{}: read-back differs from shadow", what()));
        }
    }
}

/// What a setup leaves for the rounds.
#[derive(Debug, PartialEq)]
pub struct Setup {
    /// Snapshot image of the preloaded machine; every round restores it.
    pub image: Vec<u8>,
    /// Reports of the recoveries setup ran, one per crash.
    pub reports: Vec<RecoveryReport>,
}

/// A benchmark workload: seeded inputs, setup and one round.
pub trait Workload {
    /// Measured ops per round.
    fn ops_per_round(&self) -> usize;
    /// Builds and preloads a machine and saves its snapshot image.
    ///
    /// # Errors
    ///
    /// A failed simulator call or snapshot save, unrecoverable lines, or
    /// a preloaded value recovery did not bring back.
    fn setup(&self, tr: &mut Tracer) -> Result<Setup, String>;
    /// Restores `image` and replays the op stream once.
    ///
    /// # Errors
    ///
    /// A failure of the benchmark itself (the image does not restore);
    /// failed operations are counted in [`RoundOut::failed`] instead.
    fn round(&self, image: &[u8], tr: &mut Tracer) -> Result<RoundOut, String>;
}

/// Generates the inputs of workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv-write" => Box::new(KvWrite::generate(seed)),
        "dax-read" => Box::new(DaxRead::generate(seed)),
        "sw-ycsb" => Box::new(SwYcsb::generate(seed)),
        _ => return None,
    })
}

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Draws a key not yet in `used` and records it.
fn fresh_key(rng: &mut SplitMix64, used: &mut BTreeSet<u64>) -> u64 {
    loop {
        let k = rng.next_u64();
        if used.insert(k) {
            return k;
        }
    }
}

/// A stratified draw: exactly one of every `n` consecutive calls, at a
/// seeded position within each block, returns true. Mixes such as "1 in
/// 8" then hold exactly for every seed, so the simulated counters of a
/// round vary little from seed to seed.
struct OneIn {
    n: u64,
    calls: u64,
    pick: u64,
}

impl OneIn {
    fn new(n: u64) -> Self {
        OneIn {
            n,
            calls: 0,
            pick: 0,
        }
    }

    fn next(&mut self, rng: &mut SplitMix64) -> bool {
        if self.calls.is_multiple_of(self.n) {
            self.pick = rng.next_below(self.n);
        }
        let hit = self.calls % self.n == self.pick;
        self.calls += 1;
        hit
    }
}

/// Most KV values are 64 B; one in eight is a 4 KiB value.
fn kv_value(rng: &mut SplitMix64, big: &mut OneIn) -> Vec<u8> {
    let len = if big.next(rng) { 4096 } else { 64 };
    bytes(rng, len)
}

/// Restores the setup image into a fresh machine.
fn restore(
    tr: &mut Tracer,
    opts: MachineOpts,
    mode: SecurityMode,
    image: &[u8],
) -> Result<Machine, String> {
    tr.span("snapshot.restore", |_| {
        Machine::restore_snapshot(opts, mode, image)
    })
    .map_err(|e| format!("restore: {e}"))
}

fn map_of(m: &Machine, file: &str) -> Result<MapId, String> {
    m.mapping_of(file)
        .ok_or_else(|| format!("{file} is not mapped in the setup image"))
}

fn save(tr: &mut Tracer, m: &Machine) -> Result<Vec<u8>, String> {
    tr.span("snapshot.save", |_| m.save_snapshot())
        .map_err(|e| format!("snapshot save: {e}"))
}

/// Creates and maps an encrypted file, touching `prefault_bytes` of it
/// so the measured phase takes no first-touch page faults.
fn create_mapped(
    m: &mut Machine,
    tr: &mut Tracer,
    file: &str,
    prefault_bytes: u64,
) -> Result<MapId, String> {
    let h = m
        .create(USER, GROUP, file, Mode::PRIVATE, Some(PASS))
        .map_err(|e| format!("create {file}: {e}"))?;
    let map = m.mmap(&h).map_err(|e| format!("mmap {file}: {e}"))?;
    tr.span("fsencr.write", |_| prefault(m, 0, map, prefault_bytes))
        .map_err(|e| format!("prefault: {e}"))?;
    Ok(map)
}

/// Runs one measured op: times it, wraps it in an `op` span, and returns
/// its result.
fn timed<T>(
    lat_ns: &mut Vec<u64>,
    tr: &mut Tracer,
    op: usize,
    f: impl FnOnce(&mut Tracer) -> T,
) -> T {
    tr.set_op(u32::try_from(op).unwrap_or(u32::MAX));
    let t0 = Instant::now();
    let r = tr.span("op", f);
    lat_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    r
}

/// Window of simulated counters and planner telemetry since `before`.
fn close_window(out: &mut RoundOut, m: &Machine, before: &StatsSnapshot, plans0: (u64, u64)) {
    let (p, d) = m.controller().batch_plan_stats();
    out.window.merge(&m.snapshot().delta(before));
    out.plans.0 += p.saturating_sub(plans0.0);
    out.plans.1 += d.saturating_sub(plans0.1);
    out.root = m.merkle_root();
}

/// Touches one byte of every page of `bytes` of a mapping by reading
/// it, so the measured phase takes no first-touch page faults and no
/// stored byte changes.
fn touch(m: &mut Machine, tr: &mut Tracer, map: MapId, bytes: u64) -> Result<(), String> {
    let mut b = [0u8; 1];
    tr.span("fsencr.read", |_| {
        (0..bytes)
            .step_by(PAGE as usize)
            .try_for_each(|off| m.read(0, map, off, &mut b))
    })
    .map_err(|e| format!("touch: {e}"))
}

// ---------------------------------------------------------------------
// kv-write
// ---------------------------------------------------------------------

/// Seeded B-tree puts under FsEncr: about half new keys and half
/// overwrites of a preloaded set. The persist path: Merkle parent bumps,
/// Osiris write-throughs, batched region write/persist, the KV engine.
///
/// Setup crashes the preloaded store, recovers it and reads every
/// preloaded value back before it saves the image, so Osiris repair, the
/// Merkle rebuild and the snapshot codec are measured in `setup_s`.
pub struct KvWrite {
    pub(crate) preload: Vec<(u64, Vec<u8>)>,
    pub(crate) ops: Vec<(u64, Vec<u8>)>,
}

impl KvWrite {
    const FILE: &'static str = "kv-write.db";
    const PRELOAD: usize = 8192;
    const OPS: usize = 8192;

    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6b76_7772);
        let mut used = BTreeSet::new();
        let mut big = OneIn::new(8);
        let preload: Vec<(u64, Vec<u8>)> = (0..Self::PRELOAD)
            .map(|_| (fresh_key(&mut rng, &mut used), kv_value(&mut rng, &mut big)))
            .collect();
        let mut fresh = OneIn::new(2);
        let ops = (0..Self::OPS)
            .map(|_| {
                let key = if fresh.next(&mut rng) {
                    fresh_key(&mut rng, &mut used)
                } else {
                    preload[rng.next_below(preload.len() as u64) as usize].0
                };
                (key, kv_value(&mut rng, &mut big))
            })
            .collect();
        KvWrite { preload, ops }
    }

    fn opts() -> MachineOpts {
        MachineOpts::preset(Preset::Paper).build()
    }

    fn pool_bytes(&self) -> u64 {
        let values: usize = self
            .preload
            .iter()
            .chain(&self.ops)
            .map(|(_, v)| v.len() + 96)
            .sum();
        values as u64 + (2 << 20)
    }
}

impl Workload for KvWrite {
    fn ops_per_round(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Setup, String> {
        let mut m = Machine::new(Self::opts(), SecurityMode::FsEncr);
        let map = create_mapped(&mut m, tr, Self::FILE, self.pool_bytes())?;
        let kv = BTreeKv::create(&mut m, 0, map).map_err(|e| format!("btree create: {e}"))?;
        for (k, v) in &self.preload {
            tr.span("workloads.kv_put", |_| kv.put(&mut m, 0, *k, v))
                .map_err(|e| format!("preload: {e}"))?;
        }

        m.crash();
        let report = tr.span("secmem.recover", |_| m.recover());
        if report.unrecoverable > 0 {
            return Err(format!(
                "recovery left {} unrecoverable lines",
                report.unrecoverable
            ));
        }
        let map = m
            .open(USER, &[GROUP], Self::FILE, AccessKind::Write, Some(PASS))
            .and_then(|h| m.mmap(&h))
            .map_err(|e| format!("reopen after recovery: {e}"))?;
        let kv = BTreeKv::open(&mut m, 0, map).map_err(|e| format!("btree open: {e}"))?;
        let mut buf = Vec::new();
        for (k, v) in &self.preload {
            let found = tr
                .span("workloads.kv_get", |_| kv.get(&mut m, 0, *k, &mut buf))
                .map_err(|e| format!("get {k:#x} after recovery: {e}"))?;
            if !found || buf != *v {
                return Err(format!("key {k:#x} lost or changed by recovery"));
            }
        }
        // The crash took the page tables with it.
        touch(&mut m, tr, map, self.pool_bytes())?;
        Ok(Setup {
            image: save(tr, &m)?,
            reports: vec![report],
        })
    }

    fn round(&self, image: &[u8], tr: &mut Tracer) -> Result<RoundOut, String> {
        let mut out = RoundOut {
            image_bytes: image.len() as u64,
            ..RoundOut::default()
        };
        let mut m = restore(tr, Self::opts(), SecurityMode::FsEncr, image)?;
        let kv = BTreeKv::attach(map_of(&m, Self::FILE)?);
        let before = m.snapshot();
        let plans0 = m.controller().batch_plan_stats();
        for (i, (k, v)) in self.ops.iter().enumerate() {
            let r = timed(&mut out.lat_ns, tr, i, |tr| {
                tr.span("workloads.kv_put", |_| kv.put(&mut m, 0, *k, v))
            });
            out.check(|| format!("put #{i}"), r);
        }
        out.kv_ops = self.ops.len() as u64;
        close_window(&mut out, &m, &before, plans0);

        // Read back the last value written to every key the round touched.
        let mut last: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, (k, _)) in self.ops.iter().enumerate() {
            last.insert(*k, i);
        }
        let mut buf = Vec::new();
        tr.span("bench.check", |tr| {
            for (&k, &i) in &last {
                let r = tr.span("workloads.kv_get", |_| kv.get(&mut m, 0, k, &mut buf));
                match out.check(|| format!("get {k:#x}"), r) {
                    Some(true) => out.expect_eq(|| format!("get {k:#x}"), &buf, &self.ops[i].1),
                    Some(false) => out.fail(format!("get {k:#x}: key missing")),
                    None => {}
                }
            }
        });
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// dax-read
// ---------------------------------------------------------------------

/// DAX-2-style 1-byte reads at a 128 B stride plus about one in eight
/// whole-page reads, over a seeded file larger than the metadata cache's
/// reach. The read path: dual-pad file engine, OTT lookups,
/// metadata-cache probes and verify climbs on misses.
pub struct DaxRead {
    pub(crate) content: Vec<u8>,
    /// `(offset, length)` of each read.
    pub(crate) ops: Vec<(u64, usize)>,
}

impl DaxRead {
    const FILE: &'static str = "dax-read.bin";
    const FILE_BYTES: u64 = 24 << 20;
    const STRIDE: u64 = 128;
    const OPS: usize = 65_536;
    /// Pages per setup region write.
    const CHUNK: u64 = 16 * PAGE;

    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6461_7872);
        let content = bytes(&mut rng, Self::FILE_BYTES as usize);
        let mut pos = rng.next_below(Self::FILE_BYTES / Self::STRIDE) * Self::STRIDE;
        let mut page_read = OneIn::new(8);
        let ops = (0..Self::OPS)
            .map(|_| {
                if page_read.next(&mut rng) {
                    (
                        rng.next_below(Self::FILE_BYTES / PAGE) * PAGE,
                        PAGE as usize,
                    )
                } else {
                    let at = pos;
                    pos = (pos + Self::STRIDE) % Self::FILE_BYTES;
                    (at, 1)
                }
            })
            .collect();
        DaxRead { content, ops }
    }

    fn opts() -> MachineOpts {
        MachineOpts::preset(Preset::Paper).build()
    }
}

impl Workload for DaxRead {
    fn ops_per_round(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Setup, String> {
        let mut m = Machine::new(Self::opts(), SecurityMode::FsEncr);
        let h = m
            .create(USER, GROUP, Self::FILE, Mode::PRIVATE, Some(PASS))
            .map_err(|e| format!("create: {e}"))?;
        let map = m.mmap(&h).map_err(|e| format!("mmap: {e}"))?;
        for (i, chunk) in self.content.chunks(Self::CHUNK as usize).enumerate() {
            let off = i as u64 * Self::CHUNK;
            tr.span("fsencr.write", |_| m.write(0, map, off, chunk))
                .map_err(|e| format!("write: {e}"))?;
            tr.span("fsencr.persist", |_| {
                m.persist(0, map, off, chunk.len() as u64)
            })
            .map_err(|e| format!("persist: {e}"))?;
        }
        Ok(Setup {
            image: save(tr, &m)?,
            reports: Vec::new(),
        })
    }

    fn round(&self, image: &[u8], tr: &mut Tracer) -> Result<RoundOut, String> {
        let mut out = RoundOut {
            image_bytes: image.len() as u64,
            ..RoundOut::default()
        };
        let mut m = restore(tr, Self::opts(), SecurityMode::FsEncr, image)?;
        let map = map_of(&m, Self::FILE)?;
        let before = m.snapshot();
        let plans0 = m.controller().batch_plan_stats();
        let mut buf = vec![0u8; PAGE as usize];
        for (i, &(off, len)) in self.ops.iter().enumerate() {
            let dst = &mut buf[..len];
            let r = timed(&mut out.lat_ns, tr, i, |tr| {
                tr.span("fsencr.read", |_| m.read(0, map, off, dst))
            });
            if out.check(|| format!("read {off:#x}+{len}"), r).is_some() {
                let want = &self.content[off as usize..off as usize + len];
                tr.span("bench.check", |_| {
                    out.expect_eq(|| format!("read {off:#x}+{len}"), &buf[..len], want)
                });
            }
        }
        close_window(&mut out, &m, &before, plans0);
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// sw-ycsb
// ---------------------------------------------------------------------

/// Zipfian (theta 0.99) 50/50 get/update through `HashKv` under the
/// software-encryption baseline, with a syscall per request and an
/// `msync` per update as in the paper's YCSB. The same crypto and NVM
/// layers through the eCryptfs model; the OTT and file engine stay idle.
///
/// A measured op is one get and one update in seeded order. Single
/// requests are bimodal (a get takes about a tenth of an update and its
/// `msync`), which would put a 50/50 mix's median on the gap between the
/// modes, where it flips with the seed's exact mix.
pub struct SwYcsb {
    pub(crate) preload: Vec<Vec<u8>>,
    /// Each op's two requests: `(record, Some(value))` is an update,
    /// `(record, None)` a get.
    pub(crate) ops: Vec<[(usize, Option<Vec<u8>>); 2]>,
}

impl SwYcsb {
    const FILE: &'static str = "sw-ycsb.db";
    const RECORDS: u64 = 16 * 1024;
    const VALUE_BYTES: usize = 128;
    const OPS: usize = 4096;

    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7963_7362);
        let preload = (0..Self::RECORDS)
            .map(|_| bytes(&mut rng, Self::VALUE_BYTES))
            .collect();
        let mut zipf = Zipfian::new(Self::RECORDS, 0.99, rng.next_u64());
        let ops = (0..Self::OPS)
            .map(|_| {
                let get = (zipf.sample() as usize, None);
                let update = (
                    zipf.sample() as usize,
                    Some(bytes(&mut rng, Self::VALUE_BYTES)),
                );
                if rng.next_below(2) == 0 {
                    [get, update]
                } else {
                    [update, get]
                }
            })
            .collect();
        SwYcsb { preload, ops }
    }

    fn opts() -> MachineOpts {
        MachineOpts::preset(Preset::Paper).build()
    }

    fn slots() -> u64 {
        (Self::RECORDS * 2).next_power_of_two()
    }

    fn key(rec: usize) -> u64 {
        rec as u64 + 1
    }
}

impl Workload for SwYcsb {
    fn ops_per_round(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Setup, String> {
        let mut m = Machine::new(Self::opts(), SecurityMode::Software);
        let map = create_mapped(&mut m, tr, Self::FILE, 4096 + Self::slots() * 192)?;
        let kv = HashKv::create(&mut m, 0, map, Self::slots(), Self::VALUE_BYTES as u64)
            .map_err(|e| format!("hash create: {e}"))?;
        for (rec, v) in self.preload.iter().enumerate() {
            tr.span("workloads.kv_put", |_| kv.put(&mut m, 0, Self::key(rec), v))
                .map_err(|e| format!("preload: {e}"))?;
        }
        tr.span("fs.msync", |_| m.msync(0, map, 0, 0))
            .map_err(|e| format!("msync: {e}"))?;
        Ok(Setup {
            image: save(tr, &m)?,
            reports: Vec::new(),
        })
    }

    fn round(&self, image: &[u8], tr: &mut Tracer) -> Result<RoundOut, String> {
        let mut out = RoundOut {
            image_bytes: image.len() as u64,
            ..RoundOut::default()
        };
        let mut m = restore(tr, Self::opts(), SecurityMode::Software, image)?;
        let map = map_of(&m, Self::FILE)?;
        let kv = HashKv::attach(map, Self::slots(), Self::VALUE_BYTES as u64);
        let mut shadow: Vec<&[u8]> = self.preload.iter().map(Vec::as_slice).collect();
        let before = m.snapshot();
        let plans0 = m.controller().batch_plan_stats();
        let mut buf = Vec::new();
        for (i, pair) in self.ops.iter().enumerate() {
            let results = timed(&mut out.lat_ns, tr, i, |tr| {
                pair.each_ref().map(|(rec, update)| {
                    let key = Self::key(*rec);
                    tr.span("fs.syscall", |_| m.syscall_overhead(0));
                    match update {
                        Some(v) => {
                            tr.span("workloads.kv_put", |_| kv.put(&mut m, 0, key, v))?;
                            tr.span("fs.msync", |_| m.msync(0, map, 0, 0))
                                .map(|()| true)
                        }
                        None => tr.span("workloads.kv_get", |_| kv.get(&mut m, 0, key, &mut buf)),
                    }
                })
            });
            // Checked in issue order, so a get after an update of the same
            // record expects the new value.
            for ((rec, update), r) in pair.iter().zip(results) {
                let key = Self::key(*rec);
                match (update, out.check(|| format!("request on {key}"), r)) {
                    (Some(v), Some(_)) => shadow[*rec] = v.as_slice(),
                    (None, Some(true)) => {
                        let want = shadow[*rec];
                        tr.span("bench.check", |_| {
                            out.expect_eq(|| format!("get {key}"), &buf, want)
                        });
                    }
                    (None, Some(false)) => out.fail(format!("get {key}: key missing")),
                    (_, None) => {}
                }
            }
        }
        out.kv_ops = 2 * self.ops.len() as u64;
        close_window(&mut out, &m, &before, plans0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dax(seed: u64) -> DaxRead {
        let mut rng = SplitMix64::new(seed);
        let content = bytes(&mut rng, 16 * PAGE as usize);
        let ops = (0..64u64)
            .map(|i| {
                if i % 8 == 0 {
                    ((i % 16) * PAGE, PAGE as usize)
                } else {
                    (i * 128, 1)
                }
            })
            .collect();
        DaxRead { content, ops }
    }

    fn run(w: &dyn Workload) -> (RoundOut, RoundOut) {
        let image = w.setup(&mut Tracer::new(false)).expect("setup").image;
        let a = w.round(&image, &mut Tracer::new(false)).expect("round");
        let b = w
            .round(&image, &mut Tracer::new(true))
            .expect("traced round");
        (a, b)
    }

    #[test]
    fn rounds_pass_their_checks_and_repeat_exactly() {
        let mut kv = KvWrite::generate(3);
        kv.preload.truncate(64);
        kv.ops.truncate(48);
        let mut ycsb = SwYcsb::generate(3);
        ycsb.ops.truncate(32);
        let workloads: [&dyn Workload; 3] = [&kv, &tiny_dax(3), &ycsb];
        for w in workloads {
            let (a, b) = run(w);
            assert_eq!((a.failed, b.failed), (0, 0), "{:?}", a.failures);
            assert!(a.attempted >= w.ops_per_round() as u64);
            assert_eq!(a.lat_ns.len(), w.ops_per_round());
            // Tracing changes no simulated behaviour.
            assert_eq!(
                format!("{:?}{:?}", a.window, a.root),
                format!("{:?}{:?}", b.window, b.root)
            );
        }
    }

    /// Negative control: a shadow that disagrees with what the simulator
    /// stored must surface as failed ops.
    #[test]
    fn planted_shadow_mismatch_counts_as_failure() {
        let mut w = tiny_dax(5);
        let image = w.setup(&mut Tracer::new(false)).expect("setup").image;
        w.content[128] ^= 0x01;
        let out = w.round(&image, &mut Tracer::new(false)).expect("round");
        assert!(out.failed >= 1, "planted mismatch went unnoticed");
        assert!(out
            .failures
            .iter()
            .any(|f| f.contains("differs from shadow")));
    }

    #[test]
    fn the_seed_drives_the_inputs() {
        let (a, b) = (KvWrite::generate(1), KvWrite::generate(2));
        assert_eq!(KvWrite::generate(1).ops, a.ops);
        assert_ne!(a.ops, b.ops);
        // Stratified mixes hold exactly: one value in eight is 4 KiB.
        let big = a.ops.iter().filter(|(_, v)| v.len() == 4096).count();
        assert_eq!(big, a.ops.len() / 8);
    }
}
