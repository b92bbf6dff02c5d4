//! The harness's result store: one content-addressed object directory.
//!
//! Every figure decomposes into independent cells — one `(workload,
//! security mode, machine config)` simulation each — and each cell is a
//! pure function of its inputs and of the code that simulates it. The
//! store memoizes two kinds of object in one directory (`CACHE/`):
//!
//! * [`Kind::Cell`] (`<key>.cell`): a finished cell's [`RunStats`],
//!   keyed by the workload's full
//!   [`spec()`](fsencr_workloads::driver::Workload::spec). A hit skips
//!   the simulation.
//! * [`Kind::Setup`] (`<key>.snap`): a post-setup machine image, keyed by
//!   [`setup_spec()`](fsencr_workloads::driver::Workload::setup_spec),
//!   the setup-only parameter subset. A cell that misses its result
//!   still restores the image and skips straight to measurement; one
//!   image serves every scale of a cell, and setups shared between
//!   workloads (DAX-1/DAX-2, the preloading PMEMKV benches) are
//!   simulated once.
//!
//! Both kinds are `fsencr-snap/1` streams. A cell object is one section
//! holding the ten `RunStats` fields as `u64`s, the two rates as
//! `f64::to_bits`, so a hit reproduces the simulated result bit for bit.
//! An object that fails the codec's digest chain (truncated, bit-flipped)
//! reads as a miss, so only that one cell re-simulates.
//!
//! Every key hashes the build's behaviour fingerprint: a digest of every
//! result-producing crate's sources plus `Cargo.lock`, computed by
//! `build.rs`. Objects written by any other build are orphaned by
//! construction and never served; `rm -rf CACHE/` reclaims them.
//!
//! The store is process-global (cells run on pool worker threads) and
//! disabled by default; the `harness` binary enables it for figure
//! subcommands only. `harness bench` and `harness profile` keep it off:
//! `bench` times the engine, and a warm store would skip the very work
//! being measured. The store is an accelerator, never a dependency:
//! every failure degrades to a fresh simulation with identical output.

use std::path::PathBuf;
use std::sync::Mutex;

use fsencr::machine::{MachineOpts, RunStats, SecurityMode};
use fsencr_crypto::sha256;
use fsencr_snapshot::{Dec, Enc, SnapError};

/// Digest of every source file that can change a simulated result.
const FINGERPRINT: &str = env!("FSENCR_BEHAVIOUR_FINGERPRINT");

/// The status tag of a stored object; it is also the file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A finished cell's [`RunStats`].
    Cell,
    /// A post-setup machine snapshot.
    Setup,
}

impl Kind {
    fn ext(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Setup => "snap",
        }
    }
}

/// Per-kind lookup and write counters since [`configure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Lookups that found a valid object.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Objects written.
    pub puts: u64,
}

struct Store {
    dir: PathBuf,
    salt: String,
    counts: [Counts; 2],
}

static STORE: Mutex<Option<Store>> = Mutex::new(None);

/// Serializes the tests that reconfigure the process-global store.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

fn with_store<T>(f: impl FnOnce(&mut Option<Store>) -> T) -> T {
    let mut guard = STORE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(&mut guard)
}

/// Enables the store backed by directory `dir` (created on first
/// write), or disables it with `None`. Resets the counters.
pub fn configure(dir: Option<PathBuf>) {
    configure_salted(dir, FINGERPRINT);
}

/// [`configure`] under an explicit salt, so a test can stand in for a
/// build with different sources.
pub(crate) fn configure_salted(dir: Option<PathBuf>, salt: &str) {
    with_store(|store| {
        *store =
            dir.map(|dir| Store { dir, salt: salt.to_string(), counts: [Counts::default(); 2] });
    });
}

/// Whether a store is currently configured.
pub(crate) fn is_enabled() -> bool {
    with_store(|store| store.is_some())
}

/// The counters of `kind` since [`configure`] (zeros when disabled).
pub fn counts(kind: Kind) -> Counts {
    with_store(|store| store.as_ref().map_or_else(Counts::default, |s| s.counts[kind as usize]))
}

/// The content-addressed key of one object, salted with the configured
/// store's fingerprint.
///
/// Field separators are `\x1f` (ASCII unit separator), which cannot
/// appear in labels, `Debug` renderings or spec strings, so distinct
/// inputs cannot collide by concatenation. [`Kind::Setup`] keys take an
/// empty label: one image serves every cell whose setup matches.
pub(crate) fn key(
    kind: Kind,
    label: &str,
    mode: SecurityMode,
    opts: &MachineOpts,
    spec: &str,
) -> String {
    let salt = with_store(|store| store.as_ref().map(|s| s.salt.clone()));
    let salt = salt.as_deref().unwrap_or(FINGERPRINT);
    let material = [salt, kind.ext(), label, &mode.to_string(), &format!("{opts:?}"), spec];
    sha256(material.join("\x1f").as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
}

fn object_path(kind: Kind, key: &str) -> Option<PathBuf> {
    with_store(|store| store.as_ref().map(|s| s.dir.join(format!("{key}.{}", kind.ext()))))
}

fn count(kind: Kind, f: impl FnOnce(&mut Counts)) {
    with_store(|store| {
        if let Some(s) = store.as_mut() {
            f(&mut s.counts[kind as usize]);
        }
    });
}

/// Fetches the object `key` of `kind`, if the store is enabled and holds
/// one whose digest chain verifies. Counts a hit or a miss.
pub(crate) fn get(kind: Kind, key: &str) -> Option<Vec<u8>> {
    let path = object_path(kind, key)?;
    let bytes = std::fs::read(path).ok().filter(|bytes| fsencr_snapshot::describe(bytes).is_ok());
    count(kind, |c| if bytes.is_some() { c.hits += 1 } else { c.misses += 1 });
    bytes
}

/// Writes the object `key` of `kind` at once, so a later cell in the
/// same run already hits. A no-op when disabled; write failures are
/// swallowed.
pub(crate) fn put(kind: Kind, key: &str, bytes: &[u8]) {
    let Some(path) = object_path(kind, key) else { return };
    let written = path.parent().is_some_and(|dir| std::fs::create_dir_all(dir).is_ok())
        && std::fs::write(&path, bytes).is_ok();
    if written {
        count(kind, |c| c.puts += 1);
    }
}

const STATS_SECTION: &str = "run-stats";

/// Encodes `stats` as a one-section `fsencr-snap/1` cell object.
pub(crate) fn encode_stats(stats: &RunStats) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section(STATS_SECTION);
    for v in [
        stats.cycles,
        stats.nvm_reads,
        stats.nvm_writes,
        stats.meta_hit_rate.to_bits(),
        stats.ott_hits,
        stats.ott_misses,
        stats.file_accesses,
        stats.tlb_hit_rate.to_bits(),
        stats.read_p50,
        stats.read_p99,
    ] {
        enc.put_u64(v);
    }
    enc.end_section();
    enc.finish()
}

/// Decodes a cell object written by [`encode_stats`]; `None` for any
/// other byte string.
pub(crate) fn decode_stats(bytes: &[u8]) -> Option<RunStats> {
    let decode = || -> Result<RunStats, SnapError> {
        let mut dec = Dec::new(bytes)?;
        dec.begin_section(STATS_SECTION)?;
        let stats = RunStats {
            cycles: dec.get_u64()?,
            nvm_reads: dec.get_u64()?,
            nvm_writes: dec.get_u64()?,
            meta_hit_rate: f64::from_bits(dec.get_u64()?),
            ott_hits: dec.get_u64()?,
            ott_misses: dec.get_u64()?,
            file_accesses: dec.get_u64()?,
            tlb_hit_rate: f64::from_bits(dec.get_u64()?),
            read_p50: dec.get_u64()?,
            read_p99: dec.get_u64()?,
        };
        dec.end_section()?;
        dec.finish()?;
        Ok(stats)
    };
    decode().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr::machine::Preset;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fsencr-store-{tag}-{}", std::process::id()))
    }

    fn sample() -> RunStats {
        RunStats {
            cycles: 123_456_789_012,
            nvm_reads: 42,
            nvm_writes: 7,
            meta_hit_rate: 0.1 + 0.2, // deliberately non-representable
            ott_hits: 5,
            ott_misses: 3,
            file_accesses: 11,
            tlb_hit_rate: 1.0 / 3.0,
            read_p50: 250,
            read_p99: u64::MAX,
        }
    }

    fn assert_bit_identical(a: &RunStats, b: &RunStats) {
        assert_eq!(encode_stats(a), encode_stats(b));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.nvm_reads, b.nvm_reads);
        assert_eq!(a.nvm_writes, b.nvm_writes);
        assert_eq!(a.meta_hit_rate.to_bits(), b.meta_hit_rate.to_bits());
        assert_eq!(a.ott_hits, b.ott_hits);
        assert_eq!(a.ott_misses, b.ott_misses);
        assert_eq!(a.file_accesses, b.file_accesses);
        assert_eq!(a.tlb_hit_rate.to_bits(), b.tlb_hit_rate.to_bits());
        assert_eq!(a.read_p50, b.read_p50);
        assert_eq!(a.read_p99, b.read_p99);
    }

    #[test]
    fn run_stats_round_trip_is_bit_exact() {
        for stats in [
            sample(),
            RunStats { meta_hit_rate: f64::NAN, tlb_hit_rate: -0.0, ..sample() },
            RunStats::default(),
        ] {
            let decoded = decode_stats(&encode_stats(&stats)).expect("round trip");
            assert_bit_identical(&stats, &decoded);
        }
        assert!(decode_stats(b"not an object").is_none());
    }

    #[test]
    fn keys_separate_every_input() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let opts = MachineOpts::small_test();
        let mode = SecurityMode::FsEncr;
        for kind in [Kind::Cell, Kind::Setup] {
            let base = key(kind, "w", mode, &opts, "w(n=1)");
            assert_eq!(base.len(), 64);
            assert_eq!(base, key(kind, "w", mode, &opts, "w(n=1)"), "keys are stable");
            assert_ne!(base, key(kind, "w2", mode, &opts, "w(n=1)"));
            assert_ne!(base, key(kind, "w", SecurityMode::MemoryOnly, &opts, "w(n=1)"));
            assert_ne!(base, key(kind, "w", mode, &opts, "w(n=2)"));
            let other = MachineOpts::preset(Preset::SmallTest).ott_latency_cycles(999).build();
            assert_ne!(base, key(kind, "w", mode, &other, "w(n=1)"));
        }
    }

    #[test]
    fn salt_separates_keys() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = temp_dir("salt");
        let opts = MachineOpts::small_test();
        let keyed = |salt: &str| {
            configure_salted(Some(dir.clone()), salt);
            key(Kind::Cell, "w", SecurityMode::FsEncr, &opts, "w(n=1)")
        };
        let (a, b) = (keyed("salt-A"), keyed("salt-B"));
        configure(None);
        assert_ne!(a, b);
        assert_eq!(key(Kind::Cell, "w", SecurityMode::FsEncr, &opts, "w(n=1)"), keyed(FINGERPRINT));
        configure(None);
    }

    #[test]
    fn cell_and_setup_keys_never_collide() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let opts = MachineOpts::small_test();
        for label in ["", "w", "snapshot"] {
            assert_ne!(
                key(Kind::Cell, label, SecurityMode::FsEncr, &opts, "w-setup(n=1)"),
                key(Kind::Setup, label, SecurityMode::FsEncr, &opts, "w-setup(n=1)"),
                "label {label:?}"
            );
        }
    }

    #[test]
    fn round_trips_objects_and_counts_per_kind() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = temp_dir("rt");
        std::fs::remove_dir_all(&dir).ok();
        configure(Some(dir.clone()));
        assert!(is_enabled());
        let cell = encode_stats(&sample());
        assert_eq!(get(Kind::Cell, "k1"), None);
        put(Kind::Cell, "k1", &cell);
        assert_eq!(get(Kind::Cell, "k1").as_deref(), Some(&cell[..]));
        assert!(dir.join("k1.cell").is_file(), "the kind is the file extension");
        // The same key under the other kind is a different object.
        assert_eq!(get(Kind::Setup, "k1"), None);
        put(Kind::Setup, "k1", &cell);
        assert!(dir.join("k1.snap").is_file());
        assert_eq!(counts(Kind::Cell), Counts { hits: 1, misses: 1, puts: 1 });
        assert_eq!(counts(Kind::Setup), Counts { hits: 0, misses: 1, puts: 1 });
        configure(None);
        assert!(!is_enabled());
        assert_eq!(get(Kind::Cell, "k1"), None, "a disabled store never serves");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_or_bit_flipped_cell_reads_as_miss() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = temp_dir("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        configure(Some(dir.clone()));
        let good = encode_stats(&sample());
        put(Kind::Cell, "k", &good);
        let path = dir.join("k.cell");
        let mut damaged = vec![good[..good.len() - 1].to_vec(), good[..good.len() / 2].to_vec()];
        for bit in [0, 8 * 20, 8 * (good.len() - 1) + 7] {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            damaged.push(flipped);
        }
        for bytes in &damaged {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(get(Kind::Cell, "k"), None);
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(get(Kind::Cell, "k").as_deref(), Some(&good[..]));
        let n = damaged.len() as u64;
        assert_eq!(counts(Kind::Cell), Counts { hits: 1, misses: n, puts: 1 });
        configure(None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_store_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        configure(None);
        for kind in [Kind::Cell, Kind::Setup] {
            put(kind, "k", b"bytes");
            assert_eq!(get(kind, "k"), None);
            assert_eq!(counts(kind), Counts::default());
        }
    }
}
