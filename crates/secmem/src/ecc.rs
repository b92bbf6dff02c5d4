//! Osiris ECC emulation.
//!
//! Osiris (MICRO'18) observes that the ECC bits stored with every data line
//! can double as a counter-recovery oracle: decrypt the line with a
//! candidate counter, check the ECC, and the counter that yields a clean
//! check is the one that encrypted the line. Real hardware gets this for
//! free from the DIMM's ECC lanes; the simulator emulates the lanes with a
//! side store holding an 8-byte truncated SHA-256 tag of each line's
//! *plaintext*. The tag is written atomically with the data line (it
//! physically rides in the same burst) and is **not** addressable memory —
//! an attacker scanning the DIMM address space never sees it, and it leaks
//! nothing usable (a 64-bit truncated hash of encrypted-at-rest content).
//! Up to three writes wait in a host-side pending quad until four can be
//! hashed together; their plaintext is never serialized or printed.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use fsencr_crypto::{digest8_line_tail, digest8_line_tails4};
use fsencr_nvm::{LineAddr, LINE_BYTES};

/// Multiply-shift hasher for the `u64` line-address keys of the tag
/// map, after the batch table's `LineKeyHasher`. Line addresses are
/// 64-byte aligned, so the product's high half is folded into the low
/// bits the table indexes by. Keys are simulator addresses, not
/// attacker input, so SipHash's DoS hardening buys nothing here.
#[derive(Default)]
struct LineAddrHasher(u64);

impl Hasher for LineAddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type TagMap = HashMap<u64, [u8; 8], BuildHasherDefault<LineAddrHasher>>;

/// Per-line ECC tags over plaintext, the Osiris recovery oracle. A
/// line's tag is the first 8 bytes of SHA-256(plaintext ‖ line address,
/// little-endian).
///
/// Tags are hashed four at a time: [`EccStore::record`] queues the write
/// in a pending quad and hashes the full quad with the four-lane kernel.
/// Every reader folds the pending records in, so the store behaves as if
/// each tag were computed at its write.
///
/// # Examples
///
/// ```
/// use fsencr_secmem::EccStore;
/// use fsencr_nvm::LineAddr;
///
/// let mut ecc = EccStore::new();
/// let line = LineAddr::new(0x1000);
/// ecc.record(line, &[1u8; 64]);
/// assert!(ecc.check(line, &[1u8; 64]));
/// assert!(!ecc.check(line, &[2u8; 64]));
/// ```
#[derive(Default, Clone)]
pub struct EccStore {
    tags: TagMap,
    /// Up to three records awaiting a four-lane hash, oldest first. A
    /// line may appear more than once; its latest record wins.
    pending: Vec<(u64, [u8; LINE_BYTES])>,
}

impl fmt::Debug for EccStore {
    /// Shows tags and pending line addresses, never pending plaintext.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pending: Vec<u64> = self.pending.iter().map(|(l, _)| *l).collect();
        f.debug_struct("EccStore")
            .field("tags", &self.tags)
            .field("pending_lines", &pending)
            .finish()
    }
}

impl EccStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        EccStore::default()
    }

    /// Records the ECC tag for a line being written with `plaintext`.
    pub fn record(&mut self, line: LineAddr, plaintext: &[u8; 64]) {
        self.pending.push((line.get(), *plaintext));
        if let [(l0, p0), (l1, p1), (l2, p2), (l3, p3)] = &self.pending[..] {
            let tags = digest8_line_tails4([p0, p1, p2, p3], [*l0, *l1, *l2, *l3]);
            // Insert in record order so a later write to a line wins.
            for (&(line, _), tag) in self.pending.iter().zip(tags) {
                self.tags.insert(line, tag);
            }
            self.pending.clear();
        }
    }

    fn is_pending(&self, line: u64) -> bool {
        self.pending.iter().any(|(l, _)| *l == line)
    }

    /// The latest pending record of each pending line.
    fn pending_latest(&self) -> impl Iterator<Item = &(u64, [u8; LINE_BYTES])> + '_ {
        let p = &self.pending;
        (0..p.len())
            .filter(move |&i| !p[i + 1..].iter().any(|(l, _)| *l == p[i].0))
            .map(move |i| &p[i])
    }

    /// Checks a candidate plaintext against the stored tag. Lines that were
    /// never written have no tag and fail the check.
    pub fn check(&self, line: LineAddr, plaintext: &[u8; 64]) -> bool {
        let key = line.get();
        let stored = match self.pending.iter().rev().find(|(l, _)| *l == key) {
            Some((_, p)) => digest8_line_tail(p, key),
            None => match self.tags.get(&key) {
                Some(t) => *t,
                None => return false,
            },
        };
        stored == digest8_line_tail(plaintext, key)
    }

    /// Whether a tag exists for this line (the line was written at least
    /// once).
    pub fn has_tag(&self, line: LineAddr) -> bool {
        self.is_pending(line.get()) || self.tags.contains_key(&line.get())
    }

    /// Drops the tag (page shredding).
    pub fn clear(&mut self, line: LineAddr) {
        self.pending.retain(|(l, _)| *l != line.get());
        self.tags.remove(&line.get());
    }

    /// Iterates every tagged line (recovery walks this instead of the
    /// whole address space).
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .keys()
            .copied()
            .filter(|k| !self.is_pending(*k))
            .chain(self.pending_latest().map(|(l, _)| *l))
            .map(LineAddr::new)
    }

    /// Number of tagged lines.
    pub fn len(&self) -> usize {
        let pending_only = self
            .pending_latest()
            .filter(|(l, _)| !self.tags.contains_key(l))
            .count();
        self.tags.len() + pending_only
    }

    /// Whether no lines are tagged.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty() && self.pending.is_empty()
    }

    /// Serializes every tag in sorted line order.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut entries: Vec<(u64, [u8; 8])> = Vec::with_capacity(self.len());
        entries.extend(
            self.tags
                .iter()
                .filter(|(k, _)| !self.is_pending(**k))
                .map(|(k, v)| (*k, *v)),
        );
        entries.extend(
            self.pending_latest()
                .map(|(l, p)| (*l, digest8_line_tail(p, *l))),
        );
        entries.sort_unstable_by_key(|(k, _)| *k);
        enc.put_u64(entries.len() as u64);
        for (line, tag) in entries {
            enc.put_u64(line);
            enc.put_bytes(&tag);
        }
    }

    /// Restores a store from [`EccStore::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<EccStore, fsencr_snapshot::SnapError> {
        let n = dec.get_len()?;
        let mut tags = TagMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let line = dec.get_u64()?;
            let tag = dec.get_arr8()?;
            tags.insert(line, tag);
        }
        Ok(EccStore {
            tags,
            pending: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_check() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(64);
        assert!(!ecc.has_tag(line));
        assert!(!ecc.check(line, &[0u8; 64]));
        ecc.record(line, &[5u8; 64]);
        assert!(ecc.has_tag(line));
        assert!(ecc.check(line, &[5u8; 64]));
        assert!(!ecc.check(line, &[6u8; 64]));
    }

    #[test]
    fn tag_binds_address() {
        // The same plaintext at a different address has a different tag,
        // so recovery can't confuse relocated lines.
        let mut ecc = EccStore::new();
        ecc.record(LineAddr::new(0), &[9u8; 64]);
        assert!(!ecc.check(LineAddr::new(64), &[9u8; 64]));
    }

    #[test]
    fn rewrite_replaces_tag() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(128);
        ecc.record(line, &[1u8; 64]);
        ecc.record(line, &[2u8; 64]);
        assert!(!ecc.check(line, &[1u8; 64]));
        assert!(ecc.check(line, &[2u8; 64]));
        assert_eq!(ecc.len(), 1);
    }

    #[test]
    fn clear_removes() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(0);
        ecc.record(line, &[1u8; 64]);
        ecc.clear(line);
        assert!(ecc.is_empty());
        assert!(!ecc.check(line, &[1u8; 64]));
    }
}

/// Model-based equivalence: the pending-quad store against a plain map
/// of tags each computed at its write with streaming SHA-256.
#[cfg(test)]
mod model {
    use std::collections::{BTreeSet, HashMap};

    use fsencr_crypto::sha256;
    use fsencr_snapshot::{Dec, Enc};
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;

    /// Few lines, so random sequences rewrite and clear lines while
    /// they are still pending.
    const LINES: u64 = 6;

    #[derive(Debug, Clone)]
    enum Op {
        Record { line: u64, fill: u8 },
        Clear { line: u64 },
        Check { line: u64, fill: u8 },
        Snapshot { reload: bool },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0..LINES, 0u8..4).prop_map(|(line, fill)| Op::Record { line, fill }),
            2 => (0..LINES).prop_map(|line| Op::Clear { line }),
            3 => (0..LINES, 0u8..4).prop_map(|(line, fill)| Op::Check { line, fill }),
            2 => any::<bool>().prop_map(|reload| Op::Snapshot { reload }),
        ]
    }

    fn addr(line: u64) -> LineAddr {
        LineAddr::new(line * 64)
    }

    fn plaintext(line: u64, fill: u8) -> [u8; 64] {
        std::array::from_fn(|i| fill.wrapping_mul(37) ^ (line as u8) ^ i as u8)
    }

    fn streaming_tag(line: LineAddr, plaintext: &[u8; 64]) -> [u8; 8] {
        let mut msg = plaintext.to_vec();
        msg.extend_from_slice(&line.get().to_le_bytes());
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&sha256(&msg)[..8]);
        tag
    }

    fn encode(put: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.begin_section("ecc");
        put(&mut enc);
        enc.end_section();
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> EccStore {
        let mut dec = Dec::new(bytes).expect("magic");
        dec.begin_section("ecc").expect("section");
        let store = EccStore::snap_load(&mut dec).expect("decodes");
        dec.end_section().expect("drained");
        store
    }

    /// Which pending-quad edge cases a replay reached.
    #[derive(Debug, Default)]
    struct Coverage {
        rerecord_pending: u32,
        clear_pending: u32,
        /// Snapshots taken with 1, 2 and 3 records pending.
        snap_pending: [u32; 3],
    }

    fn replay(ops: &[Op], cov: &mut Coverage) -> Result<(), TestCaseError> {
        let mut store = EccStore::new();
        let mut model: HashMap<u64, [u8; 8]> = HashMap::new();
        for op in ops {
            match *op {
                Op::Record { line, fill } => {
                    if store.is_pending(addr(line).get()) {
                        cov.rerecord_pending += 1;
                    }
                    let p = plaintext(line, fill);
                    store.record(addr(line), &p);
                    model.insert(addr(line).get(), streaming_tag(addr(line), &p));
                }
                Op::Clear { line } => {
                    if store.is_pending(addr(line).get()) {
                        cov.clear_pending += 1;
                    }
                    store.clear(addr(line));
                    model.remove(&addr(line).get());
                }
                Op::Check { line, fill } => {
                    let p = plaintext(line, fill);
                    let want = model.get(&addr(line).get()) == Some(&streaming_tag(addr(line), &p));
                    prop_assert_eq!(store.check(addr(line), &p), want, "check {:?}", op);
                }
                Op::Snapshot { reload } => {
                    if (1..=3).contains(&store.pending.len()) {
                        cov.snap_pending[store.pending.len() - 1] += 1;
                    }
                    let mut sorted: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
                    sorted.sort_unstable();
                    let want = encode(|enc| {
                        enc.put_u64(sorted.len() as u64);
                        for (line, tag) in &sorted {
                            enc.put_u64(*line);
                            enc.put_bytes(tag);
                        }
                    });
                    let got = encode(|enc| store.snap_save(enc));
                    prop_assert_eq!(&got, &want, "snap_save bytes");
                    let loaded = decode(&got);
                    prop_assert_eq!(
                        encode(|enc| loaded.snap_save(enc)),
                        want,
                        "snap_load round-trip"
                    );
                    if reload {
                        store = loaded;
                    }
                }
            }
            for line in 0..LINES {
                prop_assert_eq!(
                    store.has_tag(addr(line)),
                    model.contains_key(&addr(line).get())
                );
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
            let lines: Vec<u64> = store.lines().map(|l| l.get()).collect();
            let set: BTreeSet<u64> = lines.iter().copied().collect();
            prop_assert_eq!(lines.len(), set.len(), "lines() repeats a line");
            prop_assert_eq!(set, model.keys().copied().collect::<BTreeSet<u64>>());
        }
        Ok(())
    }

    fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(op_strategy(), 1..48)
    }

    proptest! {
        #[test]
        fn pending_quad_store_matches_streaming_model(ops in ops_strategy()) {
            replay(&ops, &mut Coverage::default())?;
        }
    }

    #[test]
    fn generator_reaches_every_pending_edge_case() {
        let mut rng = TestRng::new(0xECC_0001);
        let mut cov = Coverage::default();
        for _ in 0..64 {
            replay(&ops_strategy().sample(&mut rng), &mut cov).expect("model agrees");
        }
        assert!(cov.rerecord_pending > 0, "{cov:?}");
        assert!(cov.clear_pending > 0, "{cov:?}");
        assert!(cov.snap_pending.iter().all(|&n| n > 0), "{cov:?}");
    }
}
