//! Unit costs of the layers' public kernels, for the traced run's ledger.
//!
//! Each kernel is timed in several short windows on fixed inputs and the
//! median per-unit cost is kept. Multiplied by the window's simulated
//! counts, a unit cost estimates how much of a round's host time that
//! kernel took (`*.est_s`); what no estimate or span covers is reported
//! as `bench.unattributed_share`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fsencr_crypto::{ctr_pads_n, digest8_lines4, Aes128, Key128, PadDomain, PadInput};
use fsencr_nvm::{LineAddr, NvmDevice, PageId, PhysAddr};
use fsencr_secmem::{MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

const WINDOWS: usize = 5;
const WINDOW: Duration = Duration::from_millis(20);

/// Host nanoseconds per unit of work of each kernel.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One 64-byte CTR pad (`ctr_pads_n`, four lanes).
    pub pad_ns: f64,
    /// One line digest (`digest8_lines4`, per lane).
    pub digest_ns: f64,
    /// One `NvmDevice::read_line`.
    pub nvm_read_ns: f64,
    /// One `NvmDevice::write_line`.
    pub nvm_write_ns: f64,
    /// One line of a cold 64-line `MetadataSystem::verify_lines`.
    pub verify_line_ns: f64,
    /// One block of a 64-block `MetadataSystem::persist_blocks`.
    pub persist_block_ns: f64,
}

/// Median over [`WINDOWS`] windows of nanoseconds per unit. `step` does
/// some units of work and returns how many it did plus the time to
/// charge (which lets it exclude its own preparation).
fn per_unit(mut step: impl FnMut() -> (u64, Duration)) -> f64 {
    step();
    let mut rates: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let (mut units, mut spent) = (0u64, Duration::ZERO);
            let start = Instant::now();
            while start.elapsed() < WINDOW {
                let (u, d) = step();
                units += u;
                spent += d;
            }
            spent.as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[WINDOWS / 2]
}

/// Times `f` and returns `(units, elapsed)`.
fn clocked(units: u64, f: impl FnOnce()) -> (u64, Duration) {
    let t = Instant::now();
    f();
    (units, t.elapsed())
}

/// A populated 64-leaf Merkle tree behind a metadata cache of
/// `cache_lines` lines (as in `harness bench`'s region measurements).
fn merkle(cache_lines: usize) -> (MetadataSystem, NvmDevice, Vec<LineAddr>, Cycle) {
    const REGION: u64 = 64;
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
    let addrs: Vec<LineAddr> = (0..REGION)
        .map(|p| sys.layout().mecb_addr(PageId::new(p)))
        .collect();
    let mut t = Cycle::ZERO;
    for (i, &addr) in addrs.iter().enumerate() {
        let fill = u8::try_from(i % 255).unwrap_or(0) + 1;
        t = sys
            .write_block(&mut nvm, t, addr, [fill; 64])
            .map_or(t, |a| a.done);
    }
    t = sys.flush(&mut nvm, t);
    (sys, nvm, addrs, t)
}

/// Measures every unit cost (about half a second).
pub fn calibrate() -> UnitCosts {
    let aes = Aes128::new(&Key128::from_seed(0xca1b));
    let mut input = PadInput {
        page_id: 0x88,
        block_in_page: 5,
        major: 3,
        minor: 0,
        domain: PadDomain::File,
    };
    let mut pad = [0u8; 64];
    let pad_ns = per_unit(|| {
        clocked(256, || {
            for _ in 0..256 {
                input.minor = input.minor.wrapping_add(1) & 0x7f;
                ctr_pads_n(&aes, &input, 4, &mut pad);
                black_box(&pad);
            }
        })
    });

    let mut lines = [[0u8; 64]; 4];
    for (i, line) in lines.iter_mut().enumerate() {
        line.fill(
            u8::try_from(i)
                .unwrap_or(0)
                .wrapping_mul(67)
                .wrapping_add(5),
        );
    }
    let digest_ns = per_unit(|| {
        clocked(4 * 256, || {
            for _ in 0..256 {
                let [l0, l1, l2, l3] = &lines;
                let d = digest8_lines4([l0, l1, l2, l3]);
                for (line, digest) in lines.iter_mut().zip(d) {
                    line[..8].copy_from_slice(&digest);
                }
            }
        })
    });

    let mut nvm = NvmDevice::new(NvmConfig::default());
    let addrs: Vec<PhysAddr> = (0..4096u64)
        .map(|i| PhysAddr::new(i * 64 * 37 % (16 << 20)))
        .collect();
    let mut now = Cycle::ZERO;
    let line = [0x5au8; 64];
    let nvm_write_ns = per_unit(|| {
        clocked(addrs.len() as u64, || {
            for &a in &addrs {
                now = nvm.write_line(now, a, &line);
            }
        })
    });
    let nvm_read_ns = per_unit(|| {
        clocked(addrs.len() as u64, || {
            for &a in &addrs {
                let (data, t) = nvm.read_line(now, a);
                black_box(data);
                now = t;
            }
        })
    });

    let (mut sys, mut nvm, leaves, _) = merkle(8);
    let verify_line_ns = per_unit(|| {
        sys.crash();
        clocked(leaves.len() as u64, || {
            black_box(sys.verify_lines(&mut nvm, Cycle::ZERO, &leaves).is_ok());
        })
    });
    let (mut sys, mut nvm, leaves, mut t) = merkle(256);
    let mut v = 0u8;
    let persist_block_ns = per_unit(|| {
        v = v.wrapping_add(1);
        for (i, &addr) in leaves.iter().enumerate() {
            let fill = v ^ u8::try_from(i % 256).unwrap_or(0);
            t = sys
                .write_block(&mut nvm, t, addr, [fill; 64])
                .map_or(t, |a| a.done);
        }
        clocked(leaves.len() as u64, || {
            t = sys.persist_blocks(&mut nvm, t, &leaves).unwrap_or(t);
        })
    });

    UnitCosts {
        pad_ns,
        digest_ns,
        nvm_read_ns,
        nvm_write_ns,
        verify_line_ns,
        persist_block_ns,
    }
}
