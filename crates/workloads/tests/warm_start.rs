//! Warm-start equivalence: a run whose setup is skipped by restoring a
//! post-setup snapshot measures *exactly* the same statistics as a run
//! whose setup executed in-process. This is the property that lets the
//! bench harness cache post-warmup machine images — the figures must not
//! depend on which path produced them.

use fsencr::machine::{MachineOpts, Preset, SecurityMode};
use fsencr_workloads::daxmicro::{DaxStride, DaxSwap};
use fsencr_workloads::driver::{run_workload_warm, Workload};
use fsencr_workloads::pmemkv::{DbBench, PmemKv};
use fsencr_workloads::whisper::{CtreeBench, HashmapBench, Ycsb};

/// Runs `make()` cold, then a fresh instance warm from the cold run's
/// snapshot, and asserts the measured stats are identical.
fn assert_warm_matches_cold<W: Workload>(mut cold: W, mut warm: W, mode: SecurityMode) {
    let opts = MachineOpts::small_test();
    let cold_run = run_workload_warm(opts, mode, &mut cold, None).unwrap();
    assert!(!cold_run.warm, "no snapshot offered, must run cold");
    let bytes = cold_run
        .snapshot
        .expect("warm-start-capable workload must emit a snapshot after cold setup");
    let warm_run = run_workload_warm(opts, mode, &mut warm, Some(&bytes)).unwrap();
    assert!(warm_run.warm, "restore from a matching snapshot must succeed");
    assert!(warm_run.snapshot.is_none(), "warm runs emit no new snapshot");
    assert_eq!(
        format!("{:?}", cold_run.result.stats),
        format!("{:?}", warm_run.result.stats),
        "warm-start run diverged from the cold run"
    );
}

#[test]
fn dax_stride_warm_start_is_bit_identical() {
    assert_warm_matches_cold(
        DaxStride::new(16, 1 << 20, 2000),
        DaxStride::new(16, 1 << 20, 2000),
        SecurityMode::FsEncr,
    );
}

#[test]
fn dax_stride_snapshot_serves_other_strides_and_scales() {
    // DAX-1 and DAX-2 share a setup (same file), so a snapshot taken for
    // one must warm-start the other — and any read count — with results
    // identical to that variant's own cold run.
    let opts = MachineOpts::small_test();
    let mut donor = DaxStride::new(16, 1 << 20, 2000);
    let donor_run = run_workload_warm(opts, SecurityMode::FsEncr, &mut donor, None).unwrap();
    let bytes = donor_run.snapshot.unwrap();

    let mut other_cold = DaxStride::new(128, 1 << 20, 500);
    let mut other_warm = DaxStride::new(128, 1 << 20, 500);
    assert_eq!(donor.setup_spec(), other_cold.setup_spec());
    let cold = run_workload_warm(opts, SecurityMode::FsEncr, &mut other_cold, None).unwrap();
    let warm =
        run_workload_warm(opts, SecurityMode::FsEncr, &mut other_warm, Some(&bytes)).unwrap();
    assert!(warm.warm);
    assert_eq!(
        format!("{:?}", cold.result.stats),
        format!("{:?}", warm.result.stats)
    );
}

#[test]
fn dax_swap_warm_start_is_bit_identical() {
    assert_warm_matches_cold(
        DaxSwap::new(16, 1 << 20, 300),
        DaxSwap::new(16, 1 << 20, 300),
        SecurityMode::FsEncr,
    );
}

#[test]
fn pmemkv_warm_start_is_bit_identical() {
    assert_warm_matches_cold(
        PmemKv::new(DbBench::ReadRandom, 64, 64, 64, 2),
        PmemKv::new(DbBench::ReadRandom, 64, 64, 64, 2),
        SecurityMode::FsEncr,
    );
}

#[test]
fn pmemkv_preload_snapshot_is_shared_across_benches() {
    // Overwrite / Readrandom / Readseq / Deleterandom preload the same
    // shards: one snapshot serves all four measured phases.
    let opts = MachineOpts::small_test();
    let mut donor = PmemKv::new(DbBench::Overwrite, 64, 64, 64, 2);
    let donor_run = run_workload_warm(opts, SecurityMode::FsEncr, &mut donor, None).unwrap();
    let bytes = donor_run.snapshot.unwrap();

    let mut cold = PmemKv::new(DbBench::ReadRandom, 64, 64, 64, 2);
    let mut warm = PmemKv::new(DbBench::ReadRandom, 64, 64, 64, 2);
    assert_eq!(donor.setup_spec(), cold.setup_spec());
    let cold_run = run_workload_warm(opts, SecurityMode::FsEncr, &mut cold, None).unwrap();
    let warm_run = run_workload_warm(opts, SecurityMode::FsEncr, &mut warm, Some(&bytes)).unwrap();
    assert!(warm_run.warm);
    assert_eq!(
        format!("{:?}", cold_run.result.stats),
        format!("{:?}", warm_run.result.stats)
    );
}

#[test]
fn whisper_workloads_warm_start_bit_identically() {
    assert_warm_matches_cold(
        Ycsb::new(256, 256, 2),
        Ycsb::new(256, 256, 2),
        SecurityMode::FsEncr,
    );
    assert_warm_matches_cold(
        HashmapBench::new(128, 2),
        HashmapBench::new(128, 2),
        SecurityMode::Software,
    );
    assert_warm_matches_cold(
        CtreeBench::new(128, 2),
        CtreeBench::new(128, 2),
        SecurityMode::MemoryOnly,
    );
}

#[test]
fn mismatched_snapshot_falls_back_to_cold_setup() {
    // A snapshot from a different geometry must be rejected (config
    // fingerprint or missing mappings) and the run silently goes cold.
    let opts = MachineOpts::small_test();
    let mut donor = DaxStride::new(16, 1 << 20, 500);
    let bytes = run_workload_warm(opts, SecurityMode::FsEncr, &mut donor, None)
        .unwrap()
        .snapshot
        .unwrap();

    // Different machine options (seed) => config fingerprint mismatch on
    // restore. (Mismatched *setup* geometry is fenced one layer up: the
    // result store keys setup objects by `setup_spec`, so a snapshot for a
    // different setup is never offered to the driver.)
    let other_opts = MachineOpts::preset(Preset::SmallTest).seed(0xDEAD).build();
    let mut other = DaxStride::new(16, 1 << 20, 500);
    let run =
        run_workload_warm(other_opts, SecurityMode::FsEncr, &mut other, Some(&bytes)).unwrap();
    assert!(!run.warm, "mismatched snapshot must not warm-start");
    assert!(run.snapshot.is_some(), "cold path re-offers a fresh snapshot");

    // Garbage bytes degrade the same way.
    let mut w = DaxStride::new(16, 1 << 20, 500);
    let run = run_workload_warm(opts, SecurityMode::FsEncr, &mut w, Some(b"junk")).unwrap();
    assert!(!run.warm);
}
