//! The result store must be behaviourally invisible: the same figures
//! rendered with the store disabled, cold (every cell simulated, setups
//! stored), hot (every cell served, nothing simulated) and warm-only
//! (cell results deleted, every setup restored from its snapshot at any
//! worker count and under any pool schedule) must be byte-identical. A
//! stale, lossy or schedule-dependent store would show up here as a
//! diff. Together with the fault campaign suite (the snapshot-seeded
//! `FAULTS_report.json` is byte-identical across jobs and schedules,
//! `crates/bench/tests/fault_campaign.rs`), this pins the store to the
//! determinism bar the figures set.
//!
//! Kept as a single test: the store and the worker pool are
//! process-global, so the phases must run sequentially.

use fsencr_bench as exp;
use fsencr_bench::pool;
use fsencr_bench::store::{self, Counts, Kind};

const SCALE: f64 = 0.01;

/// Renders every figure of the DAX micro-benchmarks, whose workloads all
/// warm-start, plus Figure 3.
fn render() -> String {
    let (a, b, c) = exp::fig12_13_14(SCALE);
    format!("{a}\n{b}\n{c}\n{}", exp::fig3(SCALE))
}

/// Renders the figures with the store enabled at `dir` and returns the
/// per-kind counters of that run.
fn render_with(dir: &std::path::Path) -> (String, Counts, Counts) {
    store::configure(Some(dir.to_path_buf()));
    let figures = render();
    let counts = (store::counts(Kind::Cell), store::counts(Kind::Setup));
    store::configure(None);
    (figures, counts.0, counts.1)
}

#[test]
fn figures_are_byte_identical_disabled_cold_hot_and_warm() {
    let dir = std::env::temp_dir().join(format!("fsencr-store-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Reference: store disabled, every cell and setup simulated.
    store::configure(None);
    let reference = render();

    // Cold: every cell misses and is stored; setups are captured as they
    // go. Cells sharing a setup may already warm-start within this run
    // (objects are written at once), so only the setup puts are asserted.
    let (cold, cells, setups) = render_with(&dir);
    assert_eq!(cells.hits, 0, "a fresh store cannot hit");
    assert!(cells.misses > 0, "cold run must consult the store");
    assert_eq!(cells.puts, cells.misses, "every simulated cell is stored");
    assert!(setups.misses > 0, "cold run must set up cold");
    assert!(setups.puts > 0, "cold run must capture snapshots");
    assert_eq!(reference, cold, "cold store changed the rendered figures");
    let n_cells = cells.misses;

    // Hot: every cell served without simulating, no setup consulted.
    let (hot, cells, setups) = render_with(&dir);
    assert_eq!(cells, Counts { hits: n_cells, misses: 0, puts: 0 }, "hot run re-simulated");
    assert_eq!(setups, Counts::default(), "hot run must not touch setups");
    assert_eq!(reference, hot, "hot store changed the rendered figures");

    // Warm-only: with the cell results gone, every warm-start-capable
    // setup restores from its snapshot — no cold setup anywhere — at
    // every worker count and schedule, and renders the same bytes.
    for (jobs, sched) in [
        (1, pool::Schedule::Fifo),
        (4, pool::Schedule::Fifo),
        (1, pool::Schedule::Lifo),
        (4, pool::Schedule::Lifo),
        (4, pool::Schedule::EvenOdd),
        (4, pool::Schedule::Stagger),
    ] {
        for entry in std::fs::read_dir(&dir).expect("store directory") {
            let path = entry.expect("store entry").path();
            if path.extension().is_some_and(|ext| ext == "cell") {
                std::fs::remove_file(path).expect("delete cell object");
            }
        }
        pool::set_jobs(jobs);
        pool::set_schedule(sched);
        let (warm, cells, setups) = render_with(&dir);
        assert_eq!(cells.misses, n_cells, "jobs={jobs} {sched:?}: cell objects survived");
        assert!(setups.hits > 0, "jobs={jobs} {sched:?}: warm pass must restore setups");
        assert_eq!(setups.misses, 0, "jobs={jobs} {sched:?}: warm pass fell back to a cold setup");
        assert_eq!(reference, warm, "jobs={jobs} {sched:?}: warm start changed figure bytes");
    }
    pool::set_jobs(0);
    pool::set_schedule(pool::Schedule::Fifo);
    std::fs::remove_dir_all(&dir).ok();
}
