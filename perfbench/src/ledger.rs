//! The per-layer ledger of the traced run.
//!
//! Layers are the workspace crates. Counters are deltas of
//! `Machine::snapshot()` (and the controller's planner telemetry) over
//! one round; times are span self-times around the benchmark's own calls
//! into each layer, as the median over traced rounds. Each metric's note
//! names the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use crate::calib::UnitCosts;
use crate::trace::Totals;
use fsencr::controller::RecoveryReport;

use crate::workload::RoundOut;
use crate::{median, Metric};

/// One traced round's span totals and wall time.
pub struct TracedRound<'a> {
    pub spans: &'a BTreeMap<&'static str, Totals>,
    pub round_ns: u64,
}

/// Everything the ledger is computed from.
pub struct Inputs<'a> {
    /// The reference round: its simulated counters repeat in every round.
    pub reference: &'a RoundOut,
    pub rounds: &'a [TracedRound<'a>],
    /// Span totals of the traced setup.
    pub setup_spans: &'a BTreeMap<&'static str, Totals>,
    /// Recovery reports of a setup.
    pub setup_reports: &'a [RecoveryReport],
    pub costs: &'a UnitCosts,
    pub gen_s: f64,
    pub trace_overhead: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(inp: &Inputs<'_>) -> Vec<Metric> {
    let w = &inp.reference.window;
    let (plans, digests_seeded) = inp.reference.plans;
    // Median over traced rounds of a per-round span figure.
    let per_round = |f: &dyn Fn(&Totals) -> f64, name: &str| -> f64 {
        let v: Vec<f64> = inp
            .rounds
            .iter()
            .map(|r| r.spans.get(name).map_or(0.0, f))
            .collect();
        median(&v)
    };
    let self_s = |name: &str| per_round(&|t| t.self_ns as f64 / 1e9, name);
    let calls = |name: &str| per_round(&|t| t.calls as f64, name);
    let us_per_call =
        |name: &str| per_round(&|t| ratio(t.total_ns as f64 / 1e3, t.calls as f64), name);
    let setup_self_s = |name: &str| {
        inp.setup_spans
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    };

    let c = inp.costs;
    let pads = (w.reads + w.writes + w.file_accesses) as f64;
    let digests = (w.meta_update_bumps + w.meta_verify_levels) as f64;
    let pad_est = pads * c.pad_ns / 1e9;
    let sha_est = digests * c.digest_ns / 1e9;
    let nvm_est = (w.nvm_reads as f64 * c.nvm_read_ns + w.nvm_writes as f64 * c.nvm_write_ns) / 1e9;
    let read_s = self_s("fsencr.read");
    let restore_s = self_s("snapshot.restore");
    let check_s = self_s("bench.check");
    let recover_s = setup_self_s("secmem.recover");
    let round_s = median(
        &inp.rounds
            .iter()
            .map(|r| r.round_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let reports = inp.setup_reports;
    let recovered_lines: u64 = reports
        .iter()
        .map(|r| r.clean + r.repaired + r.unrecoverable)
        .sum();
    let repaired: u64 = reports.iter().map(|r| r.repaired).sum();
    let row_accesses = (w.nvm_row_hits + w.nvm_row_misses) as f64;

    let rows: Vec<(&'static str, f64, &'static str, &'static str)> = vec![
        // -- workloads ------------------------------------------------
        (
            "workloads.kv_put.us",
            us_per_call("workloads.kv_put"),
            "us",
            "ops_per_s, op_p50_us on kv-write, sw-ycsb",
        ),
        (
            "workloads.kv_get.us",
            us_per_call("workloads.kv_get"),
            "us",
            "ops_per_s, op_p50_us on sw-ycsb",
        ),
        (
            "workloads.kv.calls",
            calls("workloads.kv_put") + calls("workloads.kv_get"),
            "count",
            "ops_per_s on kv-write, sw-ycsb",
        ),
        (
            "workloads.lines_per_op",
            ratio((w.reads + w.writes) as f64, inp.reference.kv_ops as f64),
            "lines",
            "ops_per_s, sim_cycles on kv-write, sw-ycsb",
        ),
        // -- fsencr ---------------------------------------------------
        ("fsencr.read.s", read_s, "s", "ops_per_s on dax-read"),
        (
            "fsencr.read.ns_per_line",
            ratio(read_s * 1e9, w.reads as f64),
            "ns",
            "op_p50_us on dax-read",
        ),
        (
            "fsencr.write.s",
            setup_self_s("fsencr.write") + self_s("fsencr.write"),
            "s",
            "setup_s on dax-read (setup plus one round)",
        ),
        (
            "fsencr.persist.s",
            setup_self_s("fsencr.persist") + self_s("fsencr.persist"),
            "s",
            "setup_s on dax-read (setup plus one round)",
        ),
        (
            "fsencr.ctrl.file_accesses",
            w.file_accesses as f64,
            "count",
            "ops_per_s, sim_cycles on dax-read",
        ),
        (
            "fsencr.ctrl.overflow_reencryptions",
            w.overflow_reencryptions as f64,
            "count",
            "sim_nvm_writes on kv-write",
        ),
        (
            "fsencr.ott.hits",
            w.ott_hits as f64,
            "count",
            "ops_per_s on dax-read",
        ),
        (
            "fsencr.ott.misses",
            w.ott_misses as f64,
            "count",
            "sim_cycles on dax-read",
        ),
        (
            "fsencr.tlb.hit_rate",
            w.tlb_hit_rate(),
            "ratio",
            "sim_cycles on dax-read",
        ),
        (
            "fsencr.batch.plans",
            plans as f64,
            "count",
            "ops_per_s on dax-read, kv-write",
        ),
        (
            "fsencr.batch.digests_seeded",
            digests_seeded as f64,
            "count",
            "ops_per_s on dax-read, kv-write",
        ),
        // -- secmem ---------------------------------------------------
        (
            "secmem.meta.hit_rate",
            w.meta_hit_rate(),
            "ratio",
            "ops_per_s, sim_cycles on dax-read",
        ),
        (
            "secmem.meta.misses",
            w.meta_cache_misses as f64,
            "count",
            "ops_per_s, sim_cycles on dax-read",
        ),
        (
            "secmem.meta.evict_writebacks",
            w.meta_evict_writebacks as f64,
            "count",
            "sim_nvm_writes on dax-read, kv-write",
        ),
        (
            "secmem.merkle.climbs",
            w.meta_verify_climbs as f64,
            "count",
            "ops_per_s, sim_cycles on dax-read",
        ),
        (
            "secmem.merkle.levels",
            w.meta_verify_levels as f64,
            "count",
            "ops_per_s, sim_cycles on dax-read",
        ),
        (
            "secmem.merkle.bumps",
            w.meta_update_bumps as f64,
            "count",
            "ops_per_s, sim_nvm_writes on kv-write",
        ),
        (
            "secmem.osiris.persists",
            w.meta_osiris_persists as f64,
            "count",
            "ops_per_s, sim_nvm_writes on kv-write",
        ),
        (
            "secmem.verify.est_s",
            w.meta_verify_climbs as f64 * c.verify_line_ns / 1e9,
            "s",
            "ops_per_s on dax-read (overlaps crypto.sha.est_s, nvm.est_s)",
        ),
        (
            "secmem.persist.est_s",
            (w.meta_osiris_persists + w.meta_evict_writebacks) as f64 * c.persist_block_ns / 1e9,
            "s",
            "ops_per_s on kv-write (overlaps crypto.sha.est_s, nvm.est_s)",
        ),
        (
            "secmem.recover.s",
            recover_s,
            "s",
            "setup_s on kv-write (one setup)",
        ),
        (
            "secmem.recover.lines",
            recovered_lines as f64,
            "count",
            "setup_s on kv-write (one setup)",
        ),
        (
            "secmem.recover.repaired",
            repaired as f64,
            "count",
            "setup_s on kv-write (one setup)",
        ),
        // -- crypto ---------------------------------------------------
        (
            "crypto.pads",
            pads,
            "count",
            "ops_per_s on dax-read, sw-ycsb",
        ),
        (
            "crypto.pad.est_s",
            pad_est,
            "s",
            "ops_per_s on dax-read, sw-ycsb",
        ),
        ("crypto.digests", digests, "count", "ops_per_s on kv-write"),
        ("crypto.sha.est_s", sha_est, "s", "ops_per_s on kv-write"),
        // -- nvm ------------------------------------------------------
        (
            "nvm.reads",
            w.nvm_reads as f64,
            "lines",
            "sim_cycles on every workload",
        ),
        (
            "nvm.writes",
            w.nvm_writes as f64,
            "lines",
            "sim_nvm_writes on kv-write, sw-ycsb",
        ),
        (
            "nvm.row_hit_rate",
            ratio(w.nvm_row_hits as f64, row_accesses),
            "ratio",
            "sim_cycles on every workload",
        ),
        ("nvm.est_s", nvm_est, "s", "ops_per_s on every workload"),
        // -- fs -------------------------------------------------------
        (
            "fs.syscall.s",
            self_s("fs.syscall"),
            "s",
            "ops_per_s on sw-ycsb",
        ),
        (
            "fs.msync.s",
            self_s("fs.msync"),
            "s",
            "ops_per_s on sw-ycsb",
        ),
        (
            "fs.msync.calls",
            calls("fs.msync"),
            "count",
            "ops_per_s on sw-ycsb",
        ),
        // -- snapshot -------------------------------------------------
        (
            "snapshot.save.s",
            setup_self_s("snapshot.save"),
            "s",
            "setup_s on every workload (one setup)",
        ),
        (
            "snapshot.restore.s",
            restore_s,
            "s",
            "none end-to-end (once per round, outside the timed ops)",
        ),
        (
            "snapshot.bytes",
            inp.reference.image_bytes as f64,
            "bytes",
            "setup_s, bench.round.s on every workload",
        ),
        // -- bench ----------------------------------------------------
        (
            "bench.gen.s",
            inp.gen_s,
            "s",
            "none (input generation, once per run)",
        ),
        ("bench.check.s", check_s, "s", "none (shadow comparison)"),
        (
            "bench.unattributed_share",
            1.0 - ratio(pad_est + sha_est + nvm_est + restore_s + check_s, round_s),
            "ratio",
            "share of a round's host time no span or estimate explains",
        ),
        (
            "bench.trace_overhead",
            inp.trace_overhead,
            "ratio",
            "1 - traced/untraced ops_per_s",
        ),
        (
            "bench.round.s",
            round_s,
            "s",
            "wall time of one traced round",
        ),
        // -- calibrated unit costs ------------------------------------
        ("calib.pad_ns", c.pad_ns, "ns", "crypto.pad.est_s"),
        ("calib.digest_ns", c.digest_ns, "ns", "crypto.sha.est_s"),
        ("calib.nvm_read_ns", c.nvm_read_ns, "ns", "nvm.est_s"),
        ("calib.nvm_write_ns", c.nvm_write_ns, "ns", "nvm.est_s"),
        (
            "calib.verify_line_ns",
            c.verify_line_ns,
            "ns",
            "secmem.verify.est_s",
        ),
        (
            "calib.persist_block_ns",
            c.persist_block_ns,
            "ns",
            "secmem.persist.est_s",
        ),
    ];
    rows.into_iter()
        .map(|(name, value, unit, moves)| Metric {
            name,
            value,
            unit,
            note: format!("-> {moves}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `section` in `BENCHMARK.json`.
    pub(crate) fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn ledger_matches_benchmark_json() {
        let costs = UnitCosts {
            pad_ns: 1.0,
            digest_ns: 1.0,
            nvm_read_ns: 1.0,
            nvm_write_ns: 1.0,
            verify_line_ns: 1.0,
            persist_block_ns: 1.0,
        };
        let reference = RoundOut::default();
        let empty = BTreeMap::new();
        let metrics = per_layer(&Inputs {
            reference: &reference,
            rounds: &[],
            setup_spans: &empty,
            setup_reports: &[],
            costs: &costs,
            gen_s: 0.0,
            trace_overhead: 0.0,
        });
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, declared("per_layer"));
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}
