//! Host-time benchmark of the FsEncr simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-write|dax-read|sw-ycsb> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one seeded workload through the simulator's public
//! API on a single host thread (worker pool pinned to 1). It sets up
//! several times (`setup_s` is the median), replays the op stream in
//! rounds for `--seconds`, checks every read against a host-side shadow,
//! and prints the metrics by name with unit and sample count. Host-time
//! metrics are taken from each op's fastest round (see [`Best`]). The last
//! stdout line is one JSON object: end-to-end metrics with `--trace 0`,
//! the per-layer ledger with `--trace 1`. The traced run alternates
//! untraced and traced rounds so `bench.trace_overhead` compares like
//! with like, and writes its spans to `perfbench/out/`.
//!
//! The benchmark never touches the harness's `CACHE_cells.json` or
//! `CACHE_snapshots/`: every result is simulated fresh.

#![forbid(unsafe_code)]

mod calib;
mod ledger;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use fsencr_crypto::sha256;

use trace::Tracer;
use workload::{RoundOut, Setup, Workload};

/// Setups per run; `setup_s` is their median. A fixed count keeps the
/// run's peak memory the same from run to run.
const SETUPS: usize = 3;
/// Fewest measured rounds per run (per side in the traced run).
const MIN_ROUNDS: usize = 3;
/// Percentiles `op_tail_us` may report, lowest first. Beyond p99 the
/// tail on a shared host measures preemption, not the simulator.
const LADDER: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

const USAGE: &str = "usage: perfbench --workload <kv-write|dax-read|sw-ycsb> \
[--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Host and build identity, printed with every result: numbers from
/// different hosts or builds are not comparable.
fn fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("rustflags", env!("PERFBENCH_RUSTFLAGS").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("pool_workers", fsencr_sim::pool::jobs().to_string()),
        ("host_probe_ms", format!("{:.3}", host_probe_ms())),
    ]
}

/// Milliseconds a fixed integer loop takes, independent of the simulator:
/// on a shared host it shows how fast the host ran during this run.
fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut table = [0u64; 256];
    for i in 0..(1u64 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x & 0xff) as usize];
        *slot = slot.wrapping_add(x ^ i);
    }
    std::hint::black_box(table);
    t.elapsed().as_secs_f64() * 1e3
}

/// Hash of a run's simulated behaviour: a round's window counters and
/// final Merkle root, and the setup's recovery reports.
fn behaviour_digest(r: &RoundOut, setup: &Setup) -> String {
    let text = format!("{:?}|{:?}|{:?}", r.window, r.root, setup.reports);
    sha256(text.as_bytes())[..16]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it.
fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (1.0 - p) * n as f64 >= 10.0)
        .unwrap_or(LADDER[0])
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the result line.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How it was measured (samples, percentile, ...), for the log.
    pub note: String,
}

/// A measured round: host timings plus what the simulator did. Its
/// per-op latencies are folded into a [`Best`] and dropped, so memory
/// does not grow with the number of rounds.
struct Timed {
    out: RoundOut,
    /// Wall time of the whole round, restore and checks included.
    round_ns: u64,
    /// Per-name span totals (traced rounds only).
    spans: std::collections::BTreeMap<&'static str, trace::Totals>,
}

/// Each op's fastest host latency over the measured rounds.
///
/// Every round restores the same image and replays the same op stream,
/// so op `i` does the same work in every round (the behaviour digest
/// proves it). A shared host only ever adds time to an op: a busy
/// sibling hyperthread, cache and memory-bandwidth contention, or
/// preemption, in stretches of a second to tens of seconds that a
/// median over the run's windows still sees. The fastest of an op's
/// tries is the closest measurement of its own cost.
#[derive(Default)]
struct Best {
    ns: Vec<u64>,
    rounds: usize,
}

impl Best {
    fn fold(&mut self, lat_ns: &[u64]) {
        if self.ns.is_empty() {
            self.ns = lat_ns.to_vec();
        } else {
            for (b, &l) in self.ns.iter_mut().zip(lat_ns) {
                *b = (*b).min(l);
            }
        }
        self.rounds += 1;
    }

    /// Ops per host second at every op's fastest.
    fn ops_per_s(&self) -> f64 {
        self.ns.len() as f64 / (self.ns.iter().sum::<u64>().max(1) as f64 / 1e9)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }
}

fn run_round(
    w: &dyn Workload,
    image: &[u8],
    tr: &mut Tracer,
    best: &mut Best,
) -> Result<Timed, String> {
    let t = Instant::now();
    let mut out = w.round(image, tr)?;
    let round_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    best.fold(&std::mem::take(&mut out.lat_ns));
    Ok(Timed {
        out,
        round_ns,
        spans: tr.take_window(),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    fsencr_sim::pool::set_jobs(1);
    let fp = fingerprint(args);
    for (k, v) in &fp {
        println!("# {k}: {v}");
    }

    let t = Instant::now();
    let w = workload::build(&args.workload, args.seed).ok_or("unknown workload")?;
    let gen_s = t.elapsed().as_secs_f64();

    let mut correct = true;
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut setup: Option<Setup> = None;
    let mut setup_spans = std::collections::BTreeMap::new();
    for i in 0..SETUPS {
        // The traced run traces its first setup, where the setup-phase
        // layers (region writes, recovery, snapshot save) do their work.
        let mut tr = Tracer::new(args.trace && i == 0);
        let t = Instant::now();
        let s = w.setup(&mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup.as_ref().is_some_and(|first| *first != s) {
            println!("# FAIL: setup {i} produced a different snapshot image or recovery");
            correct = false;
        }
        setup.get_or_insert(s);
        if tr.is_on() {
            setup_spans = tr.take_window();
        }
    }
    let setup = setup.ok_or("no setup ran")?;
    let image = &setup.image;

    // No separate warm-up round: a cold first round only loses to the
    // later rounds in every op's best-of-rounds time.
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let (mut plain_best, mut traced_best) = (Best::default(), Best::default());
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    loop {
        let done = start.elapsed().as_secs_f64() >= args.seconds;
        if done && plain.len() >= MIN_ROUNDS && (!args.trace || traced.len() >= MIN_ROUNDS) {
            break;
        }
        plain.push(run_round(
            w.as_ref(),
            image,
            &mut Tracer::new(false),
            &mut plain_best,
        )?);
        if args.trace {
            traced.push(run_round(w.as_ref(), image, &mut tracer, &mut traced_best)?);
        }
    }

    // The first round's simulated behaviour is the reference every other
    // round must reproduce exactly.
    let reference = &plain[0].out;
    let digest = behaviour_digest(reference, &setup);
    println!("# digest: {digest}");
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    let mut diverged = 0;
    for r in plain.iter().chain(&traced) {
        attempted += r.out.attempted;
        failed += r.out.failed;
        failures.extend(r.out.failures.iter().cloned());
        diverged += usize::from(behaviour_digest(&r.out, &setup) != digest);
    }
    if diverged > 0 {
        println!("# FAIL: {diverged} rounds' simulated behaviour differs from the reference round");
        correct = false;
    }
    for f in failures.iter().take(8) {
        println!("# FAIL: {f}");
    }
    correct &= failed == 0;
    println!(
        "# rounds: {} measured{}, {} ops each",
        plain.len(),
        if args.trace {
            format!(" untraced + {} traced", traced.len())
        } else {
            String::new()
        },
        w.ops_per_round()
    );
    println!(
        "# error_rate: {} ({failed} failed / {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );

    let untraced_ops_per_s = plain_best.ops_per_s();
    let metrics = if args.trace {
        let costs = calib::calibrate();
        let traced_ops_per_s = traced_best.ops_per_s();
        let rounds: Vec<ledger::TracedRound<'_>> = traced
            .iter()
            .map(|t| ledger::TracedRound {
                spans: &t.spans,
                round_ns: t.round_ns,
            })
            .collect();
        let m = ledger::per_layer(&ledger::Inputs {
            reference,
            rounds: &rounds,
            setup_spans: &setup_spans,
            setup_reports: &setup.reports,
            costs: &costs,
            gen_s,
            trace_overhead: 1.0 - traced_ops_per_s / untraced_ops_per_s,
        });
        write_trace(args, &fp, &tracer);
        m
    } else {
        end_to_end(reference, &plain_best, &setup_s)
    };

    for m in &metrics {
        println!(
            "{:<34} {:>18} {:<6} {}",
            m.name,
            fmt_num(m.value),
            m.unit,
            m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn end_to_end(reference: &RoundOut, best: &Best, setup_s: &[f64]) -> Vec<Metric> {
    let lat = best.sorted();
    let n = lat.len();
    let p = tail_percentile(n);
    let of = format!("{n} ops, each at its fastest of {} rounds", best.rounds);
    vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
            note: format!("median of {} setups", setup_s.len()),
        },
        Metric {
            name: "ops_per_s",
            value: best.ops_per_s(),
            unit: "1/s",
            note: of.clone(),
        },
        Metric {
            name: "op_p50_us",
            value: percentile(&lat, 0.5) as f64 / 1e3,
            unit: "us",
            note: format!("p50 of {of}"),
        },
        Metric {
            name: "op_tail_us",
            value: percentile(&lat, p) as f64 / 1e3,
            unit: "us",
            note: format!("p{} of {of}", p * 100.0),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
            note: "VmHWM".to_string(),
        },
        Metric {
            name: "sim_cycles",
            value: reference.window.cycles as f64,
            unit: "cycles",
            note: "simulated, one round".to_string(),
        },
        Metric {
            name: "sim_nvm_writes",
            value: reference.window.nvm_writes as f64,
            unit: "lines",
            note: "simulated, one round".to_string(),
        },
    ]
}

fn write_trace(args: &Args, fp: &[(&'static str, String)], tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let header: Vec<(&str, String)> = fp.iter().map(|(k, v)| (*k, v.clone())).collect();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json(&header))) {
        Ok(()) => println!(
            "# spans: {} recorded, written to {}",
            tr.span_count(),
            path.display()
        ),
        Err(e) => println!("# spans: {} recorded, not written: {e}", tr.span_count()),
    }
}

/// Formats a metric value for JSON: every digit, integers without a
/// fraction, never NaN or infinity.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(48), 0.75);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(196_608), 0.99);
    }

    #[test]
    fn best_keeps_each_ops_fastest_round() {
        let mut best = Best::default();
        best.fold(&[400, 100, 300]);
        best.fold(&[200, 500, 300]);
        assert_eq!((best.ns.as_slice(), best.rounds), (&[200, 100, 300][..], 2));
        assert_eq!(best.sorted(), vec![100, 200, 300]);
        assert!((best.ops_per_s() - 3.0 / 600e-9).abs() < 1e-3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn args_parse_and_reject() {
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = ok("--workload dax-read --seed 7 --seconds 2 --trace 1").expect("valid");
        assert_eq!((a.seed, a.trace), (7, true));
        assert!(ok("--workload nope").is_err());
        assert!(ok("--workload dax-read --trace 2").is_err());
        assert!(ok("--workload dax-read --seconds").is_err());
    }
}
