//! End-to-end and per-layer benchmark of the compile-time DVS pass.
//!
//! ```text
//! dvs-perfbench --workload <cold-compile|certify-sweep|daemon-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of *rounds*. Each round does its own set-up (timed
//! as `setup_s`) and then a fixed, seed-drawn list of closed-loop ops, and
//! rounds repeat until `--seconds` have passed (at least [`MIN_ROUNDS`]
//! rounds and [`MIN_OPS`] ops). `setup_s` is the median round set-up, so
//! one slow set-up cannot move it. Exact counts are taken from round 0,
//! which every run completes, so the same seed always reports the same
//! counts.
//!
//! With `--trace 1`, even rounds call each layer's public functions one by
//! one under the benchmark's own timers, and odd rounds run untimed as in
//! `--trace 0`; the ratio of their throughputs is the tracing overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` for what each workload and metric is for.

mod certify;
mod cold;
mod daemon;
mod plan;

use dvs_obs::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest rounds a run makes, so `setup_s` is a median of at least three;
/// `peak_rss_mb` is read when this many rounds have ended.
const MIN_ROUNDS: usize = 3;
/// Fewest timed ops a run makes, so at least ten lie beyond p90.
const MIN_OPS: usize = 100;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workloads.gen_ms", "ms"),
    ("sim.deadline_ms", "ms"),
    ("sim.profile_ms", "ms"),
    ("sim.validate_ms", "ms"),
    ("sim.runs_per_op", "count"),
    ("sim.insts_per_op", "count"),
    ("core.compile_ms", "ms"),
    ("milp.bnb_nodes_per_op", "count"),
    ("milp.pivots_per_op", "count"),
    ("milp.certify_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("cert.bytes_per_op", "B"),
    ("cert.branch_nodes_per_op", "count"),
    ("cert.proof_nodes_per_bnb_node", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.solves", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_lookup_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.solve_ms.compile", "ms"),
    ("serve.solve_ms.verify", "ms"),
    ("serve.solve_ms.evaluate", "ms"),
    ("serve.solve_ms.certify", "ms"),
    ("serve.sim_runs_per_solve", "count"),
    ("replay.bytecode_hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops_per_s", "1/s"),
];

/// The three workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["cold-compile", "certify-sweep", "daemon-mixed"];

/// Accumulates a per-layer mean: `sum / n` over the samples added.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// What one round hands back to the run loop in `main`.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Wall time of the round's set-up, seconds.
    pub setup_s: f64,
    /// Seconds the round's timed ops kept the caller busy.
    pub busy_s: f64,
    /// Latency of every timed op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Timed ops whose output check failed or that returned an error.
    pub failed: usize,
    /// Per-layer values measured by this round (means over its ops).
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact counts, reported from round 0 only.
    pub counts: BTreeMap<&'static str, f64>,
}

/// One round of a workload: `round` selects the seeded op list and whether
/// the benchmark times each layer call.
pub trait Workload {
    fn round(&mut self, round: usize, traced: bool) -> RoundOutcome;

    /// Releases what the rounds shared, after the last one; returns the
    /// number of failed steps.
    fn finish(&mut self) -> usize {
        0
    }
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "cold-compile" => Some(Box::new(cold::ColdCompile::new(seed))),
        "certify-sweep" => Some(Box::new(certify::CertifySweep::new(seed))),
        "daemon-mixed" => Some(Box::new(daemon::DaemonMixed::new(seed))),
        _ => None,
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "dvs-perfbench: unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let mut rounds: Vec<(bool, RoundOutcome)> = Vec::new();
    let mut ops = 0;
    let mut peak_rss = None;
    while rounds.len() < MIN_ROUNDS
        || ops < MIN_OPS
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        let r = w.round(rounds.len(), traced);
        ops += r.latencies_ms.len();
        rounds.push((traced, r));
        // The peak after a fixed number of rounds covers the same ops
        // however fast the host is; the daemon's caches grow every round.
        if rounds.len() == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
    }

    let attempted: usize = rounds.iter().map(|(_, r)| r.latencies_ms.len()).sum();
    let failed: usize = rounds.iter().map(|(_, r)| r.failed).sum::<usize>() + w.finish();
    // Throughput is the median of the rounds' own rates, like `setup_s`,
    // so a minority of rounds slowed by a busy host cannot move it.
    let throughput = |pick: &dyn Fn(bool) -> bool| {
        let rates: Vec<f64> = rounds
            .iter()
            .filter(|(t, r)| pick(*t) && r.busy_s > 0.0)
            .map(|(_, r)| r.latencies_ms.len() as f64 / r.busy_s)
            .collect();
        median(&rates)
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced_rate = throughput(&|t| t);
        let untraced_rate = throughput(&|t| !t);
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        // Layer times: mean over the traced rounds.
        let traced: Vec<&RoundOutcome> =
            rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        for (name, _) in PER_LAYER {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            if !vals.is_empty() {
                values.insert(name, vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        for (name, v) in &rounds[0].1.counts {
            values.insert(name, *v);
        }
        values.insert("trace.ops_per_s", traced_rate);
        values.insert(
            "trace.overhead_ratio",
            if traced_rate > 0.0 {
                untraced_rate / traced_rate
            } else {
                0.0
            },
        );
        for (name, unit) in PER_LAYER {
            metrics.push((name, values.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let setups: Vec<f64> = rounds.iter().map(|(_, r)| r.setup_s).collect();
        let mut lat: Vec<f64> = rounds
            .iter()
            .flat_map(|(_, r)| r.latencies_ms.iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        let values = [
            median(&setups),
            throughput(&|_| true),
            quantile(&lat, 0.5),
            quantile(&lat, 0.9),
            peak_rss.unwrap_or(f64::NAN),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }

    // A metric that could not be measured (no `/proc`) reads NaN and makes
    // the run incorrect rather than reporting a made-up value.
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    eprintln!(
        "{}: {} rounds, {attempted} ops, {failed} failed, {:.1} s",
        args.workload,
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    for (name, v, unit) in &metrics {
        println!("{name:32} {v:>16.6} {unit}");
    }
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, v, unit)| {
                        (
                            (*name).to_string(),
                            Json::obj([("value", Json::from(*v)), ("unit", Json::from(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.dump());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::daemon_round;
    use std::collections::BTreeSet;

    fn round_zero(name: &str, seed: u64) -> RoundOutcome {
        let mut w = workload(name, seed).expect("known workload");
        let mut r = w.round(0, true);
        r.failed += w.finish();
        r
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs whole rounds; use `cargo test --release`"
    )]
    fn same_seed_gives_identical_exact_counts() {
        for name in WORKLOADS {
            let (mut a, mut b) = (round_zero(name, 42), round_zero(name, 42));
            assert_eq!((a.failed, b.failed), (0, 0), "{name}: failed ops");
            assert!(!a.counts.is_empty(), "{name}: no exact counts");
            match name {
                // The simulator's own run counters: 3 deadline reference
                // runs, 3 profile runs and 1 validation run per op.
                "cold-compile" => assert_eq!(a.counts["sim.runs_per_op"], 7.0),
                "daemon-mixed" => {
                    let (primed, timed) = daemon_round(42, 0);
                    let distinct: BTreeSet<_> =
                        primed.iter().chain(&timed).map(|op| op.key).collect();
                    assert_eq!(a.counts["serve.solves"], distinct.len() as f64);
                    // The daemon keeps replay bytecode in a process-wide
                    // store, so the second daemon of this process finds
                    // the first one's. A benchmark run has one daemon.
                    assert_eq!(a.counts["replay.bytecode_hit_ratio"], 0.5);
                    for r in [&mut a, &mut b] {
                        r.counts.remove("replay.bytecode_hit_ratio");
                    }
                }
                _ => {}
            }
            assert_eq!(a.counts, b.counts, "{name}: exact counts differ");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units =
            |table: &[(&str, &str)]| table.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(
            list("workloads", "name"),
            WORKLOADS.map(String::from).to_vec()
        );
        assert_eq!(list("end_to_end", "name"), names(&END_TO_END));
        assert_eq!(list("end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(list("per_layer", "name"), names(&PER_LAYER));
        assert_eq!(list("per_layer", "unit"), units(&PER_LAYER));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
