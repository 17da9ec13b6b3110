//! Seeded op lists. Everything a round does is a pure function of
//! `(seed, round)`; the program under test only ever sees the inputs drawn
//! here.
//!
//! Draws are *stratified*: each round gives every program the same number
//! of ops, and each program's input sizes (or deadlines) follow a
//! low-discrepancy sequence over a fixed range from a seed-drawn start. The
//! seed then changes which exact inputs run, in what order, but not the
//! mix, which keeps the reported percentiles steady from seed to seed.

use dvs_serve::SolveOp;
use dvs_workloads::{Benchmark, InputSpec, Lcg};

/// Timed cold-compile ops per program per round.
pub const COLD_PER_PROGRAM: usize = 6;
/// Cold-compile inputs run `iterations` at this share of the program's
/// default input, spread evenly over the range. Smaller than the default
/// input so a run holds enough ops for a p90 with ten samples beyond it.
pub const COLD_SCALE: (f64, f64) = (0.30, 0.50);
/// Warm-up inputs (one per program, in set-up) are this share of the
/// default input.
pub const WARMUP_SCALE: f64 = 0.15;
/// Timed certify ops per program per round.
pub const CERTIFY_PER_PROGRAM: usize = 10;
/// The cold daemon requests each program gets per round, as indices into
/// [`SOLVE_OPS`]: every solve op once, `evaluate` twice at two deadlines
/// so the content-addressed replay bytecode is hit within the round.
pub const DAEMON_COLD_OPS: [usize; 5] = [0, 1, 2, 2, 3];
/// Timed daemon ops per round that repeat an earlier key, against the 30
/// cold ones. At 15 (2 cold : 1) the pooled p50 lands in the middle of the
/// second-cheapest program's cold solves and p90 inside the dearest
/// program's, for any run of three or more rounds; at 20 (3 cold : 2) p90
/// would sit exactly on the gap between two programs' solve times.
pub const DAEMON_REPEATS: usize = 15;
/// Regulator capacitance, µF: the default of `dvsc compile` and of the
/// daemon protocol. Each daemon round after the first adds 1%, so every
/// round's keys are new to the long-lived daemon's caches and each round
/// does the same work.
pub const CAPACITANCE_UF: f64 = 0.05;
/// Client connections the daemon workload drives.
pub const CONNECTIONS: usize = 2;

/// A round's own generator, decorrelated from every other round and
/// workload by a SplitMix64 finaliser over `(seed, round, tag)`.
fn rng(seed: u64, round: usize, tag: u64) -> Lcg {
    let mut z = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Lcg::new(z ^ (z >> 31))
}

fn shuffle<T>(v: &mut [T], rng: &mut Lcg) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Round `round`'s `n` points of one program's run-wide golden-ratio
/// (Kronecker) sequence over `[0, 1)`, started at a seed-drawn offset. Any
/// prefix of rounds covers `[0, 1)` almost evenly, so seeds differ in the
/// exact points but hardly in how they are spread.
fn spread(seed: u64, tag: u64, program: usize, round: usize, n: usize) -> Vec<f64> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let start = rng(seed, program, tag).unit();
    (0..n)
        .map(|i| (start + (round * n + i) as f64 * GOLDEN).fract())
        .collect()
}

/// One cold compile: a fresh (program, input) pair and a deadline index.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdOp {
    pub program: Benchmark,
    pub input: InputSpec,
    pub deadline_index: usize,
}

fn scaled_input(
    program: Benchmark,
    name: String,
    rng: &mut Lcg,
    scale: f64,
    variant: bool,
) -> InputSpec {
    let base = program.default_input();
    InputSpec {
        name,
        seed: rng.next_u64(),
        iterations: ((base.iterations as f64 * scale).round() as usize).max(4),
        complexity: (base.complexity + 0.1 * (rng.unit() - 0.5)).clamp(0.05, 1.0),
        variant,
    }
}

/// The cold-compile round: its warm-up ops (one per program, run in
/// set-up) and its timed ops, in the order they run.
pub fn cold_round(seed: u64, round: usize) -> (Vec<ColdOp>, Vec<ColdOp>) {
    let mut rng = rng(seed, round, 1);
    let warmup = Benchmark::all()
        .into_iter()
        .map(|program| ColdOp {
            input: scaled_input(
                program,
                format!("warmup.r{round}"),
                &mut rng,
                WARMUP_SCALE,
                false,
            ),
            program,
            deadline_index: 3,
        })
        .collect();
    let mut timed = Vec::new();
    for (p, program) in Benchmark::all().into_iter().enumerate() {
        let flip = rng.chance(0.5);
        let sizes = spread(seed, 11, p, round, COLD_PER_PROGRAM);
        for (i, u) in sizes.into_iter().enumerate() {
            let scale = COLD_SCALE.0 + (COLD_SCALE.1 - COLD_SCALE.0) * u;
            let name = format!("bench.r{round}.{i}");
            let input = scaled_input(program, name, &mut rng, scale, (i % 2 == 0) ^ flip);
            timed.push(ColdOp {
                program,
                input,
                deadline_index: 1 + rng.below(5) as usize,
            });
        }
    }
    shuffle(&mut timed, &mut rng);
    (warmup, timed)
}

/// One certifying compile: program index into [`Benchmark::all`] and the
/// deadline's position in `[0, 1)` between D1 and D5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyOp {
    pub program: usize,
    pub position: f64,
}

pub fn certify_round(seed: u64, round: usize) -> Vec<CertifyOp> {
    let mut rng = rng(seed, round, 2);
    let mut ops: Vec<CertifyOp> = (0..Benchmark::all().len())
        .flat_map(|program| {
            spread(seed, 12, program, round, CERTIFY_PER_PROGRAM)
                .into_iter()
                .map(move |position| CertifyOp { program, position })
        })
        .collect();
    shuffle(&mut ops, &mut rng);
    ops
}

/// The daemon's four solve ops.
pub const SOLVE_OPS: [SolveOp; 4] = [
    SolveOp::Compile,
    SolveOp::Verify,
    SolveOp::Evaluate,
    SolveOp::Certify,
];

/// A daemon cache key: program index, deadline index (1..=5), solve op
/// index into [`SOLVE_OPS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub program: usize,
    pub deadline_index: usize,
    pub op: usize,
}

/// One daemon request and the connection it goes out on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonOp {
    pub key: Key,
    pub conn: usize,
    /// Whether an earlier request of this round (primed or timed) had the
    /// same key, so the reply must be a cache hit.
    pub repeat: bool,
}

/// The capacitance, µF, of every request of daemon round `round`.
pub fn daemon_capacitance_uf(round: usize) -> f64 {
    CAPACITANCE_UF * (1.0 + 0.01 * round as f64)
}

/// The daemon round: the primed requests (one D3 `compile` per program,
/// sent in set-up) and the timed requests. A repeat always goes out on
/// the connection that issued its key first, so the first reply is in the
/// cache before the repeat is sent: a hit, never a coalesce.
pub fn daemon_round(seed: u64, round: usize) -> (Vec<DaemonOp>, Vec<DaemonOp>) {
    let mut rng = rng(seed, round, 3);
    let programs = Benchmark::all().len();
    let primed: Vec<DaemonOp> = (0..programs)
        .map(|program| DaemonOp {
            key: Key {
                program,
                deadline_index: 3,
                op: 0,
            },
            conn: program % CONNECTIONS,
            repeat: false,
        })
        .collect();
    let mut issued: Vec<DaemonOp> = primed.clone();
    // Each cold slot's deadline steps through D1..D5 from round to round
    // (skipping the primed D3 compile), from a seed-drawn offset, so a run
    // covers the deadlines evenly whatever the seed.
    let offset = rng.below(5) as usize;
    let mut cold: Vec<Key> = (0..programs)
        .flat_map(|program| {
            DAEMON_COLD_OPS
                .iter()
                .enumerate()
                .map(move |(slot, &op)| (program, slot, op))
        })
        .map(|(program, slot, op)| {
            let choices: Vec<usize> = (1..=5).filter(|&d| op != 0 || d != 3).collect();
            Key {
                program,
                deadline_index: choices[(offset + round + program + slot) % choices.len()],
                op,
            }
        })
        .collect();
    shuffle(&mut cold, &mut rng);
    let mut slots: Vec<bool> = std::iter::repeat_n(false, cold.len())
        .chain(std::iter::repeat_n(true, DAEMON_REPEATS))
        .collect();
    shuffle(&mut slots, &mut rng);
    let mut cold = cold.into_iter();
    let mut next_conn = rng.below(CONNECTIONS as u64) as usize;
    let mut timed = Vec::with_capacity(slots.len());
    for repeat in slots {
        let op = if repeat {
            let first = issued[rng.below(issued.len() as u64) as usize];
            DaemonOp {
                repeat: true,
                ..first
            }
        } else {
            let op = DaemonOp {
                key: cold.next().expect("one cold key per cold slot"),
                conn: next_conn,
                repeat: false,
            };
            next_conn = (next_conn + 1) % CONNECTIONS;
            issued.push(op);
            op
        };
        timed.push(op);
    }
    (primed, timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_ops_and_other_seed_other_ops() {
        for round in 0..3 {
            assert_eq!(cold_round(7, round), cold_round(7, round));
            assert_eq!(certify_round(7, round), certify_round(7, round));
            assert_eq!(daemon_round(7, round), daemon_round(7, round));
            assert_ne!(cold_round(7, round).1, cold_round(8, round).1);
            assert_ne!(certify_round(7, round), certify_round(8, round));
            assert_ne!(daemon_round(7, round).1, daemon_round(8, round).1);
        }
    }

    #[test]
    fn cold_ops_never_share_an_input() {
        for seed in [1, 2, 3] {
            let mut seen = HashSet::new();
            for round in 0..20 {
                let (warmup, timed) = cold_round(seed, round);
                for op in warmup.iter().chain(&timed) {
                    let key = (op.program.name(), op.input.seed, op.input.iterations);
                    assert!(seen.insert(key), "seed {seed}: {key:?} drawn twice");
                }
            }
        }
    }

    #[test]
    fn rounds_hold_every_program_equally() {
        let (warmup, timed) = cold_round(5, 0);
        assert_eq!(warmup.len(), Benchmark::all().len());
        for b in Benchmark::all() {
            let n = timed.iter().filter(|op| op.program == b).count();
            assert_eq!(n, COLD_PER_PROGRAM);
        }
        let ops = certify_round(5, 0);
        for p in 0..Benchmark::all().len() {
            assert_eq!(
                ops.iter().filter(|op| op.program == p).count(),
                CERTIFY_PER_PROGRAM
            );
        }
        assert!(ops.iter().all(|op| (0.0..1.0).contains(&op.position)));
    }

    #[test]
    fn daemon_repeats_follow_their_first_connection() {
        for seed in 0..50 {
            let (primed, timed) = daemon_round(seed, 0);
            let mut first_conn = std::collections::HashMap::new();
            for op in &primed {
                first_conn.insert(op.key, op.conn);
            }
            let mut cold = 0;
            for op in &timed {
                match first_conn.get(&op.key) {
                    Some(&conn) => {
                        assert!(
                            op.repeat,
                            "seed {seed}: {op:?} repeats a key but is not marked"
                        );
                        assert_eq!(op.conn, conn, "seed {seed}: repeat changed connection");
                    }
                    None => {
                        assert!(!op.repeat);
                        cold += 1;
                        first_conn.insert(op.key, op.conn);
                    }
                }
            }
            assert_eq!(cold, DAEMON_COLD_OPS.len() * Benchmark::all().len());
            assert_eq!(timed.len() - cold, DAEMON_REPEATS);
        }
    }
}
