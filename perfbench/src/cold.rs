//! `cold-compile`: one caller compiling a fresh (program, input) pair per
//! op, exactly as `dvsc compile` does after generating its input:
//! `DeadlineScheme::measure`, `DvsCompiler::profile`, then
//! `compile_and_validate`, on a fresh jobs-1 compiler and the 3-level
//! XScale ladder.

use crate::plan::{cold_round, ColdOp, CAPACITANCE_UF};
use crate::{ms_since, Mean, RoundOutcome, Workload};
use dvs_compiler::{CompileResult, DeadlineScheme, DvsCompiler};
use dvs_ir::Cfg;
use dvs_sim::{Machine, Trace};
use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub fn compiler(certify: bool) -> DvsCompiler {
    DvsCompiler::builder(
        Machine::paper_default(),
        VoltageLadder::xscale3(&AlphaPower::paper()),
        TransitionModel::with_capacitance_uf(CAPACITANCE_UF),
    )
    .jobs(1)
    .solver_jobs(1)
    .certify(certify)
    .build()
    .expect("the benchmark's compiler settings are valid")
}

pub struct ColdCompile {
    seed: u64,
}

impl ColdCompile {
    pub fn new(seed: u64) -> Self {
        ColdCompile { seed }
    }
}

/// Per-layer times of one traced op, in milliseconds.
#[derive(Default)]
struct LayerTimes {
    deadline: f64,
    profile: f64,
    compile: f64,
    validate: f64,
}

/// What one op did, whether or not it was timed layer by layer.
struct OpRun {
    result: Result<CompileResult, String>,
    deadline_us: f64,
    layers: Option<LayerTimes>,
}

/// One cold compile. Untraced, it makes the same calls `dvsc compile`
/// makes; traced, it splits `compile_and_validate` into `compile` plus the
/// validating `Machine::run_scheduled`, and times each call.
fn run_op(
    machine: &Machine,
    cfg: &Cfg,
    trace: &Trace,
    deadline_index: usize,
    traced: bool,
) -> OpRun {
    let compiler = compiler(false);
    let mut layers = LayerTimes::default();
    let t = Instant::now();
    let scheme = DeadlineScheme::measure(machine, cfg, trace);
    layers.deadline = ms_since(t);
    let deadline_us = scheme.deadline_us(deadline_index);
    let t = Instant::now();
    let (profile, _) = compiler.profile(cfg, trace);
    layers.profile = ms_since(t);
    let result = if traced {
        let t = Instant::now();
        let compiled = compiler.compile(cfg, &profile, deadline_us);
        layers.compile = ms_since(t);
        compiled.map(|mut r| {
            let t = Instant::now();
            r.validated = Some(machine.run_scheduled(
                cfg,
                trace,
                compiler.ladder(),
                &r.milp.schedule,
                compiler.transition(),
            ));
            layers.validate = ms_since(t);
            r
        })
    } else {
        compiler.compile_and_validate(cfg, trace, &profile, deadline_us)
    };
    OpRun {
        result: black_box(result.map_err(|e| e.to_string())),
        deadline_us,
        layers: traced.then_some(layers),
    }
}

/// The op's output check: the re-simulated schedule meets the deadline and
/// the MILP spends no more energy than the best single mode.
fn check(op: &OpRun) -> Result<(), String> {
    let r = op.result.as_ref()?;
    let v = r.validated.as_ref().ok_or("no validation run")?;
    // The MILP predicts from per-block averages and the validation replays
    // the exact trace, so measured time may pass the deadline by the slack
    // the differential checker allows. mpeg/decode without B frames passes
    // D5 by about 9.7%, beyond the 6% the end-to-end tests allow the three
    // programs they cover.
    let tol = dvs_check::Tolerances::default();
    if v.time_us > op.deadline_us * (1.0 + tol.replay_time_rel) + tol.replay_time_abs_us {
        return Err(format!(
            "measured {} µs over deadline {} µs",
            v.time_us, op.deadline_us
        ));
    }
    if let Some((_, _, single)) = r.single_mode {
        if r.milp.predicted_energy_uj > single * (1.0 + 1e-9) {
            return Err(format!(
                "MILP energy {} µJ above best single mode {single} µJ",
                r.milp.predicted_energy_uj
            ));
        }
    }
    Ok(())
}

impl Workload for ColdCompile {
    fn round(&mut self, round: usize, traced: bool) -> RoundOutcome {
        let (warmup, timed) = cold_round(self.seed, round);
        let machine = Machine::paper_default();
        let mut gen = Mean::default();

        let setup = Instant::now();
        let mut generate = |op: &ColdOp| {
            let t = Instant::now();
            let cfg = op.program.build_cfg();
            let trace = op.program.trace(&cfg, &op.input);
            gen.add(ms_since(t));
            (cfg, trace)
        };
        let inputs: Vec<(Cfg, Trace)> = timed.iter().map(&mut generate).collect();
        for op in &warmup {
            let (cfg, trace) = generate(op);
            black_box(
                run_op(&machine, &cfg, &trace, op.deadline_index, false)
                    .result
                    .ok(),
            );
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let mut out = RoundOutcome {
            setup_s,
            ..RoundOutcome::default()
        };
        let [mut deadline, mut profile, mut compile, mut validate] = [Mean::default(); 4];
        let [mut nodes, mut pivots] = [Mean::default(); 2];
        // Traced rounds count the simulations the program itself records.
        if traced {
            dvs_obs::reset();
            dvs_obs::enable();
        }
        for (op, (cfg, trace)) in timed.iter().zip(&inputs) {
            let t = Instant::now();
            let run = run_op(&machine, cfg, trace, op.deadline_index, traced);
            out.latencies_ms.push(ms_since(t));
            if let Err(e) = check(&run) {
                eprintln!(
                    "cold-compile: {} {} D{}: {e}",
                    op.program.name(),
                    op.input.name,
                    op.deadline_index
                );
                out.failed += 1;
            }
            if let Ok(r) = &run.result {
                nodes.add(r.milp.solve_stats.nodes as f64);
                pivots.add(r.milp.solve_stats.pivots as f64);
            }
            if let Some(l) = run.layers {
                deadline.add(l.deadline);
                profile.add(l.profile);
                compile.add(l.compile);
                validate.add(l.validate);
            }
        }
        let sims = traced.then(|| {
            dvs_obs::disable();
            dvs_obs::MetricsSnapshot::capture()
        });
        // One caller: the busy time is the sum of the op latencies.
        out.busy_s = out.latencies_ms.iter().sum::<f64>() / 1e3;
        out.layers = BTreeMap::from([
            ("workloads.gen_ms", gen.get()),
            ("sim.deadline_ms", deadline.get()),
            ("sim.profile_ms", profile.get()),
            ("sim.validate_ms", validate.get()),
            ("core.compile_ms", compile.get()),
        ]);
        out.counts = BTreeMap::from([
            ("milp.bnb_nodes_per_op", nodes.get()),
            ("milp.pivots_per_op", pivots.get()),
        ]);
        if let Some(snap) = sims {
            let per_op = |n: u64| n as f64 / timed.len() as f64;
            out.counts.insert(
                "sim.runs_per_op",
                per_op(snap.counter("sim.runs") + snap.counter("sim.scheduled_runs")),
            );
            out.counts
                .insert("sim.insts_per_op", per_op(snap.counter("sim.insts")));
        }
        out
    }
}
