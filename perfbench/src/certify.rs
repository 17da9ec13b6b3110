//! `certify-sweep`: certifying compiles over profiles built in set-up, so
//! no simulation is timed and the prover and checker dominate.

use crate::cold::compiler;
use crate::plan::certify_round;
use crate::{ms_since, Mean, RoundOutcome, Workload};
use dvs_compiler::{CompileResult, DeadlineScheme};
use dvs_ir::{Cfg, Profile};
use dvs_sim::Machine;
use dvs_workloads::Benchmark;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One program's set-up: its CFG, its default-input profile and deadlines.
struct Prepared {
    cfg: Cfg,
    profile: Profile,
    scheme: DeadlineScheme,
}

impl Prepared {
    /// The deadline at `position` in `[0, 1)` of the way from D1 to D5.
    fn deadline_us(&self, position: f64) -> f64 {
        let d = self.scheme.deadlines_us();
        d[0] + (d[4] - d[0]) * position
    }
}

pub struct CertifySweep {
    seed: u64,
}

impl CertifySweep {
    pub fn new(seed: u64) -> Self {
        CertifySweep { seed }
    }
}

/// What the benchmark's own re-check of one certificate found.
struct Checked {
    branch_nodes: usize,
    proof_nodes: usize,
    bytes: usize,
}

/// Decodes the op's certificate and replays it through `dvs_cert::check`,
/// independently of the verdict the compile already attached.
fn check(result: &Result<CompileResult, String>, deadline_us: f64) -> Result<Checked, String> {
    let r = result.as_ref()?;
    if r.milp.predicted_time_us > deadline_us * (1.0 + 1e-9) {
        return Err(format!(
            "predicted {} µs over deadline {deadline_us} µs",
            r.milp.predicted_time_us
        ));
    }
    let cert = r.milp.certificate.as_ref().ok_or("no certificate")?;
    let decoded = dvs_cert::Certificate::decode(&cert.encoded)?;
    let report = dvs_cert::check(&decoded);
    if let Some(reject) = &report.reject {
        return Err(format!(
            "certificate rejected: {}: {}",
            reject.code.as_str(),
            reject.detail
        ));
    }
    if report != cert.report {
        return Err("re-check disagrees with the compile's own check report".into());
    }
    Ok(Checked {
        branch_nodes: report.branch_nodes,
        proof_nodes: report.branch_nodes
            + report.bound_leaves
            + report.farkas_leaves
            + report.empty_leaves,
        bytes: cert.encoded.len(),
    })
}

impl Workload for CertifySweep {
    fn round(&mut self, round: usize, traced: bool) -> RoundOutcome {
        let ops = certify_round(self.seed, round);
        let machine = Machine::paper_default();
        let certifier = compiler(true);
        let plain = compiler(false);
        let [mut gen_ms, mut deadline_ms, mut profile_ms] = [Mean::default(); 3];

        let setup = Instant::now();
        let prepared: Vec<Prepared> = Benchmark::all()
            .into_iter()
            .map(|b| {
                let t = Instant::now();
                let cfg = b.build_cfg();
                let trace = b.trace(&cfg, &b.default_input());
                gen_ms.add(ms_since(t));
                let t = Instant::now();
                let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
                deadline_ms.add(ms_since(t));
                let t = Instant::now();
                let (profile, _) = certifier.profile(&cfg, &trace);
                profile_ms.add(ms_since(t));
                let p = Prepared {
                    cfg,
                    profile,
                    scheme,
                };
                black_box(
                    certifier
                        .compile(&p.cfg, &p.profile, p.scheme.deadline_us(3))
                        .ok(),
                );
                p
            })
            .collect();
        let setup_s = setup.elapsed().as_secs_f64();

        let mut out = RoundOutcome {
            setup_s,
            ..RoundOutcome::default()
        };
        let [mut plain_ms, mut certify_ms, mut check_ms] = [Mean::default(); 3];
        let [mut nodes, mut pivots, mut bytes, mut branch] = [Mean::default(); 4];
        let (mut proof_nodes, mut bnb_nodes) = (0usize, 0usize);
        let mut busy_s = 0.0;
        for op in &ops {
            let p = &prepared[op.program];
            let deadline_us = p.deadline_us(op.position);
            let t = Instant::now();
            let result = certifier.compile(&p.cfg, &p.profile, deadline_us);
            let latency_ms = ms_since(t);
            busy_s += latency_ms / 1e3;
            out.latencies_ms.push(latency_ms);
            let result = black_box(result).map_err(|e| e.to_string());

            // Everything below runs outside the op's timed interval.
            let t = Instant::now();
            let checked = check(&result, deadline_us);
            let recheck_ms = ms_since(t);
            match checked {
                Ok(c) => {
                    let r = result.as_ref().expect("checked results compiled");
                    nodes.add(r.milp.solve_stats.nodes as f64);
                    pivots.add(r.milp.solve_stats.pivots as f64);
                    bytes.add(c.bytes as f64);
                    branch.add(c.branch_nodes as f64);
                    proof_nodes += c.proof_nodes;
                    bnb_nodes += r.milp.solve_stats.nodes;
                    if traced {
                        let t = Instant::now();
                        black_box(plain.compile(&p.cfg, &p.profile, deadline_us).ok());
                        let plain_compile_ms = ms_since(t);
                        let internal_check_ms = r
                            .milp
                            .certificate
                            .as_ref()
                            .map_or(0.0, |c| c.check_us / 1e3);
                        plain_ms.add(plain_compile_ms);
                        certify_ms.add(latency_ms - plain_compile_ms - internal_check_ms);
                        check_ms.add(recheck_ms);
                    }
                }
                Err(e) => {
                    eprintln!(
                        "certify-sweep: {} at {deadline_us:.1} µs: {e}",
                        Benchmark::all()[op.program].name()
                    );
                    out.failed += 1;
                }
            }
        }
        out.busy_s = busy_s;
        out.layers = BTreeMap::from([
            ("workloads.gen_ms", gen_ms.get()),
            ("sim.deadline_ms", deadline_ms.get()),
            ("sim.profile_ms", profile_ms.get()),
            ("core.compile_ms", plain_ms.get()),
            ("milp.certify_ms", certify_ms.get()),
            ("cert.check_ms", check_ms.get()),
        ]);
        out.counts = BTreeMap::from([
            ("milp.bnb_nodes_per_op", nodes.get()),
            ("milp.pivots_per_op", pivots.get()),
            ("cert.bytes_per_op", bytes.get()),
            ("cert.branch_nodes_per_op", branch.get()),
            (
                "cert.proof_nodes_per_bnb_node",
                if bnb_nodes > 0 {
                    proof_nodes as f64 / bnb_nodes as f64
                } else {
                    0.0
                },
            ),
            ("sim.runs_per_op", 0.0),
        ]);
        out
    }
}
