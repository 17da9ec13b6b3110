//! `daemon-mixed`: an in-process `dvs_serve::Server` (`jobs: 1`, default
//! cache and queue) and one closed-loop caller taking turns on two client
//! connections. Cold requests write the solve cache and repeats read it.
//!
//! One daemon serves the whole run, as a real one would, so its threads and
//! their allocator arenas are made once; each round's requests carry a
//! capacitance no earlier round used, so its keys are new to the cache.
//!
//! One request is in flight at a time. With a single solve worker, a
//! second concurrent caller only adds whichever solve it happened to
//! overlap to the other's queue wait, which makes the percentiles a draw
//! of the interleaving rather than a property of the ops.

use crate::plan::{daemon_capacitance_uf, daemon_round, DaemonOp, Key, CONNECTIONS, SOLVE_OPS};
use crate::{ms_since, Mean, RoundOutcome, Workload};
use dvs_serve::trace::span_dur_us;
use dvs_serve::{Client, Reply, Request, ServeConfig, ServeSummary, Server, SolveRequest};
use dvs_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::thread::JoinHandle;
use std::time::Instant;

fn request_frame(key: Key, capacitance_uf: f64) -> String {
    Request::Solve(SolveRequest {
        op: SOLVE_OPS[key.op],
        benchmark: Benchmark::all()[key.program].name().to_string(),
        deadline_index: key.deadline_index,
        levels: 3,
        capacitance_uf,
        solver: "auto".to_string(),
        timeout_ms: None,
        trace_id: None,
    })
    .to_json()
    .dump()
}

/// The result body of a success envelope, byte for byte as the server
/// spliced it in (the envelope ends with `"result":<body>}`).
fn raw_body(frame: &str) -> Option<&str> {
    let start = frame.find("\"result\":")? + "\"result\":".len();
    frame.get(start..frame.len().checked_sub(1)?)
}

/// One reply as the client saw it.
struct Sent {
    op: DaemonOp,
    latency_ms: f64,
    frame: Result<String, String>,
}

fn send(client: &mut Client, op: DaemonOp, capacitance_uf: f64) -> Sent {
    let request = request_frame(op.key, capacitance_uf);
    let t = Instant::now();
    let frame = client.request_raw(&request).map_err(|e| e.to_string());
    Sent {
        op,
        latency_ms: ms_since(t),
        frame,
    }
}

/// Checks one reply: `ok`, a hit exactly when it repeats a key, and for a
/// repeat a body byte-identical to the key's first reply.
fn check(sent: &Sent, first: &mut HashMap<Key, String>) -> Result<Reply, String> {
    let frame = sent.frame.as_ref()?;
    let reply = Reply::parse(frame)?;
    if !reply.ok {
        return Err(format!(
            "{:?}: {}",
            reply.kind,
            reply.error.unwrap_or_default()
        ));
    }
    let body = raw_body(frame).ok_or("reply has no result body")?;
    if reply.cached != sent.op.repeat {
        return Err(format!(
            "cached={} but repeat={}",
            reply.cached, sent.op.repeat
        ));
    }
    match first.get(&sent.op.key) {
        Some(b) if b != body => Err("repeat body differs from the first reply".into()),
        Some(_) => Ok(reply),
        None => {
            first.insert(sent.op.key, body.to_string());
            Ok(reply)
        }
    }
}

/// The `stats` op's cache hits, cache misses and executed solves.
fn stats(client: &mut Client) -> Option<[f64; 3]> {
    let body = client.request(&Request::Stats).ok()?.result?;
    let get = |a: &str, b: &str| body.get(a)?.get(b)?.as_f64();
    Some([
        get("cache", "hits")?,
        get("cache", "misses")?,
        get("counters", "solves")?,
    ])
}

struct Running {
    clients: Vec<Client>,
    handle: JoinHandle<io::Result<ServeSummary>>,
    /// `stats` at the end of the previous round.
    stats: [f64; 3],
}

impl Running {
    /// Binds a loopback daemon and connects the clients *before* `run`, so
    /// the accept loop finds both waiting and never sleeps its idle poll
    /// interval inside set-up.
    fn start() -> Running {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&addr, None).expect("connect to the bound listener"))
            .collect();
        Running {
            clients,
            handle: std::thread::spawn(move || server.run()),
            stats: [0.0; 3],
        }
    }
}

pub struct DaemonMixed {
    seed: u64,
    daemon: Option<Running>,
}

impl DaemonMixed {
    pub fn new(seed: u64) -> Self {
        DaemonMixed { seed, daemon: None }
    }
}

impl Workload for DaemonMixed {
    fn round(&mut self, round: usize, traced: bool) -> RoundOutcome {
        let (primed, timed) = daemon_round(self.seed, round);
        let capacitance_uf = daemon_capacitance_uf(round);
        let mut out = RoundOutcome::default();
        let mut first: HashMap<Key, String> = HashMap::new();

        // Traced rounds read the program's own counters over the primed and
        // the timed solves, which are the solves `stats` counts.
        if traced {
            dvs_obs::reset();
            dvs_obs::enable();
        }
        let setup = Instant::now();
        let daemon = self.daemon.get_or_insert_with(Running::start);
        for op in &primed {
            let sent = send(&mut daemon.clients[op.conn], *op, capacitance_uf);
            if let Err(e) = check(&sent, &mut first) {
                eprintln!("daemon-mixed: primed {:?}: {e}", op.key);
                out.failed += 1;
            }
        }
        out.setup_s = setup.elapsed().as_secs_f64();

        let busy = Instant::now();
        let replies: Vec<Sent> = timed
            .iter()
            .map(|op| send(&mut daemon.clients[op.conn], *op, capacitance_uf))
            .collect();
        out.busy_s = busy.elapsed().as_secs_f64();
        let obs = traced.then(|| {
            dvs_obs::disable();
            dvs_obs::MetricsSnapshot::capture()
        });
        let now = stats(&mut daemon.clients[0]).unwrap_or_else(|| {
            eprintln!("daemon-mixed: stats request failed");
            out.failed += 1;
            daemon.stats
        });
        let [hits, misses, solves] = [0, 1, 2].map(|i| now[i] - daemon.stats[i]);
        daemon.stats = now;

        let [mut queue_wait, mut lookup, mut overhead] = [Mean::default(); 3];
        let mut solve_ms = [Mean::default(); 4];
        for sent in &replies {
            out.latencies_ms.push(sent.latency_ms);
            let reply = match check(sent, &mut first) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("daemon-mixed: {:?}: {e}", sent.op.key);
                    out.failed += 1;
                    continue;
                }
            };
            overhead.add(sent.latency_ms - reply.server_us / 1e3);
            let tree = reply.trace.as_ref();
            if let Some(us) = tree.and_then(|t| span_dur_us(t, "cache-lookup")) {
                lookup.add(us);
            }
            if !sent.op.repeat {
                if let Some(us) = tree.and_then(|t| span_dur_us(t, "queue-wait")) {
                    queue_wait.add(us / 1e3);
                }
                if let Some(us) = tree.and_then(|t| span_dur_us(t, "solve")) {
                    solve_ms[sent.op.key.op].add(us / 1e3);
                }
            }
        }

        out.layers = BTreeMap::from([
            ("serve.queue_wait_ms", queue_wait.get()),
            ("serve.cache_lookup_us", lookup.get()),
            ("serve.overhead_ms", overhead.get()),
            ("serve.solve_ms.compile", solve_ms[0].get()),
            ("serve.solve_ms.verify", solve_ms[1].get()),
            ("serve.solve_ms.evaluate", solve_ms[2].get()),
            ("serve.solve_ms.certify", solve_ms[3].get()),
        ]);
        out.counts = BTreeMap::from([
            ("serve.solves", solves),
            (
                "serve.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ),
        ]);
        if let Some(snap) = obs {
            if solves > 0.0 {
                let runs = snap.counter("sim.runs") + snap.counter("sim.scheduled_runs");
                out.counts
                    .insert("serve.sim_runs_per_solve", runs as f64 / solves);
            }
            let hits = snap.counter("serve.bytecode.hits") as f64;
            let compiles = snap.counter("serve.bytecode.compiles") as f64;
            if hits + compiles > 0.0 {
                out.counts
                    .insert("replay.bytecode_hit_ratio", hits / (hits + compiles));
            }
        }
        out
    }

    /// Drains and stops the daemon, outside every timed interval (its
    /// shutdown polls every 50 ms).
    fn finish(&mut self) -> usize {
        let Some(mut daemon) = self.daemon.take() else {
            return 0;
        };
        let ack = daemon.clients[0].request(&Request::Shutdown);
        drop(daemon.clients);
        match (ack, daemon.handle.join()) {
            (Ok(reply), Ok(Ok(_))) if reply.ok => 0,
            _ => {
                eprintln!("daemon-mixed: shutdown failed");
                1
            }
        }
    }
}
