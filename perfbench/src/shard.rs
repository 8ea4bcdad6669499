//! `shard-cold-100`: `EpochSolver::sharded` on 100 nodes × 256
//! Google-shaped jobs, read back through the TSV reader the way the
//! `BENCH_scale` harness reads them.
//!
//! The job mix is the fixed `google_synth` sample. A pass runs
//! [`CHAINS`] independent chains, each with its own seed derived from the
//! benchmark seed, which permutes the jobs' ids and so their input
//! stores. Each chain is one cold epoch (no carried state)
//! followed by [`WARM_EPOCHS`] warm epochs that carry the shard and
//! master bases while every job's remaining data shrinks 3 % per epoch.
//! The decision span is `EpochSolver::run`.

use std::io::Cursor;

use lips_cluster::{ec2_mixed_cluster, Cluster, DataId, StoreId};
use lips_core::lp_build::{EpochSolver, LpInstance, LpJob, PruneConfig, ShardOptions, ShardState};
use lips_core::{EpochOutcome, EpochRecord};
use lips_workload::{
    google_records_to_jobs, google_synth, parse_google_tsv, write_google_tsv, GoogleSynthCfg,
};

use crate::heap::PeakMeter;
use crate::trace::Tracer;
use crate::{derive_seed, phases_ms, shuffle, Decision, Fingerprint, Pass, Workload, TRACE_SEED};

const NODES: usize = 100;
const JOBS: usize = 256;
/// Three chains of 34 epochs make 102 decisions per pass. Only the three
/// cold epochs sit among the eleven slowest, so `decision_ms_p90` rests on
/// eight warm epochs instead of a handful that a stray stall can move.
const CHAINS: usize = 3;
const WARM_EPOCHS: usize = 33;
const EPOCH_S: f64 = 600.0;

pub struct ShardCold;

pub struct Input {
    cluster: Cluster,
    chains: Vec<Vec<LpJob>>,
    width: usize,
}

/// One chain's base job set: synthesize a Google-shaped trace, round-trip
/// it through the TSV writer and reader, and bind each data-bearing job's
/// input to one store (round-robin by job id); input-less service jobs
/// carry fixed CPU work.
fn chain_jobs(cluster: &Cluster, seed: u64, tr: &mut Tracer) -> (Vec<LpJob>, f64) {
    let cfg = GoogleSynthCfg {
        jobs: JOBS,
        ..Default::default()
    };
    let (mut records, g_ms) = tr.span("google_synth", || google_synth(&cfg, TRACE_SEED));
    // Deal the records onto the trace's submit times in a seeded order:
    // the reader sorts by submit time, so this permutes job ids and with
    // them each job's input store.
    let submits: Vec<u64> = records.iter().map(|r| r.submit_time_us).collect();
    shuffle(&mut records, seed);
    for (r, t) in records.iter_mut().zip(submits) {
        r.submit_time_us = t;
    }
    let (tsv, w_ms) = tr.span("write_google_tsv", || {
        let mut buf = Vec::new();
        write_google_tsv(&records, &mut buf).expect("in-memory write");
        buf
    });
    let (parsed, p_ms) = tr.span("parse_google_tsv", || {
        parse_google_tsv(Cursor::new(tsv)).expect("synth emits well-formed TSV")
    });
    let (specs, j_ms) = tr.span("google_records_to_jobs", || google_records_to_jobs(&parsed));
    let stores = cluster.num_stores();
    let (jobs, b_ms) = tr.span("bind_lp_jobs", || {
        specs
            .iter()
            .map(|s| {
                let size = s.effective_input_mb();
                LpJob {
                    id: s.id,
                    data: (size >= 1.0).then_some(DataId(s.id.0)),
                    size_mb: size,
                    tcp: s.tcp_ecu_sec_per_mb,
                    fixed_ecu: s.ecu_sec_per_task * f64::from(s.tasks),
                    avail: if size >= 1.0 {
                        vec![(StoreId(s.id.0 % stores), 1.0)]
                    } else {
                        vec![]
                    },
                }
            })
            .collect::<Vec<_>>()
    });
    (jobs, g_ms + w_ms + p_ms + j_ms + b_ms)
}

/// The epoch-`e` view of a chain: remaining data shrinks 3 % per epoch.
fn decayed(base: &[LpJob], epoch: usize) -> Vec<LpJob> {
    let remaining = 0.97f64.powi(epoch as i32).max(0.25);
    base.iter()
        .cloned()
        .map(|mut j| {
            j.size_mb *= remaining;
            j
        })
        .collect()
}

fn instance(cluster: &Cluster, jobs: Vec<LpJob>) -> LpInstance<'_> {
    LpInstance {
        cluster,
        jobs,
        duration: EPOCH_S,
        fake_cost: Some(1.0),
        allow_moves: true,
        enforce_transfer_time: true,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig {
            max_machines_per_job: Some(16),
            max_new_stores_per_job: Some(6),
        },
    }
}

impl Workload for ShardCold {
    type Input = Input;

    fn setup(&self, seed: u64, width: usize, tr: &mut Tracer) -> (Input, f64) {
        let (cluster, _) = tr.span("ec2_mixed_cluster", || {
            ec2_mixed_cluster(NODES, 0.4, 1e9, TRACE_SEED)
        });
        let mut generate_ms = 0.0;
        let chains = (0..CHAINS)
            .map(|c| {
                let (jobs, ms) =
                    chain_jobs(&cluster, derive_seed(seed, &format!("shard.chain{c}")), tr);
                generate_ms += ms;
                jobs
            })
            .collect();
        (
            Input {
                cluster,
                chains,
                width,
            },
            generate_ms,
        )
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut self_ms = 0.0;
        let mut heap = PeakMeter::start();
        for base in &input.chains {
            let chain = run_chain(&input.cluster, base, input.width, tr);
            heap.cut();
            self_ms += chain.layer["core.decide_self_ms"];
            pass.parts.push(chain.fingerprint);
            pass.decisions.extend(chain.decisions);
            pass.wall_s += chain.wall_s;
            pass.records.extend(chain.records);
            pass.submitted += chain.submitted;
            pass.completed += chain.completed;
            pass.dollars += chain.dollars;
            pass.checks.extend(chain.checks);
        }
        pass.layer.insert("core.decide_self_ms", self_ms);
        pass.heap_parts_mb = heap.finish();
        pass.jobs_done = pass.submitted;
        pass.checks
            .push(("certified dollars finite", pass.dollars.is_finite()));
        pass.fingerprint = Fingerprint::of(&pass, &[]);
        pass
    }

    /// The single-thread check replays the first chain only.
    fn check_subset(&self, mut input: Input) -> Input {
        input.chains.truncate(1);
        input
    }
}

/// One chain: a cold epoch, then the carried warm epochs.
fn run_chain(cluster: &Cluster, base: &[LpJob], width: usize, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut span_ms = 0.0;
    let mut state: Option<ShardState> = None;
    for e in 0..=WARM_EPOCHS {
        let inst = instance(cluster, decayed(base, e));
        let carried = state.is_some();
        let solver = EpochSolver::new(&inst)
            .threads(width)
            .sharded_with(ShardOptions::default(), state.as_ref());
        let (result, ms) = tr.span("EpochSolver::run", || solver.run());
        span_ms += ms;
        pass.wall_s += ms / 1e3;
        pass.submitted += inst.jobs.len();
        let report = match result {
            Ok(r) => r,
            Err(err) => {
                eprintln!("epoch {e} failed: {err:?}");
                pass.records.push(EpochRecord::degraded(e, inst.jobs.len()));
                pass.decisions.push(Decision {
                    ms,
                    cold: !carried,
                    phases_ms: 0.0,
                });
                state = None;
                continue;
            }
        };
        let certified = report.certificate.as_ref().is_some_and(|c| c.is_optimal());
        let outcome = if certified {
            EpochOutcome::Certified
        } else {
            EpochOutcome::Degraded
        };
        let rec = EpochRecord::from_solve_report(e, inst.jobs.len(), outcome, &report, carried);
        let phases = phases_ms(std::slice::from_ref(&rec));
        tr.set_phases(phases);
        pass.decisions.push(Decision {
            ms,
            cold: !carried,
            phases_ms: phases,
        });
        if certified {
            pass.dollars += report.schedule.predicted_dollars;
            pass.completed += inst.jobs.len();
        }
        pass.records.push(rec);
        state = report.shard.map(|(s, _)| s);
    }
    let phases: f64 = pass.decisions.iter().map(|d| d.phases_ms).sum();
    pass.layer.insert("core.decide_self_ms", span_ms - phases);
    pass.fingerprint = Fingerprint::of(&pass, &[]);
    pass
}
