//! `sim-swim-40`: the event engine (`Simulation::run`) driving
//! `LipsScheduler` on `SchedulerConfig::small_cluster(400.0)` — the full
//! model, dual rung first — over a 40-node mixed cluster and an 800-job
//! SWIM day (the paper's FB-2010 shape, 24 one-hour buckets). The job
//! mix is the fixed `swim_trace` sample; the benchmark seed deals the
//! jobs onto its arrival times and seeds the input binding and block
//! spread.
//!
//! The scheduler is handed to the engine through [`Forward`], a wrapper
//! that spans every `Scheduler::decide` call from outside.

use lips_cluster::{ec2_mixed_cluster, Cluster};
use lips_core::{LipsScheduler, SchedulerConfig};
use lips_sim::{Action, Placement, Scheduler, SchedulerContext, Simulation};
use lips_workload::{bind_workload, swim_trace, BoundWorkload, PlacementPolicy, SwimCfg};

use crate::heap::PeakMeter;
use crate::trace::Tracer;
use crate::{
    derive_seed, permute_arrivals, phases_ms, Decision, Fingerprint, Pass, Workload, TRACE_SEED,
};

const NODES: usize = 40;
const JOBS: usize = 800;
const EPOCH_S: f64 = 400.0;

pub struct SimSwim;

pub struct Input {
    cluster: Cluster,
    workload: BoundWorkload,
    placement: Placement,
    scheduler: LipsScheduler,
}

/// Forwards every call to the wrapped scheduler, spanning `decide`.
struct Forward<'a> {
    inner: &'a mut LipsScheduler,
    tr: &'a mut Tracer,
    decisions: Vec<Decision>,
    decide_ms: f64,
    phases_ms: f64,
    heap: PeakMeter,
}

impl Scheduler for Forward<'_> {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let solves = self.inner.solves();
        let before = self.inner.epoch_records().len();
        let open = self.tr.begin();
        let actions = self.inner.decide(ctx);
        let ms = self.tr.end(open, "Scheduler::decide");
        let new = &self.inner.epoch_records()[before..];
        let phases = phases_ms(new);
        self.tr.set_phases(phases);
        self.decide_ms += ms;
        self.phases_ms += phases;
        if self.inner.solves() > solves {
            self.decisions.push(Decision {
                ms,
                cold: new.last().is_none_or(|r| !r.incremental),
                phases_ms: phases,
            });
            self.heap.decision();
        }
        actions
    }

    fn epoch(&self) -> Option<f64> {
        self.inner.epoch()
    }

    fn degraded_epochs(&self) -> usize {
        self.inner.degraded_epochs()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Workload for SimSwim {
    type Input = Input;

    fn setup(&self, seed: u64, width: usize, tr: &mut Tracer) -> (Input, f64) {
        let (mut cluster, _) = tr.span("ec2_mixed_cluster", || {
            ec2_mixed_cluster(NODES, 0.5, 1e9, TRACE_SEED)
        });
        let cfg = SwimCfg {
            jobs: JOBS,
            ..Default::default()
        };
        let (mut trace, g_ms) = tr.span("swim_trace", || swim_trace(&cfg, TRACE_SEED));
        permute_arrivals(&mut trace, derive_seed(seed, "sim.arrivals"));
        let bind_seed = derive_seed(seed, "sim.bind");
        let (workload, b_ms) = tr.span("bind_workload", || {
            bind_workload(&mut cluster, trace, PlacementPolicy::RoundRobin, bind_seed)
        });
        let (placement, p_ms) = tr.span("Placement::spread_blocks", || {
            Placement::spread_blocks(&cluster, bind_seed)
        });
        let config = SchedulerConfig {
            threads: Some(width),
            ..SchedulerConfig::small_cluster(EPOCH_S)
        };
        let (scheduler, _) = tr.span("LipsScheduler::new", || LipsScheduler::new(config));
        let input = Input {
            cluster,
            workload,
            placement,
            scheduler,
        };
        (input, g_ms + b_ms + p_ms)
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let Input {
            cluster,
            workload,
            placement,
            mut scheduler,
        } = input;
        let sim = Simulation::new(&cluster, &workload).with_placement(placement);
        let open = tr.begin();
        let mut fw = Forward {
            inner: &mut scheduler,
            tr,
            decisions: Vec::new(),
            decide_ms: 0.0,
            phases_ms: 0.0,
            heap: PeakMeter::start(),
        };
        let result = sim.run(&mut fw);
        let Forward {
            decisions,
            decide_ms,
            phases_ms,
            tr,
            heap,
            ..
        } = fw;
        let run_ms = tr.end(open, "Simulation::run");

        let mut pass = Pass {
            decisions,
            wall_s: run_ms / 1e3,
            records: scheduler.epoch_records().to_vec(),
            submitted: workload.jobs.len(),
            heap_parts_mb: heap.finish(),
            ..Pass::default()
        };
        pass.layer
            .insert("core.decide_self_ms", decide_ms - phases_ms);
        pass.layer.insert("sim.engine_self_ms", run_ms - decide_ms);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                pass.checks
                    .push(("Simulation::run returned a report", false));
                eprintln!("simulation failed: {e:?}");
                pass.fingerprint = Fingerprint::of(&pass, &[]);
                return pass;
            }
        };
        let m = &report.metrics;
        pass.completed = report.outcomes.len();
        pass.jobs_done = report.outcomes.len();
        pass.dollars = m.total_dollars();
        pass.job_latency_s = report.outcomes.iter().map(|o| o.duration()).collect();
        pass.checks.push((
            "cpu+read+move = total dollars",
            (m.cpu_dollars + m.read_dollars + m.move_dollars).to_bits()
                == m.total_dollars().to_bits(),
        ));
        pass.checks.push((
            "engine degraded epochs = scheduler Degraded records",
            m.faults.degraded_epochs
                == pass
                    .records
                    .iter()
                    .filter(|r| r.outcome == "Degraded")
                    .count(),
        ));
        let violations = lips_sim::validate_report(&report, &cluster, &workload);
        for v in &violations {
            eprintln!("violation: {v}");
        }
        pass.checks.push((
            "schedule valid (lips_sim::validate_report)",
            violations.is_empty(),
        ));
        pass.layer.insert("sim.events", report.events as f64);
        pass.fingerprint =
            Fingerprint::of(&pass, &[report.events as u64, report.makespan.to_bits()]);
        pass.parts = vec![pass.fingerprint.clone()];
        pass
    }
}
