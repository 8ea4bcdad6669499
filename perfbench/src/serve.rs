//! `serve-google-100`: the lips-serve daemon with its default
//! `ServeConfig` (colgen, dual-first masters) and the closed-loop epoch
//! tuner on a 100-node mixed cluster, fed 2,000 Google-shaped jobs
//! arriving over 50,000 virtual seconds. The job mix is the fixed
//! `google_synth` sample; the benchmark seed deals the jobs onto its
//! arrival times and offsets the daemon's input binding.
//!
//! The arrival stream is open-loop in virtual time; the benchmark's
//! load loop is closed-loop in wall time (the next `run_epoch` starts
//! when the last one returns). The decision span is `Daemon::run_epoch`
//! on an epoch that ran the LP.

use lips_cluster::{ec2_mixed_cluster, Cluster};
use lips_core::SchedulerConfig;
use lips_serve::{Daemon, ServeConfig, TuneConfig};
use lips_workload::{google_records_to_jobs, google_synth, GoogleSynthCfg, JobSpec};

use crate::heap::PeakMeter;
use crate::trace::Tracer;
use crate::{
    derive_seed, permute_arrivals, phases_ms, Decision, Fingerprint, Pass, Workload, TRACE_SEED,
};

const NODES: usize = 100;
const JOBS: usize = 2_000;
const WINDOW_S: f64 = 50_000.0;
/// Runaway guard; a drained stream needs well under 1,000 epochs.
const MAX_EPOCHS: usize = 20_000;

pub struct ServeGoogle;

pub struct Input {
    daemon: Daemon,
    submitted: usize,
}

impl Workload for ServeGoogle {
    type Input = Input;

    fn setup(&self, seed: u64, width: usize, tr: &mut Tracer) -> (Input, f64) {
        let (cluster, _): (Cluster, f64) = tr.span("ec2_mixed_cluster", || {
            ec2_mixed_cluster(NODES, 0.5, 1e9, TRACE_SEED)
        });
        let cfg = GoogleSynthCfg {
            jobs: JOBS,
            window_s: WINDOW_S,
            ..Default::default()
        };
        let (records, g_ms) = tr.span("google_synth", || google_synth(&cfg, TRACE_SEED));
        let (mut jobs, j_ms): (Vec<JobSpec>, f64) = tr.span("google_records_to_jobs", || {
            google_records_to_jobs(&records)
        });
        permute_arrivals(&mut jobs, derive_seed(seed, "serve.arrivals"));
        let config = ServeConfig {
            scheduler: SchedulerConfig {
                colgen: true,
                threads: Some(width),
                ..Default::default()
            },
            tuning: Some(TuneConfig::default()),
            bind_seed: derive_seed(seed, "serve.bind"),
            ..Default::default()
        };
        let (mut daemon, _) = tr.span("Daemon::new", || Daemon::new(cluster, config));
        let submitted = jobs.len();
        tr.span("Daemon::enqueue", || {
            for spec in jobs {
                daemon.enqueue(spec);
            }
        });
        (Input { daemon, submitted }, g_ms + j_ms)
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let Input {
            mut daemon,
            submitted,
        } = input;
        let mut pass = Pass::default();
        let mut epoch_self_ms = 0.0;
        let mut depths = Vec::new();
        let mut heap = PeakMeter::start();
        let t = std::time::Instant::now();
        while daemon.queue_len() > 0 || daemon.pending_arrivals() > 0 {
            if daemon.epochs_run() >= MAX_EPOCHS {
                break;
            }
            let before = daemon.scheduler().epoch_records().len();
            let (lp, ms) = tr.span("Daemon::run_epoch", || daemon.run_epoch().lp);
            let new = &daemon.scheduler().epoch_records()[before..];
            let phases = phases_ms(new);
            tr.set_phases(phases);
            epoch_self_ms += ms - phases;
            if lp {
                let rec = daemon.epoch_log().last().expect("an epoch was logged");
                depths.push(rec.queue_depth as f64);
                pass.decisions.push(Decision {
                    ms,
                    cold: !rec.incremental,
                    phases_ms: phases,
                });
                heap.decision();
            }
        }
        pass.wall_s = t.elapsed().as_secs_f64();
        pass.heap_parts_mb = heap.finish();

        let s = daemon.summary();
        let sched = daemon.scheduler();
        pass.records = sched.epoch_records().to_vec();
        pass.submitted = submitted;
        pass.completed = s.completed;
        pass.refused = s.rejected_queue_full + s.rejected_pool_budget;
        pass.jobs_done = s.completed;
        pass.dollars = s.total_dollars;
        pass.job_latency_s = daemon
            .completed()
            .iter()
            .map(|j| j.completed - j.arrival)
            .collect();
        pass.checks.push((
            "cpu+read+move = total dollars",
            (s.cpu_dollars + s.read_dollars + s.move_dollars).to_bits()
                == s.total_dollars.to_bits(),
        ));
        pass.checks.push((
            "daemon LP epochs = scheduler records",
            s.lp_epochs == pass.records.len(),
        ));
        let solves = sched.solves().max(1) as f64;
        pass.layer.insert("serve.epoch_self_ms", epoch_self_ms);
        pass.layer
            .insert("serve.incremental_share", s.solver.incremental_share);
        pass.layer.insert(
            "serve.dual_master_share",
            sched.dual_solves() as f64 / solves,
        );
        if let Some(p) = crate::percentile(&depths, 0.5) {
            pass.layer.insert("serve.queue_depth_p50", p);
        }
        if let Some(p) = crate::percentile(&depths, 0.9) {
            pass.layer.insert("serve.queue_depth_p90", p);
        }
        pass.fingerprint = Fingerprint::of(&pass, &[s.epochs_run as u64, s.chunks as u64]);
        pass.parts = vec![pass.fingerprint.clone()];
        pass
    }
}
