//! The LiPS workspace benchmark: one command, three workloads, outputs
//! checked, every metric printed with its unit and sample count.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-google-100|shard-cold-100|sim-swim-40> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up [`SETUP_REPS`] times, then repeats whole
//! passes over the same generated inputs until `--seconds` have been
//! measured (and enough decisions exist for the reported percentiles),
//! and finally re-runs a pass (one chain on the shard workload) at the
//! default worker width. Every pass must reproduce the first pass's
//! fingerprint bit for bit, at both widths.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced passes, writes the traced spans to
//! `perfbench/out/`, and reports the per-layer metrics plus the tracing
//! overhead. See `perfbench/METRICS.md` for every metric's definition.

mod heap;
mod serve;
mod shard;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use lips_core::EpochRecord;
use lips_workload::{JobId, JobSpec};

use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Worker width of the timed passes. On a small shared host a second
/// worker makes every parallel region wait for a free core: it costs more
/// than it saves and dominates the run-to-run spread. The check pass runs
/// at the default width (at least 2).
const TIMED_WIDTH: usize = 1;
/// Set-up repetitions before the timed passes (each pass also sets up
/// once more, and every set-up is a `setup_s` sample).
const SETUP_REPS: usize = 25;
/// Seed of the fixed job mix each workload replays (the seed the
/// `BENCH_scale` harness and the `swim_day` example use). The benchmark
/// seed decides arrival order, chain order and input binding.
pub const TRACE_SEED: u64 = 1;
/// Clock slack allowed when checking that a decision span covers the
/// phases the program timed inside it.
const SPAN_SLACK_MS: f64 = 0.05;
/// Fewest decisions the timed phase collects, so `decision_ms_p90` has
/// at least ten samples beyond it.
const MIN_DECISIONS: usize = 100;
/// Samples that must lie beyond an upper percentile before it is
/// reported.
const MIN_BEYOND: usize = 10;

/// One timed scheduling decision, measured by its outside span.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    pub ms: f64,
    /// Solved from scratch: no carried basis or master survived into it.
    pub cold: bool,
    /// The program's own build + solve + certify split for it.
    pub phases_ms: f64,
}

/// The deterministic summary of one pass; every pass of a run must
/// reproduce it bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub lp_epochs: usize,
    pub iterations: usize,
    pub refactors: usize,
    pub objective_sum_bits: u64,
    pub completed: usize,
    pub dollars_bits: u64,
    /// FNV-1a over every epoch record's counters and objective bits plus
    /// the workload's own extras.
    pub hash: u64,
}

impl Fingerprint {
    pub fn of(pass: &Pass, extra: &[u64]) -> Self {
        let mut h = Fnv::default();
        for r in &pass.records {
            for v in [
                r.jobs as u64,
                r.iterations as u64,
                r.phase1_iterations as u64,
                r.refactors as u64,
                r.ftran_nnz,
                r.dual_pivots as u64,
                r.bound_flips as u64,
                r.pricing_rounds as u64,
                r.active_columns as u64,
                r.shard_failures as u64,
                r.objective.to_bits(),
                u64::from(r.certified),
                u64::from(r.incremental),
            ] {
                h.add(v);
            }
            h.add_str(&r.outcome);
            h.add_str(&r.warm);
        }
        for l in &pass.job_latency_s {
            h.add(l.to_bits());
        }
        for &v in extra {
            h.add(v);
        }
        Fingerprint {
            lp_epochs: pass.records.len(),
            iterations: pass.records.iter().map(|r| r.iterations).sum(),
            refactors: pass.records.iter().map(|r| r.refactors).sum(),
            objective_sum_bits: pass
                .records
                .iter()
                .fold(0.0f64, |a, r| a + r.objective)
                .to_bits(),
            completed: pass.completed,
            dollars_bits: pass.dollars.to_bits(),
            hash: h.0,
        }
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn add(&mut self, v: u64) {
        self.add_bytes(&v.to_le_bytes());
    }
    fn add_str(&mut self, s: &str) {
        self.add_bytes(s.as_bytes());
        self.add_bytes(&[0]);
    }
}

/// Everything one pass over the workload hands back.
#[derive(Debug, Default)]
pub struct Pass {
    pub decisions: Vec<Decision>,
    /// Wall seconds of the pass's timed phase (set-up excluded).
    pub wall_s: f64,
    /// Jobs completed (job-epochs decided on the shard workload).
    pub jobs_done: usize,
    /// Every LP epoch record of the pass, in order.
    pub records: Vec<EpochRecord>,
    pub submitted: usize,
    pub completed: usize,
    pub refused: usize,
    /// Realized dollars (certified LP dollars on the shard workload).
    pub dollars: f64,
    /// Arrival to completion, virtual seconds (empty on shard).
    pub job_latency_s: Vec<f64>,
    /// Output checks: (what, held).
    pub checks: Vec<(&'static str, bool)>,
    /// Workload-specific per-layer values.
    pub layer: BTreeMap<&'static str, f64>,
    /// Live-heap high-water mark of each part of the pass, MB.
    pub heap_parts_mb: Vec<f64>,
    pub fingerprint: Fingerprint,
    /// Fingerprints of the pass's independent parts (one per shard chain;
    /// the whole pass elsewhere).
    pub parts: Vec<Fingerprint>,
}

pub trait Workload {
    type Input;
    /// Build the cluster, generate and bind the workload, and construct
    /// the daemon or simulation. Returns the inputs and the milliseconds
    /// spent in the workload generator and binding calls.
    fn setup(&self, seed: u64, width: usize, tr: &mut Tracer) -> (Self::Input, f64);
    /// One pass over the inputs.
    fn run(&self, input: Self::Input, tr: &mut Tracer) -> Pass;
    /// The part of the inputs the single-thread check pass replays; its
    /// fingerprints must equal the leading [`Pass::parts`] of a full pass.
    fn check_subset(&self, input: Self::Input) -> Self::Input {
        input
    }
}

/// Seeded Fisher–Yates shuffle (SplitMix64 stream).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let r = mix64(state);
        items.swap(i, (r % (i as u64 + 1)) as usize);
    }
}

/// Give the jobs of a fixed trace new arrival slots: the arrival times
/// stay where the trace put them and the jobs are dealt onto them in a
/// seeded order, then re-numbered in arrival order.
pub fn permute_arrivals(jobs: &mut [JobSpec], seed: u64) {
    let times: Vec<f64> = jobs.iter().map(|j| j.arrival_s).collect();
    shuffle(jobs, seed);
    for (i, (j, t)) in jobs.iter_mut().zip(times).enumerate() {
        j.arrival_s = t;
        j.id = JobId(i);
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit seed for one named input stream, derived from the benchmark
/// seed (SplitMix64 over the seed and the stream's name).
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut h = Fnv::default();
    h.add_str(stream);
    mix64((seed ^ h.0).wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Build + solve + certify of the given epoch records.
pub fn phases_ms(records: &[EpochRecord]) -> f64 {
    records
        .iter()
        .map(|r| r.build_ms + r.solve_ms + r.certify_ms)
        .sum()
}

/// Nearest-rank percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the median is always reported).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let beyond = v.len() - rank;
    (q <= 0.5 || beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(f64::NAN)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
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

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for a deterministic count).
    n: usize,
    kind: &'static str,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
    kind: &'static str,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
        kind,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "serve-google-100" => drive(&serve::ServeGoogle, &args),
        "shard-cold-100" => drive(&shard::ShardCold, &args),
        "sim-swim-40" => drive(&sim::SimSwim, &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            ExitCode::from(2)
        }
    }
}

fn drive<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let width = TIMED_WIDTH;
    let check_width = lips_par::default_threads().min(host).max(2);
    println!(
        "# workload {} seed {} seconds {} trace {} width {width} check-width {check_width} (nproc {host})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut setup = |tr: &mut Tracer, width: usize| {
        let t = Instant::now();
        let (input, gen) = w.setup(args.seed, width, tr);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(gen);
        input
    };

    for r in 0..SETUP_REPS {
        tr.set_recording(args.trace && r == 0, 0);
        drop(setup(&mut tr, width));
    }

    // Timed passes. With tracing, odd passes are traced.
    let t0 = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let p = untraced.len() + traced.len();
        let record = args.trace && p % 2 == 1;
        tr.set_recording(record, p + 1);
        let input = setup(&mut tr, width);
        let pass = w.run(input, &mut tr);
        print_pass(p, record, &pass);
        if record {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        // Stop at the pass count that lands closest to `--seconds`.
        let decisions: usize = untraced.iter().map(|p| p.decisions.len()).sum();
        let elapsed = t0.elapsed().as_secs_f64();
        let done = elapsed * (1.0 + 0.5 / (p + 1) as f64) >= args.seconds
            && decisions >= MIN_DECISIONS
            && (!args.trace || !traced.is_empty());
        if done {
            break;
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();
    tr.set_recording(false, 0);

    // Determinism: every pass must reproduce the first pass's
    // fingerprint, and so must a pass at the check width.
    let first = untraced[0].fingerprint.clone();
    let mut correct = true;
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        if p.fingerprint != first {
            eprintln!(
                "fingerprint mismatch on pass {i}: {:?} vs {first:?}",
                p.fingerprint
            );
            correct = false;
        }
    }
    let check = {
        let input = w.check_subset(setup(&mut tr, check_width));
        let p = w.run(input, &mut tr);
        let parts = &untraced[0].parts;
        let same = !p.parts.is_empty() && parts.get(..p.parts.len()) == Some(&p.parts[..]);
        if !same {
            eprintln!(
                "fingerprint at width {check_width} differs: {:?} vs {parts:?}",
                p.parts
            );
        }
        correct &= same;
        if same {
            "identical"
        } else {
            "MISMATCH"
        }
    };

    // Output checks of every pass.
    let mut failed_checks: BTreeMap<&str, usize> = BTreeMap::new();
    for p in untraced.iter().chain(&traced) {
        for &(what, held) in &p.checks {
            if !held {
                *failed_checks.entry(what).or_default() += 1;
            }
        }
        if p.completed + p.refused > p.submitted {
            *failed_checks
                .entry("completed + refused <= submitted")
                .or_default() += 1;
        }
        // At one worker the program's phases run one after another inside
        // the decision, so the outside span must cover them.
        for d in &p.decisions {
            if d.phases_ms > d.ms * (1.0 + 1e-6) + SPAN_SLACK_MS {
                *failed_checks
                    .entry("decision span covers build+solve+certify")
                    .or_default() += 1;
            }
        }
    }
    for (what, n) in &failed_checks {
        eprintln!("check failed {n}x: {what}");
    }
    correct &= failed_checks.is_empty();

    let p0 = &untraced[0];
    let mut attempted = 0usize;
    let mut failed = 0usize;
    for p in untraced.iter().chain(&traced) {
        attempted += p.records.len() + p.submitted;
        failed += p.records.iter().filter(|r| !r.certified).count()
            + p.submitted.saturating_sub(p.completed);
    }

    println!(
        "# fingerprint lp_epochs {} iterations {} refactors {} objective_sum_bits {:#018x} completed {} dollars_bits {:#018x} hash {:#018x}",
        first.lp_epochs,
        first.iterations,
        first.refactors,
        first.objective_sum_bits,
        first.completed,
        first.dollars_bits,
        first.hash
    );
    println!(
        "# passes untraced {} traced {} measured {measured_s:.3} s; check pass at width {check_width}: {check}",
        untraced.len(),
        traced.len()
    );

    let metrics = if args.trace {
        let spans_path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tr.write_jsonl(&spans_path) {
            eprintln!("cannot write {}: {e}", spans_path.display());
            correct = false;
        } else {
            println!(
                "# spans {} written to {}",
                tr.spans().len(),
                spans_path.display()
            );
        }
        for (i, p) in traced.iter().enumerate() {
            let spans: f64 = p.decisions.iter().map(|d| d.ms).sum();
            let phases: f64 = p.decisions.iter().map(|d| d.phases_ms).sum();
            println!(
                "# traced pass {i}: decision spans {spans:.1} ms = build+solve+certify {phases:.1} ms + self {:.1} ms over {} decisions",
                spans - phases,
                p.decisions.len()
            );
        }
        layer_metrics(p0, &traced, &untraced, &generate_ms)
    } else {
        end_to_end_metrics(&untraced, &setup_s)
    };

    for m in &metrics {
        println!(
            "{:<28} {:>16} {:<6} n={:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.n,
            m.kind
        );
    }
    if !args.trace {
        // Workload-specific outcomes that are not gated metrics.
        if !p0.job_latency_s.is_empty() {
            for (q, name) in [(0.5, "job_latency_s_p50"), (0.9, "job_latency_s_p90")] {
                if let Some(v) = percentile(&p0.job_latency_s, q) {
                    println!(
                        "{name:<28} {:>16} {:<6} n={:<6} deterministic",
                        format!("{v:.6}"),
                        "s",
                        p0.job_latency_s.len()
                    );
                }
            }
            println!(
                "{:<28} {:>16} {:<6} n={:<6} deterministic",
                "completed_share",
                format!("{:.6}", p0.completed as f64 / p0.submitted.max(1) as f64),
                "ratio",
                p0.submitted
            );
        }
    }

    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    if !all_finite {
        eprintln!("a metric is not finite");
        correct = false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_pass(index: usize, traced: bool, pass: &Pass) {
    let ms: Vec<f64> = pass.decisions.iter().map(|d| d.ms).collect();
    let cold: Vec<String> = pass
        .decisions
        .iter()
        .filter(|d| d.cold)
        .map(|d| format!("{:.1}", d.ms))
        .collect();
    println!(
        "# pass {index}{} wall {:.3} s decisions {} p50 {:.3} ms cold [{}]",
        if traced { " (traced)" } else { "" },
        pass.wall_s,
        ms.len(),
        median(&ms),
        if cold.len() <= 12 {
            cold.join(" ")
        } else {
            format!("{} decisions", cold.len())
        },
    );
}

fn end_to_end_metrics(passes: &[Pass], setup_s: &[f64]) -> Vec<Metric> {
    let p0 = &passes[0];
    let ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.decisions.iter().map(|d| d.ms))
        .collect();
    let heap: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.heap_parts_mb.iter().copied())
        .collect();
    let jobs = passes.iter().map(|p| p.jobs_done).sum::<usize>() as f64;
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let certified = p0.records.iter().filter(|r| r.certified).count();
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len(), "timed"),
        metric("decision_ms_p50", median(&ms), "ms", ms.len(), "timed"),
        metric(
            "decision_ms_p90",
            percentile(&ms, 0.9).unwrap_or(f64::NAN),
            "ms",
            ms.len(),
            "timed",
        ),
        metric("jobs_per_s", jobs / wall, "1/s", passes.len(), "timed"),
        metric(
            "peak_heap_mb",
            median(&heap),
            "MB",
            heap.len(),
            "deterministic",
        ),
        metric(
            "dollars_per_job",
            p0.dollars / p0.completed.max(1) as f64,
            "USD",
            p0.completed,
            "deterministic",
        ),
        metric(
            "certified_share",
            certified as f64 / p0.records.len().max(1) as f64,
            "ratio",
            p0.records.len(),
            "deterministic",
        ),
    ]
}

fn layer_metrics(
    p0: &Pass,
    traced: &[Pass],
    untraced: &[Pass],
    generate_ms: &[f64],
) -> Vec<Metric> {
    let recs = &p0.records;
    let count = |f: &dyn Fn(&EpochRecord) -> bool| recs.iter().filter(|r| f(r)).count() as f64;
    let sum = |f: &dyn Fn(&EpochRecord) -> f64| recs.iter().map(f).sum::<f64>();
    // Time metrics: per-pass totals over the traced passes, median.
    let timed = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<f64> = traced.iter().map(f).collect();
        median(&v)
    };
    let rec_time = |f: fn(&EpochRecord) -> f64| timed(&|p: &Pass| p.records.iter().map(f).sum());
    let layer = |name: &str| timed(&|p: &Pass| p.layer.get(name).copied().unwrap_or(0.0));
    let value = |name: &str| p0.layer.get(name).copied().unwrap_or(0.0);
    let total_cols = sum(&|r| r.total_columns as f64);
    let decision_ms = |ps: &[Pass]| {
        let v: Vec<f64> = ps
            .iter()
            .flat_map(|p| p.decisions.iter().map(|d| d.ms))
            .collect();
        median(&v)
    };
    let n = traced.len();
    let e = recs.len();
    vec![
        metric(
            "serve.epoch_self_ms",
            layer("serve.epoch_self_ms"),
            "ms",
            n,
            "timed",
        ),
        metric(
            "serve.incremental_share",
            value("serve.incremental_share"),
            "ratio",
            e,
            "deterministic",
        ),
        metric(
            "serve.dual_master_share",
            value("serve.dual_master_share"),
            "ratio",
            e,
            "deterministic",
        ),
        metric(
            "serve.queue_depth_p50",
            value("serve.queue_depth_p50"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "serve.queue_depth_p90",
            value("serve.queue_depth_p90"),
            "count",
            e,
            "deterministic",
        ),
        metric("core.build_ms", rec_time(|r| r.build_ms), "ms", n, "timed"),
        metric(
            "core.pricing_rounds",
            sum(&|r| r.pricing_rounds as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "core.active_column_share",
            if total_cols > 0.0 {
                sum(&|r| r.active_columns as f64) / total_cols
            } else {
                0.0
            },
            "ratio",
            e,
            "deterministic",
        ),
        metric(
            "core.decide_self_ms",
            layer("core.decide_self_ms"),
            "ms",
            n,
            "timed",
        ),
        metric(
            "core.cold_decision_ms",
            {
                let cold: Vec<f64> = traced
                    .iter()
                    .flat_map(|p| p.decisions.iter().filter(|d| d.cold).map(|d| d.ms))
                    .collect();
                if cold.is_empty() {
                    0.0
                } else {
                    mean(&cold)
                }
            },
            "ms",
            traced
                .iter()
                .map(|p| p.decisions.iter().filter(|d| d.cold).count())
                .sum(),
            "timed",
        ),
        metric(
            "core.shard_fanout_ms",
            rec_time(|r| r.subproblem_ms),
            "ms",
            n,
            "timed",
        ),
        metric(
            "core.shard_failures",
            sum(&|r| r.shard_failures as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "core.rung.dual",
            count(&|r| r.outcome == "CertifiedDual"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "core.rung.primal",
            count(&|r| r.outcome == "Certified"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "core.rung.cold_retry",
            count(&|r| r.outcome == "CertifiedCold"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "core.rung.degraded",
            count(&|r| r.outcome == "Degraded"),
            "count",
            e,
            "deterministic",
        ),
        metric("lp.solve_ms", rec_time(|r| r.solve_ms), "ms", n, "timed"),
        metric(
            "lp.cold_solve_ms",
            rec_time(|r| if r.warm == "Cold" { r.solve_ms } else { 0.0 }),
            "ms",
            n,
            "timed",
        ),
        metric(
            "lp.iterations",
            sum(&|r| r.iterations as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.phase1_iterations",
            sum(&|r| r.phase1_iterations as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.dual_pivots",
            sum(&|r| r.dual_pivots as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.bound_flips",
            sum(&|r| r.bound_flips as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.refactors",
            sum(&|r| r.refactors as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.ftran_nnz",
            sum(&|r| r.ftran_nnz as f64),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.warm.cold",
            count(&|r| r.warm == "Cold"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.warm.warm",
            count(&|r| r.warm == "Warm"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.warm.warm_repaired",
            count(&|r| r.warm == "WarmRepaired"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "lp.warm.dual",
            count(&|r| r.warm == "Dual"),
            "count",
            e,
            "deterministic",
        ),
        metric(
            "audit.certify_ms",
            rec_time(|r| r.certify_ms),
            "ms",
            n,
            "timed",
        ),
        metric(
            "sim.events",
            value("sim.events"),
            "count",
            1,
            "deterministic",
        ),
        metric(
            "sim.engine_self_ms",
            layer("sim.engine_self_ms"),
            "ms",
            n,
            "timed",
        ),
        metric(
            "workload.generate_ms",
            median(generate_ms),
            "ms",
            generate_ms.len(),
            "timed",
        ),
        metric(
            "trace.overhead_ms",
            decision_ms(traced) - decision_ms(untraced),
            "ms",
            n,
            "timed",
        ),
    ]
}
