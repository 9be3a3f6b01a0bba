//! End-to-end and per-layer benchmark of the sufs broker.
//!
//! ```text
//! perfbench --workload plan_read|read_after_write|quorum_write \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives in-process `sufs_broker::Broker` nodes over loopback TCP in a
//! closed loop and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this crate for the metric map.

mod drive;
mod inputs;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use drive::Expected;
use inputs::Inputs;

/// Set-ups per run (at most `SEGMENTS`); `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Where runs keep broker state and span files, relative to the
/// directory the benchmark runs from.
const RUN_DIR: &str = ".perfbench_run";

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
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Metrics in output order: `name → (value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Segments the timed window is cut into. Each end-to-end metric is the
/// median of its per-segment values, so a stall confined to a few
/// segments moves it little.
const SEGMENTS: usize = 10;

/// One segment of the timed window and the probe burst after it.
pub struct Segment {
    pub window: drive::Window,
    pub probes: Vec<drive::Sample>,
}

impl Segment {
    fn throughput(&self) -> f64 {
        self.window.samples.len() as f64 / self.window.seconds
    }

    /// Latencies (ns) of the segment's reads or writes: from the timed
    /// ops when the workload times that kind, else from the probes.
    fn latencies(&self, read: bool) -> (Vec<u64>, &'static str) {
        let timed: Vec<u64> = self
            .window
            .samples
            .iter()
            .filter(|s| s.read == read)
            .map(|s| s.ns)
            .collect();
        if !timed.is_empty() {
            return (timed, "timed window");
        }
        (
            self.probes
                .iter()
                .filter(|s| s.read == read)
                .map(|s| s.ns)
                .collect(),
            "probe ops after each segment",
        )
    }
}

/// Latency p50/p90 (µs): the median over segments of each segment's
/// percentile, printed with the sample counts.
fn latency(metrics: &mut Metrics, prefix: &str, segments: Vec<Vec<u64>>, source: &str) {
    let n: usize = segments.iter().map(Vec::len).sum();
    let (mut p50s, mut p90s): (Vec<f64>, Vec<f64>) = segments
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|mut s| {
            s.sort_unstable();
            (
                percentile(&s, 50.0) as f64 / 1e3,
                percentile(&s, 90.0) as f64 / 1e3,
            )
        })
        .unzip();
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    println!(
        "{prefix}: segment p50s {:?} us, segment p90s {:?} us",
        round(&p50s),
        round(&p90s)
    );
    let (p50, p90) = (median(&mut p50s), median(&mut p90s));
    println!(
        "{prefix}: p50 {p50:.1} us, p90 {p90:.1} us: medians of {} segments, n={n} ({source}; {} samples above p90 per segment)",
        p50s.len(),
        n / p50s.len().max(1) / 10
    );
    metrics.put(&format!("{prefix}_p50_us"), p50, "us");
    metrics.put(&format!("{prefix}_p90_us"), p90, "us");
}

/// Checks one set-up's replies: every write accepted (with quorum on
/// the replicated workload), every cold read equal to in-process
/// synthesis. Returns the replies checked and how many failed.
fn check_setup(
    inputs: &Inputs,
    ready: &drive::Ready,
    expected: &[Expected],
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let mut bad = 0;
    for w in &ready.writes {
        let quorum = !inputs.durable || w.bool_field("quorum") == Some(true);
        if w.bool_field("ok") != Some(true) || !quorum {
            bad += 1;
            problems.push(format!("set-up write rejected: {w}"));
        }
    }
    for (i, reply) in ready.reads.iter().enumerate() {
        if !expected[i].check(reply) {
            bad += 1;
            problems.push(format!(
                "client {i}: broker reply differs from in-process synthesis"
            ));
        }
    }
    ((ready.writes.len() + ready.reads.len()) as u64, bad)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = Arc::new(Inputs::generate(&args.workload, args.seed)?);
    println!(
        "inputs: workload={} seed={} digest={} ({})",
        inputs.workload,
        inputs.seed,
        inputs.digest(),
        inputs.shape
    );
    let root = PathBuf::from(RUN_DIR).join(format!("{}-{}", inputs.workload, std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let result = measure(args, &inputs, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(args: &Args, inputs: &Arc<Inputs>, root: &std::path::Path) -> Result<Outcome, String> {
    let (repo0, registry) = inputs.initial_state();
    let clients = inputs.parsed_clients();
    let expected: Arc<Vec<Expected>> = Arc::new(drive::expected(&clients, &repo0, &registry));
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems = Vec::new();

    // The first set-up's deployment serves the timed window; the others
    // run between segments (see below). Every set-up's replies are checked.
    let ready = drive::setup(inputs, root, "setup0")?;
    let mut setups = vec![ready.seconds];
    let (checked, bad) = check_setup(inputs, &ready, &expected, &mut problems);
    attempted += checked;
    failed += bad;
    let addr = ready.node.addr();

    let mut metrics = Metrics::default();
    // One untimed cycle per connection warms the caches a long-running
    // broker has warm (the lint engine's analyses of every alternate).
    let n = inputs.conns.len();
    let (warm, _) = drive::window(inputs, &addr, &expected, 0.0, None, vec![(); n])?;
    attempted += warm.samples.len() as u64;
    failed += warm.failed;
    let mut pos = warm.done.clone();
    let before = trace::Counters::read(&ready.node)?;
    // The timed window, cut into segments of whole cycles; after each
    // segment a burst of probe ops. Every segment and every burst leaves
    // the repository as set-up left it, so the set-up expectations hold
    // for the probes too.
    let burst = inputs.probes.len() / SEGMENTS;
    let mut segments = Vec::new();
    let mut replayers = Vec::new();
    for k in 0..SEGMENTS {
        // A traced run replays the stages of segment 1's ops (and of the
        // probes after it) right after each op, so replay and op run on
        // the machine in the same state.
        let observers: Vec<Option<trace::Replayer>> = if args.trace && k == 1 {
            trace::replayers(inputs, &registry, root, n)?
                .into_iter()
                .map(Some)
                .collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let (w, mut observers) = drive::window(
            inputs,
            &addr,
            &expected,
            args.seconds / SEGMENTS as f64,
            Some(&pos),
            observers,
        )?;
        pos = w.done.clone();
        let range = k * burst..(k + 1) * burst;
        let (probes, probe_failed) =
            drive::probes(inputs, &addr, &expected, range, &mut observers[0])?;
        replayers.extend(observers.into_iter().flatten());
        attempted += (w.samples.len() + probes.len()) as u64;
        failed += w.failed + probe_failed;
        if w.failed + probe_failed > 0 {
            problems.push(format!(
                "segment {k}: {} timed op(s) and {probe_failed} probe(s) failed their reply check",
                w.failed
            ));
        }
        segments.push(Segment { window: w, probes });
        // The other set-ups run here, spread over the run, so their
        // median samples the machine's state the way the segments do.
        if setups.len() < SETUP_REPS {
            let r = drive::setup(inputs, root, &format!("setup{}", setups.len()))?;
            setups.push(r.seconds);
            let (checked, bad) = check_setup(inputs, &r, &expected, &mut problems);
            attempted += checked;
            failed += bad;
            r.node.stop();
        }
    }
    let after = trace::Counters::read(&ready.node)?;

    let repo = drive::window_state(inputs, &pos);
    let (made, bad, issues) = drive::final_checks(inputs, &ready.node, &repo, &registry, &clients)?;
    attempted += made;
    failed += bad;
    problems.extend(issues);

    if args.trace {
        let run = trace::Run {
            inputs,
            root,
            segments: &segments,
            before: &before,
            after: &after,
            registry: &registry,
        };
        problems.extend(trace::report(&mut metrics, &run, replayers)?);
    } else {
        println!("setup_s: {SETUP_REPS} set-ups {setups:?}");
        let setup_s = median(&mut setups);
        println!("setup_s: median {setup_s:.4} s");
        metrics.put("setup_s", setup_s, "s");
        let rates: Vec<f64> = segments.iter().map(Segment::throughput).collect();
        let throughput = median(&mut rates.clone());
        println!(
            "throughput: {throughput:.1} ops/s, median of {SEGMENTS} segments {:?} ({} ops in {:.3} s, closed loop, {} connection(s))",
            rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
            segments.iter().map(|s| s.window.samples.len()).sum::<usize>(),
            segments.iter().map(|s| s.window.seconds).sum::<f64>(),
            inputs.conns.len()
        );
        metrics.put("throughput", throughput, "1/s");
        for (prefix, read) in [("read", true), ("write", false)] {
            let per_segment: Vec<(Vec<u64>, &str)> =
                segments.iter().map(|s| s.latencies(read)).collect();
            let source = per_segment.first().map_or("", |(_, src)| *src);
            latency(
                &mut metrics,
                prefix,
                per_segment.into_iter().map(|(ns, _)| ns).collect(),
                source,
            );
        }
        if inputs.durable {
            println!("durability: fsync before every ack, state dirs under {RUN_DIR}/ on the checkout's filesystem");
        }
    }
    ready.node.stop();
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            let correct = out.failed == 0 && out.problems.is_empty();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.attempted.max(1),
                out.failed,
                out.metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
