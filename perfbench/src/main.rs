//! The FlashAbacus simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hetero|churn|openloop> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One warm-up pass, then closed-loop passes (each starts when the previous
//! one ends) until `--seconds` have passed. Every pass regenerates its
//! inputs from the seed, builds fresh simulator state, drives it, and
//! digests the simulated outputs; all passes must agree. Host times are
//! scaled to a reference machine's speed by a calibration workload timed
//! between passes (see `measure::calibration_s`). With `--trace 0`
//! the run reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced passes and reports the per-layer metrics, writing
//! the spans to `.perfbench-out/trace-<workload>.json`. The last line of
//! standard output is the result as one JSON object. The exit code is 0
//! when every check held, 1 when one failed, 2 on a usage error.

mod churn;
mod hetero;
mod measure;
mod openloop;
mod trace;
mod workload;

use measure::{median, peak_rss_mib, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{chrome_json, self_time_by_layer, totals_by_name, Meter};
use workload::PassOut;

/// End-to-end metrics: name and unit. `sim_*` are simulated results, and
/// their time units say so (`sim_ms`); the rest are host measurements.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_cmds_per_s", "cmd/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_throughput_mb_s", "MB/sim_s"),
    ("sim_write_amp", "ratio"),
    ("sim_sojourn_p50_ms", "sim_ms"),
    ("sim_sojourn_p99_ms", "sim_ms"),
];

/// Per-layer metrics: name and unit. A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("system.run_s.InterSt", "s"),
    ("system.run_s.InterDy", "s"),
    ("system.run_s.IntraIo", "s"),
    ("system.run_s.IntraO3", "s"),
    ("system.new_s", "s"),
    ("workload.gen_s", "s"),
    ("baseline.run_s", "s"),
    ("chain.drain_ns_per_screen", "ns"),
    ("kernel.screens", "count"),
    ("flashvisor.write_section_s", "s"),
    ("flashvisor.write_section_us_p50", "us"),
    ("flashvisor.write_section_us_p99", "us"),
    ("flashvisor.group_reads", "count"),
    ("flashvisor.group_writes", "count"),
    ("flashvisor.lwp_util", "ratio"),
    ("flashvisor.sharded_read_fallbacks", "count"),
    ("flashvisor.sharded_write_fallbacks", "count"),
    ("flashvisor.sharded_windows", "count"),
    ("rangelock.grants", "count"),
    ("rangelock.denials", "count"),
    ("freespace.free_groups_end", "count"),
    ("freespace.wear_spread", "count"),
    ("flash.reads", "count"),
    ("flash.programs", "count"),
    ("flash.erases", "count"),
    ("flash.fg_read_p99_us", "sim_us"),
    ("flash.peak_tags", "count"),
    ("flash.submit_batch_ns_per_cmd", "ns"),
    ("flash.submit_tagged_ns_per_cmd", "ns"),
    ("storengine.collect_garbage_s", "s"),
    ("storengine.collect_garbage_us_p99", "us"),
    ("storengine.journal_s", "s"),
    ("storengine.pages_migrated", "count"),
    ("storengine.groups_reclaimed", "count"),
    ("storengine.gc_passes", "count"),
    ("storengine.journal_dumps", "count"),
    ("storengine.lwp_util", "ratio"),
    ("openloop.run_s", "s"),
    ("openloop.rebalance_us", "us"),
    ("openloop.owners", "count"),
    ("openloop.governor_updates", "count"),
    ("openloop.admitted", "count"),
    ("openloop.queued", "count"),
    ("openloop.shed", "count"),
    ("openloop.slo_attainment", "ratio"),
    ("energy.data_movement_j", "J"),
    ("energy.compute_j", "J"),
    ("energy.storage_j", "J"),
    ("energy.idle_j", "J"),
    ("energy.total_j", "J"),
    ("worker.lwp_util", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Span names every workload records, and the metrics summing them.
const COMMON_SPAN_METRICS: &[(&str, &str)] = &[
    ("workload.gen", "workload.gen_s"),
    ("system.new", "system.new_s"),
];

/// Calibration samples taken before each pass and after the last. A single
/// 14 ms sample swings with momentary contention; the median of several per
/// gap follows the slower drift the scaling is meant to cancel.
const CALIBRATIONS_PER_GAP: usize = 5;

/// Passes a run never exceeds, whatever `--seconds` says.
const MAX_PASSES: u32 = 400;

/// The three workloads.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The §5.1 heterogeneous campaign.
    Hetero(hetero::Hetero),
    /// The Flashvisor + Storengine overwrite stream.
    Churn(churn::Churn),
    /// The open-loop multi-tenant campaign.
    OpenLoop(openloop::OpenLoop),
}

impl Workload {
    /// The workload called `name`, at full size.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "hetero" => Some(Workload::Hetero(hetero::Hetero::full())),
            "churn" => Some(Workload::Churn(churn::Churn::full())),
            "openloop" => Some(Workload::OpenLoop(openloop::OpenLoop::full())),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Workload::Hetero(_) => "hetero",
            Workload::Churn(_) => "churn",
            Workload::OpenLoop(_) => "openloop",
        }
    }

    fn pass(&self, m: &mut Meter, seed: u64) -> PassOut {
        match self {
            Workload::Hetero(w) => w.pass(m, seed),
            Workload::Churn(w) => w.pass(m, seed),
            Workload::OpenLoop(w) => w.pass(m, seed),
        }
    }

    fn span_metrics(&self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::Hetero(_) => hetero::SPAN_METRICS,
            Workload::Churn(_) => churn::SPAN_METRICS,
            Workload::OpenLoop(_) => &[("openloop.run", "openloop.run_s")],
        }
    }

    /// Per-call host-time percentiles: span name, quantile, metric (µs).
    fn call_percentiles(&self) -> &'static [(&'static str, f64, &'static str)] {
        match self {
            Workload::Churn(_) => &[
                (
                    "flashvisor.write_section",
                    0.50,
                    "flashvisor.write_section_us_p50",
                ),
                (
                    "flashvisor.write_section",
                    0.99,
                    "flashvisor.write_section_us_p99",
                ),
                (
                    "storengine.collect_garbage",
                    0.99,
                    "storengine.collect_garbage_us_p99",
                ),
            ],
            _ => &[],
        }
    }

    /// Probes timed once after the traced passes.
    fn probes(&self, seed: u64, pass: &PassOut) -> Vec<(&'static str, f64)> {
        match self {
            Workload::Hetero(w) => {
                let (batch, tagged) = hetero::submit_probe();
                vec![
                    ("chain.drain_ns_per_screen", w.drain_probe(seed)),
                    ("flash.submit_batch_ns_per_cmd", batch),
                    ("flash.submit_tagged_ns_per_cmd", tagged),
                ]
            }
            Workload::Churn(_) => Vec::new(),
            Workload::OpenLoop(_) => {
                let owners = pass.counters.get("openloop.owners").copied().unwrap_or(0.0);
                vec![(
                    "openloop.rebalance_us",
                    openloop::rebalance_probe(owners as usize),
                )]
            }
        }
    }
}

/// One measured pass.
#[derive(Debug)]
struct Measured {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    out: PassOut,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// Every check held.
    pub correct: bool,
    /// Operations attempted over the measured passes.
    pub attempted: u64,
    /// Operations failed or refused over the measured passes.
    pub failed: u64,
    /// The passes' common digest.
    pub digest: u64,
    /// Measured passes (untraced, traced).
    pub passes: (usize, usize),
    /// Metric name → (value, unit), in the order of the metric lists.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
}

/// Runs `workload` for `seconds` of measured passes.
pub fn run(workload: &Workload, seed: u64, seconds: u64, traced_run: bool) -> Report {
    let mut plain = Meter::new(false);
    let mut tracer = Meter::new(true);
    plain.begin_pass(0);
    let warm = workload.pass(&mut plain, seed);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut measured: Vec<Measured> = Vec::new();
    let mut calibrations: Vec<f64> = Vec::new();
    for pass in 1..=MAX_PASSES {
        let traced = traced_run && pass % 2 == 0;
        let m = if traced { &mut tracer } else { &mut plain };
        calibrations.extend((0..CALIBRATIONS_PER_GAP).map(|_| measure::calibration_s()));
        m.begin_pass(pass);
        let out = workload.pass(m, seed);
        measured.push(Measured {
            traced,
            setup_s: m.setup_s(),
            wall_s: m.wall_s(),
            out,
        });
        let n_traced = measured.iter().filter(|p| p.traced).count();
        let n_plain = measured.len() - n_traced;
        let enough = if traced_run {
            n_plain >= 2 && n_traced >= 2
        } else {
            n_plain >= 3
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    calibrations.extend((0..CALIBRATIONS_PER_GAP).map(|_| measure::calibration_s()));
    let speed = measure::REFERENCE_CALIBRATION_S / median(&calibrations);

    // The digest covers every simulated metric and counter (`PassOut::seal`),
    // so equal digests mean bit-identical simulated results.
    let mut problems: Vec<String> = warm.violations.clone();
    for (i, p) in measured.iter().enumerate() {
        let pass = i + 1;
        problems.extend(p.out.violations.iter().map(|v| format!("pass {pass}: {v}")));
        if p.out.digest != warm.digest {
            problems.push(format!(
                "pass {pass} digest {:016x} differs from the warm-up's {:016x}",
                p.out.digest, warm.digest
            ));
        }
    }
    let attempted: u64 = measured.iter().map(|p| p.out.attempted).sum();
    let failed: u64 = measured.iter().map(|p| p.out.failed).sum();
    let plain_wall: Vec<f64> = measured
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s)
        .collect();
    let wall_s = median(&plain_wall);
    let walls: Vec<String> = measured
        .iter()
        .map(|p| format!("{:.4}{}", p.wall_s, if p.traced { "t" } else { "" }))
        .collect();
    eprintln!("pass wall_s (t = traced): {}", walls.join(" "));
    eprintln!(
        "raw median wall_s {wall_s}; machine speed {speed} of the reference \
         (median calibration {} s); host times below are scaled by it",
        median(&calibrations)
    );

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let list = if traced_run {
        let spans = tracer
            .trace()
            .expect("the tracing meter records spans")
            .spans();
        values.extend(warm.counters.iter().map(|(k, v)| (*k, *v)));
        let traced_passes: Vec<u32> = (1..)
            .zip(&measured)
            .filter(|(_, p)| p.traced)
            .map(|(pass, _)| pass)
            .collect();
        for &(span, metric) in COMMON_SPAN_METRICS.iter().chain(workload.span_metrics()) {
            let per_pass: Vec<f64> = traced_passes
                .iter()
                .map(|&p| {
                    totals_by_name(spans, |q| q == p)
                        .get(span)
                        .map_or(0.0, |t| t.total_ns as f64 * 1e-9)
                })
                .collect();
            values.insert(metric, median(&per_pass));
        }
        for &(span, q, metric) in workload.call_percentiles() {
            let calls: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.ns())
                .collect();
            match tail_percentile(&calls, q) {
                Some(ns) => {
                    values.insert(metric, ns as f64 * 1e-3);
                }
                None => problems.push(format!("{metric}: only {} calls traced", calls.len())),
            }
        }
        values.extend(workload.probes(seed, &warm));
        let traced_wall: Vec<f64> = measured
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.wall_s)
            .collect();
        values.insert("trace.overhead_s", median(&traced_wall) - wall_s);

        let mut summary = String::new();
        let _ = writeln!(summary, "self time per layer, mean traced pass:");
        let n = traced_passes.len() as f64;
        for (layer, s) in self_time_by_layer(spans, |p| traced_passes.contains(&p)) {
            let _ = writeln!(summary, "  {layer:<12} {:>10.6} s", s / n);
        }
        eprint!("{summary}");
        // Every traced pass stays in memory for the metrics above; the file
        // keeps the last one, which bounds it at one pass of spans.
        let last = traced_passes.last().copied();
        let dir = std::path::Path::new(".perfbench-out");
        let path = dir.join(format!("trace-{}.json", workload.name()));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_json(spans, |p| Some(p) == last)))
        {
            problems.push(format!("writing {}: {e}", path.display()));
        }
        PER_LAYER
    } else {
        let setups: Vec<f64> = measured.iter().map(|p| p.setup_s).collect();
        values.insert("wall_s", wall_s);
        values.insert("setup_s", median(&setups));
        match peak_rss_mib() {
            Some(mib) => {
                values.insert("peak_rss_mb", mib);
            }
            None => problems.push("VmHWM unreadable".to_string()),
        }
        values.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
        values.extend(warm.sim.iter().map(|(k, v)| (*k, *v)));
        END_TO_END
    };
    for &(name, unit) in list {
        if matches!(unit, "s" | "us" | "ns") {
            if let Some(v) = values.get_mut(name) {
                *v *= speed;
            }
        }
    }
    if let Some(&wall) = values.get("wall_s") {
        values.insert("sim_cmds_per_s", warm.flash_commands as f64 / wall);
    }
    let metrics: Vec<(&'static str, f64, &'static str)> = list
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number: {value}"));
        }
    }
    if !traced_run {
        for &(name, _) in END_TO_END {
            if !values.contains_key(name) {
                problems.push(format!("{name} was not measured"));
            }
        }
    }
    let n_traced = measured.iter().filter(|p| p.traced).count();
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        digest: warm.digest,
        passes: (measured.len() - n_traced, n_traced),
        metrics,
        problems,
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <hetero|churn|openloop> --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: one JSON object.
fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let report = run(&workload, args.seed, args.seconds, args.trace);
    println!(
        "{} seed {}: {} untraced + {} traced passes after one warm-up, digest {:016x}",
        workload.name(),
        args.seed,
        report.passes.0,
        report.passes.1,
        report.digest
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>20} {unit}");
    }
    for p in &report.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    println!("{}", result_json(&report));
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `name` is a legal metric or workload name: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every `"name": "<value>"` in a JSON text, in order.
    fn json_names(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.trim_start().strip_prefix('"'))
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut expected: Vec<String> = ["hetero", "churn", "openloop"].map(String::from).to_vec();
        expected.extend(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .map(|(n, _)| n.to_string()),
        );
        let mut listed = json_names(&text);
        expected.sort();
        listed.sort();
        assert_eq!(listed, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{name} should have unit {unit}");
        }
        for name in ["hetero", "churn", "openloop"] {
            assert!(Workload::named(name).is_some(), "{name}");
        }
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args("--workload churn --seed 7 --seconds 10 --trace 1")),
            Ok(Args {
                workload: "churn".into(),
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(&args("--workload churn --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload churn --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload churn --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload churn --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args(
            "--workload churn --seed 7 --seconds 10 --trace 0 --x 1"
        ))
        .is_err());
    }

    #[test]
    fn the_result_line_has_exactly_four_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            digest: 0,
            passes: (3, 0),
            metrics: vec![("wall_s", 1.25, "s"), ("ok_frac", 1.0, "ratio")],
            problems: Vec::new(),
        };
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"ok_frac\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn seed_generators_are_deterministic_and_seed_dependent() {
        let ids = |seed| -> Vec<u32> {
            hetero::generate(seed, 1024, 2)
                .iter()
                .flatten()
                .map(|a| a.id.0)
                .collect()
        };
        assert_eq!(ids(1), ids(1));
        assert_ne!(ids(1), ids(2));
        let mut sorted = ids(3);
        sorted.sort_unstable();
        assert_eq!(sorted, ids_unshuffled());

        assert_eq!(churn::generate(1, 500), churn::generate(1, 500));
        assert_ne!(churn::generate(1, 500), churn::generate(2, 500));

        let w = openloop::OpenLoop::full();
        assert_eq!(w.plan(1, 3).schedule(), w.plan(1, 3).schedule());
        assert_ne!(w.plan(1, 3).schedule(), w.plan(2, 3).schedule());
    }

    fn ids_unshuffled() -> Vec<u32> {
        let mut ids: Vec<u32> = (1..=2)
            .flat_map(|mix| fa_workloads::mixes::mix_apps(mix, 1024))
            .map(|a| a.id.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Runs `w` twice untraced and once traced; all three passes must hold
    /// every invariant and agree on every simulated output.
    fn assert_stable(w: Workload) {
        let mut plain = Meter::new(false);
        let mut traced = Meter::new(true);
        let a = w.pass(&mut plain, 5);
        let b = w.pass(&mut plain, 5);
        let t = w.pass(&mut traced, 5);
        for p in [&a, &b, &t] {
            assert!(p.violations.is_empty(), "{:?}", p.violations);
            assert_eq!(p.failed, 0);
        }
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, t.digest);
        assert_eq!(a.counters, t.counters);
        assert_eq!(a.sim, t.sim);
        for (name, _) in END_TO_END
            .iter()
            .filter(|(n, _)| n.starts_with("sim_") && *n != "sim_cmds_per_s")
        {
            assert!(a.sim[name] > 0.0, "{name}");
        }
        let spans = traced.trace().expect("traced").spans();
        assert!(spans.iter().any(|s| s.name == "system.new"));
        assert_ne!(
            w.pass(&mut plain, 6).digest,
            a.digest,
            "another seed, other outputs"
        );
    }

    #[test]
    fn small_hetero_is_stable() {
        // All fourteen mixes: fewer kernels leave p99 without ten samples
        // beyond it.
        assert_stable(Workload::Hetero(hetero::Hetero { data_scale: 1024 }));
    }

    #[test]
    fn small_churn_is_stable() {
        assert_stable(Workload::Churn(churn::Churn { rounds: 3000 }));
    }

    #[test]
    fn small_openloop_is_stable() {
        assert_stable(Workload::OpenLoop(openloop::OpenLoop {
            tenants: 1000,
            data_scale: 1024,
        }));
    }
}
