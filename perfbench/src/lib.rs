//! End-to-end and per-layer benchmark of the DPSS suite.
//!
//! Four closed-loop workloads, one client and one `QueryCtx` each, drive the
//! library through its public calls only:
//!
//! - `serve_queries` — HALT at n = 2^20 answering a hot/fresh `(α, β)` mix;
//! - `churn` — HALT through bulk load, growth, churn and shrinkage;
//! - `churn_deam` — the same op sequence on de-amortized HALT;
//! - `rr_sets` — RR-set generation on a dynamic power-law graph.
//!
//! `run` measures one workload and returns an [`Outcome`]; the binaries print
//! it as one JSON line. See `GLOSSARY.md` for every metric.

#![deny(unsafe_code)]

pub mod alloc_count;
pub mod backend;
pub mod churn;
pub mod host;
pub mod rr;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::{median_rate, Block, Histogram};
use std::fmt::Write;

/// The run's parameters, from the command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans and per-layer counters.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<String>,
    /// `rustc --version` of the build, for the host facts.
    pub rustc: String,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S [--trace-out PATH]
    /// [--rustc VERSION]`. Whether the run is traced is fixed by the binary.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            trace_out: None,
            rustc: "unknown".into(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => a.workload = val.clone(),
                "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace-out" => a.trace_out = Some(val.clone()),
                "--rustc" => a.rustc = val.clone(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(a.seconds > 0.0 && a.seconds <= 600.0) {
            return Err(format!("--seconds {} out of range (0, 600]", a.seconds));
        }
        Ok(a)
    }
}

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (see `GLOSSARY.md`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks made and failed.
    pub checks: backend::Checks,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run; zero where the layer is not exercised).
    pub layers: Vec<Metric>,
    /// Run facts: block counts, replays, sizes.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Sets a per-layer metric (overwriting its default of 0; see [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        match self.layers.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => panic!("unknown per-layer metric {name}"),
        }
    }

    /// Records a run fact.
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }

    /// Reports the throughputs: for each rate, its median over `slices`.
    /// `read` names the workload's read op (`queries` or `rr_sets`).
    pub fn rates(&mut self, slices: &[Block], read: &str) {
        let reads = median_rate(slices, Block::read_rate);
        self.metric("ops_per_s", median_rate(slices, Block::op_rate), "1/s");
        self.metric("reads_per_s", reads, "1/s");
        self.metric(&format!("{read}_per_s"), reads, "1/s");
        self.metric("updates_per_s", median_rate(slices, Block::update_rate), "1/s");
        self.fact("slices", slices.len());
    }

    /// Reports the latency median and tail of each op kind; a percentile
    /// is left out unless ten samples lie beyond it. `read` names the read
    /// op (`query` or `rr_set`).
    pub fn latencies(&mut self, reads: &Histogram, read: &str, updates: &Histogram) {
        for (p, tag) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p99_9")] {
            if let Some(ns) = reads.percentile(p) {
                self.metric(&format!("read_{tag}_us"), ns / 1e3, "us");
                self.metric(&format!("{read}_{tag}_us"), ns / 1e3, "us");
            }
            if let Some(ns) = updates.percentile(p) {
                self.metric(&format!("update_{tag}_ns"), ns, "ns");
            }
        }
        self.fact("reads_timed", reads.count());
        self.fact("updates_timed", updates.count());
    }
}

/// Consecutive slices a time-bounded run is cut into for its rate medians.
pub const SLICES: usize = 8;

/// Every per-layer metric with its unit; all are printed by every workload.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("query.us_per_item", "us"),
    ("update.insert_ns", "ns"),
    ("update.delete_ns", "ns"),
    ("dpss.plan.hit_share", "ratio"),
    ("dpss.plan.miss_share", "ratio"),
    ("dpss.plan.refresh_share", "ratio"),
    ("dpss.plan.build_us", "us"),
    ("randvar.words_per_query", "count"),
    ("randvar.words_per_item", "count"),
    ("randvar.sliver_per_mcoin", "count"),
    ("alloc.per_query", "count"),
    ("alloc.bytes_per_query", "bytes"),
    ("alloc.per_update", "count"),
    ("alloc.per_rr_set", "count"),
    ("dpss.rebuild.count", "count"),
    ("dpss.rebuild.ms", "ms"),
    ("dpss.deam.migrating_share", "ratio"),
    ("dpss.deam.epochs", "count"),
    ("dpss.deam.update_migrating_p99_ns", "ns"),
    ("dpss.deam.update_idle_p99_ns", "ns"),
    ("journal.depth", "count"),
    ("wordram.arena_live_words", "words"),
    ("wordram.parked_words", "words"),
    ("wordram.slack_words", "words"),
    ("graphsub.rr_set_us", "us"),
    ("graphsub.nodes_per_rr_set", "count"),
    ("graphsub.us_per_node", "us"),
    ("graphsub.edge_update_us", "us"),
];

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        layers: LAYER_METRICS
            .iter()
            .map(|&(n, u)| Metric { name: n.into(), value: 0.0, unit: u })
            .collect(),
        ..Outcome::default()
    };
    let mut tracer = trace::Tracer::new(args.trace, 1 << 18);
    match args.workload.as_str() {
        "serve_queries" => serve::run(args, &mut tracer, &mut out),
        "churn" => churn::run::<dpss::DpssSampler>(args, &mut tracer, &mut out),
        "churn_deam" => churn::run::<dpss::DeamortizedDpss>(args, &mut tracer, &mut out),
        "rr_sets" => rr::run(args, &mut tracer, &mut out),
        w => return Err(format!("unknown workload {w:?}")),
    }
    let attempted = out.checks.attempted.max(1);
    out.metric("failed_op_share", out.checks.failed as f64 / attempted as f64, "ratio");
    if let Some(path) = &args.trace_out {
        if tracer.on() {
            tracer.write_to(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let (kept, dropped) = tracer.counts();
    out.fact("spans_kept", kept);
    out.fact("spans_dropped", dropped);
    Ok(out)
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The outcome as one JSON object: host facts, run facts, checks, metrics.
pub fn to_json(args: &Args, out: &Outcome) -> String {
    let facts: Vec<String> = host::facts(&args.rustc)
        .into_iter()
        .chain(out.facts.iter().cloned())
        .map(|(k, v)| format!("{}: {}", json_str(&k), json_str(&v)))
        .collect();
    let notes: Vec<String> = out.checks.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"facts\": {{{}}}, \"notes\": [{}], \"metrics\": {}, \"per_layer\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        facts.join(", "),
        notes.join(", "),
        json_metrics(&out.metrics),
        json_metrics(&out.layers),
    )
}

/// Entry point shared by both binaries.
pub fn main_with(traced_binary: bool) -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(mut a) => {
            a.trace = traced_binary;
            a
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for n in &out.checks.notes {
                eprintln!("perfbench: check failed: {n}");
            }
            println!("{}", to_json(&args, &out));
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&v("--workload churn --seed 7 --seconds 2.5")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("churn", 7, 2.5, false));
        assert!(Args::parse(&v("--seed x")).is_err());
        assert!(Args::parse(&v("--seconds 0")).is_err());
        assert!(Args::parse(&v("--bogus 1")).is_err());
        assert!(Args::parse(&v("--seed")).is_err());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
