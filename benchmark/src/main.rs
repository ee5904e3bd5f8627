//! The repo benchmark (see `BENCHMARK.json` at the repo root and
//! `README.md` beside this crate).
//!
//! One process runs one workload:
//!
//! ```text
//! cashmere-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) sets the workload up, repeats passes over its
//! fixed cell list for `--seconds` seconds, and prints the end-to-end
//! metrics. `--trace 1` runs one plain and one observed pass with
//! benchmark-side spans around every call into the program, times the layer
//! rows of `layers.rs`, and prints the per-layer metrics. Either way the last
//! line of standard output is the result object the driver reads.
//!
//! Two more modes serve `run.sh`: `--summary FILE` prints the totals of a
//! set of runs, `--compare A B` checks two sets against the bounds.

mod affinity;
mod layers;
mod metrics;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cashmere_obs::json::{self, Value};

use crate::layers::median;
use crate::metrics::Metric;
use crate::spans::Spans;
use crate::workloads::{prepare, run_pass, Pass, Prepared, NAMES};

/// The default seed (ISSUE 11).
const DEFAULT_SEED: u64 = 24_301;
/// Set-up is repeated and its median reported, so that one slow start does
/// not decide `setup_s`.
const SETUP_REPS: usize = 3;
/// At least two passes, so that every exact cell is checked for repeating
/// its virtual time bit for bit.
const MIN_PASSES: usize = 2;

const MANIFEST: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: cashmere-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n       \
         cashmere-benchmark --summary FILE | --compare FILE FILE",
        NAMES.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    };
    let mut seconds = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", a.workload, usage()));
    }
    a.seconds = match seconds {
        Some(s) => s,
        None => Manifest::load()?.run_seconds,
    };
    Ok(a)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    /// Regression bound, end-to-end metrics only.
    bound: Option<f64>,
}

struct Manifest {
    run_seconds: f64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

impl Manifest {
    fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(MANIFEST)
            .map_err(|e| format!("{MANIFEST}: {e} (run from the repo root)"))?;
        let doc = json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let arr = doc
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{MANIFEST}: no {key} list"))?;
            arr.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{MANIFEST}: {key} entry without {f}"))
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{MANIFEST}: no workloads list"))?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        if declared != NAMES {
            return Err(format!(
                "{MANIFEST} declares workloads {declared:?}, the benchmark has {NAMES:?}"
            ));
        }
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{MANIFEST}: no run_seconds"))?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Every metric must be declared, with its unit, and every declared
    /// metric must be there: a renamed or dropped metric is an error, not a
    /// silent hole in the ledger.
    fn check(&self, trace: bool, got: &[Metric]) -> Result<(), String> {
        let want = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut problems = Vec::new();
        for m in got {
            let ok_name = m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok_name {
                problems.push(format!(
                    "metric name {:?} is outside [A-Za-z0-9_.-]",
                    m.name
                ));
            }
            match want.iter().find(|d| d.name == m.name) {
                None => problems.push(format!("{} is not declared in {MANIFEST}", m.name)),
                Some(d) if d.unit != m.unit => problems.push(format!(
                    "{}: unit {:?}, {MANIFEST} says {:?}",
                    m.name, m.unit, d.unit
                )),
                Some(_) => {}
            }
            if !m.value.is_finite() {
                problems.push(format!("{} is {}", m.name, m.value));
            }
        }
        for d in want {
            if !got.iter().any(|m| m.name == d.name) {
                problems.push(format!("{} is declared but was not measured", d.name));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run found, beyond its metrics.
struct Verdict {
    attempted: u64,
    /// Checks that failed, and what each had to say (a cell is one check,
    /// however many things were wrong with it).
    failed: u64,
    failures: Vec<String>,
    timed_s: f64,
    passes: usize,
    /// Every cell ran on the det engine, so the virtual-time metrics are
    /// exact and two runs with one seed must agree bit for bit.
    exact: bool,
}

fn verdict(p: &Prepared, passes: &[&Pass], timed_s: f64) -> Verdict {
    let mut failures = p.setup_failures.clone();
    for pass in passes {
        failures.extend(pass.failures().cloned());
    }
    Verdict {
        attempted: p.setup_attempted + passes.iter().map(|p| p.attempted()).sum::<u64>(),
        failed: p.setup_failures.len() as u64 + passes.iter().map(|p| p.failed()).sum::<u64>(),
        failures,
        timed_s,
        passes: passes.len(),
        exact: p.cells.iter().all(|c| c.exact()),
    }
}

fn untraced(args: &Args) -> (Vec<Metric>, Verdict) {
    let spans = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(prepare(&args.workload, args.seed, &spans));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("SETUP_REPS > 0");

    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    let t = Instant::now();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() < args.seconds {
        let mut pass = run_pass(&p, false, &spans, passes.first());
        pass.drop_outcomes();
        passes.push(pass);
        if passes.len() == MIN_PASSES {
            // Sampled after a fixed amount of work: the allocator keeps what
            // each pass frees, so the high-water mark at exit would grow with
            // the number of passes, that is, with the program's speed.
            peak_rss = peak_rss_mb();
        }
    }
    let timed_s = t.elapsed().as_secs_f64();

    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let (vt_exec_s, vt_speedup) = metrics::virtual_time(&p, &passes);
    let m = vec![
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("wall_s", median(&mut walls), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::new("vt_exec_s", vt_exec_s, "vt_s"),
        Metric::new("vt_speedup", vt_speedup, "x"),
    ];
    for (i, cell) in p.cells.iter().enumerate() {
        let runs = passes.iter().map(|pass| &pass.runs[i]);
        let mut wall: Vec<f64> = runs.clone().map(|r| r.wall_s).collect();
        let mut vt: Vec<f64> = runs.filter_map(|r| Some(r.vt_ns? as f64 / 1e9)).collect();
        println!(
            "# cell {} wall_s {:.4} vt_s {:.6}",
            cell.label,
            median(&mut wall),
            if vt.is_empty() { 0.0 } else { median(&mut vt) }
        );
    }
    let all: Vec<&Pass> = passes.iter().collect();
    (m, verdict(&p, &all, timed_s))
}

fn traced(args: &Args) -> Result<(Vec<Metric>, Verdict), String> {
    let spans = Spans::new(true);
    let p = spans.scope("prepare", None, || {
        prepare(&args.workload, args.seed, &spans)
    });
    let t = Instant::now();
    let plain = spans.scope("pass", None, || run_pass(&p, false, &spans, None));
    // Observing a run must not move its virtual time: the exact cells are
    // checked against the plain pass.
    let observed = spans.scope("pass+obs", None, || {
        run_pass(&p, true, &spans, Some(&plain))
    });
    let timed_s = t.elapsed().as_secs_f64();
    let det = spans.scope("det rows", None, || metrics::det_rows(&p, &plain, &spans));
    let rows = spans.scope("layers", None, || layers::measure(&spans));

    let mut v = verdict(&p, &[&plain, &observed], timed_s);
    let (m, identity_holds) = metrics::per_layer(&p, &plain, &observed, &rows, &det);
    v.attempted += 1;
    if !identity_holds {
        v.failed += 1;
        v.failures
            .push("Figure-7 categories do not sum to total virtual time".to_string());
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace_{}.json", args.workload);
    std::fs::write(&path, spans.to_json(&args.workload, args.seed))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("# {} spans written to {path}", spans.len());
    for r in rows.iter().filter(|r| !r.resolved()) {
        println!(
            "# unresolved {} (MAD {:.3} ns on {:.3} ns)",
            r.name, r.mad, r.ns
        );
    }
    Ok((m, v))
}

fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        v.failed == 0,
        v.attempted,
        v.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (metrics, v) = if args.trace {
        traced(args)?
    } else {
        untraced(args)
    };
    manifest.check(args.trace, &metrics)?;
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &v.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# {} passes, {:.3} s timed, {} of {} checks failed",
        v.passes, v.timed_s, v.failed, v.attempted
    );
    let result = result_json(&v, &metrics);
    // The record `run.sh` collects into a result set.
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let kind = if args.trace { "traced" } else { "run" };
    let path = format!("{OUT_DIR}/{kind}_{}.json", args.workload);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"timed_s\": {}, \"passes\": {}, \"exact\": {}, \"result\": {result}}}\n",
        args.workload, args.seed, v.timed_s, v.passes, v.exact
    );
    std::fs::write(&path, record).map_err(|e| format!("{path}: {e}"))?;
    println!("{result}");
    Ok(v.failed == 0)
}

// ---------------------------------------------------------------------------
// Result sets: --summary and --compare
// ---------------------------------------------------------------------------

/// One line of a result set, by workload.
struct Record {
    timed_s: f64,
    exact: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_set(path: &str) -> Result<BTreeMap<String, Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let bad = || format!("{path}: malformed record {line}");
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(bad)?;
        let result = doc.get("result").ok_or_else(bad)?;
        let Some(Value::Obj(fields)) = result.get("metrics") else {
            return Err(bad());
        };
        let metrics = fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.insert(
            workload.to_string(),
            Record {
                timed_s: doc.get("timed_s").and_then(Value::as_f64).ok_or_else(bad)?,
                exact: doc.get("exact").and_then(Value::as_bool).ok_or_else(bad)?,
                failed: result
                    .get("failed")
                    .and_then(Value::as_u64)
                    .ok_or_else(bad)?,
                metrics,
            },
        );
    }
    Ok(set)
}

/// The totals of one set. Ends with `"claim": null`: the benchmark measures,
/// it does not claim.
fn summary(path: &str) -> Result<bool, String> {
    let set = load_set(path)?;
    let mut ok = true;
    let mut out = String::from("{\"timed_s\": {");
    let mut total = 0.0;
    for (i, (name, r)) in set.iter().enumerate() {
        println!("# {name}: {:.3} s timed, {} failed", r.timed_s, r.failed);
        let _ = write!(
            out,
            "{}\"{name}\": {}",
            if i > 0 { ", " } else { "" },
            r.timed_s
        );
        total += r.timed_s;
        ok &= r.failed == 0;
    }
    for name in NAMES {
        if !set.contains_key(name) {
            println!("# {name}: MISSING");
            ok = false;
        }
    }
    println!("# total: {total:.3} s timed");
    let failed: u64 = set.values().map(|r| r.failed).sum();
    let _ = write!(
        out,
        "}}, \"timed_s_total\": {total}, \"failed\": {failed}, \"complete\": {ok}, \"claim\": null}}"
    );
    println!("{out}");
    Ok(ok)
}

/// Two sets of the same build and seed must agree: virtual-time metrics bit
/// for bit where every cell ran on the det engine, host metrics within their
/// bound (`setup_s` within its bound or 0.05 s, whichever is larger), nothing
/// failed.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let mut ok = true;
    for name in NAMES {
        let (Some(ra), Some(rb)) = (a.get(name), b.get(name)) else {
            println!("{name}: missing from one set");
            ok = false;
            continue;
        };
        if ra.failed + rb.failed > 0 {
            println!("{name}: failed checks ({} and {})", ra.failed, rb.failed);
            ok = false;
        }
        for d in &manifest.end_to_end {
            let (Some(&x), Some(&y)) = (ra.metrics.get(&d.name), rb.metrics.get(&d.name)) else {
                println!("{name} {}: missing", d.name);
                ok = false;
                continue;
            };
            let spread = (x - y).abs() / x.min(y).max(f64::MIN_POSITIVE);
            let bound = d.bound.unwrap_or(0.0);
            let vt = d.name.starts_with("vt_");
            let (within, rule) = if vt && ra.exact && rb.exact {
                (x == y, "exact")
            } else if vt {
                // One free-running run against another says nothing: the
                // driver compares medians of ten.
                (true, "free-running, not compared")
            } else if d.name == "setup_s" {
                (spread <= bound || (x - y).abs() <= 0.05, "bound or 0.05 s")
            } else {
                (spread <= bound, "bound")
            };
            println!(
                "{name} {} {x} {y} {} spread {spread:.4} bound {bound} ({rule}) {}",
                d.name,
                d.unit,
                if within { "ok" } else { "EXCEEDED" }
            );
            ok &= within;
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--summary", path] => summary(path),
        ["--compare", a, b] => compare(a, b),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cashmere-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
