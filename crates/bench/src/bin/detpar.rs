//! Deterministic-parallelism gate (`scripts/detpar.sh`), DESIGN.md §15.
//!
//! Proves the conservative virtual-time engine is what it claims to be —
//! parallelism inside a run with zero observable effect — in four phases
//! (nonzero exit on any failure):
//!
//! 1. **Golden preflight** (skippable with `--skip-golden`; implied by a
//!    non-`mc` backend): the default *sequential* engine regenerates the
//!    committed `results/vt_golden.jsonl` and the sequential rows of
//!    `results/table2.jsonl` byte-identically — the lookahead-barrier
//!    refactor must not move a byte of the paper artifacts.
//! 2. **Worker-identity matrix.** One paper app (SOR) across all four
//!    protocols at host worker counts {1, 2, 8}, each repeated until it has
//!    run for [`MIN_TIMED_SECS`]: every run of every cell must produce a
//!    byte-identical `Report` and an equal checksum, and the same scheduler
//!    traffic (parks, gates, blocks, windows).
//! 3. **Env opt-in.** `CASHMERE_PROC_WORKERS=2` with no `RunSpec` override
//!    must land on the same bytes as the explicit `with_det_parallel(2)`
//!    run — the two opt-in paths may not diverge.
//! 4. **Wallclock ratio.** Mean wall time per run at each worker count
//!    over those repeats, and the workers=1 to wider-count ratios, recorded
//!    with the traffic counts and the wake-ups issued (not gated — host
//!    wall time is noisy; the byte-identity above is the hard property).
//!
//! Flags: `--seed N` (echoed into the output for provenance; the SOR data
//! set is deterministic), `--skip-golden`, `--backend {mc,rdma,cxl}`.
//! `CASHMERE_JOBS` is echoed alongside for symmetry with the other gates.
//!
//! Output: `BENCH_detpar.json` — seed, jobs, backend, per-protocol
//! identity verdicts, wall times, run counts and scheduler traffic, and the
//! failure count.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use cashmere_apps::{suite, AppOutcome, Benchmark, Scale, Sor};
use cashmere_bench::golden::{build_goldens, check_table2};
use cashmere_bench::{build_with, fmt_json_f64, json_str, parse_backend, RunOpts};
use cashmere_core::det::DetStats;
use cashmere_core::{Backend, ProtocolKind};

/// The matrix topology: 8 processors, 4 per node (2 nodes — every worker
/// count below the proc count forces real multiplexing).
const DETPAR_CONFIG: (usize, usize) = (8, 4);

/// Host worker counts exercised; the first is the base every other run is
/// compared with.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Each (protocol, worker count) cell repeats its run until this much wall
/// time has gone by: a ratio of two single 3 ms runs is noise.
const MIN_TIMED_SECS: f64 = 0.5;

struct Args {
    seed: u64,
    skip_golden: bool,
    backend: Backend,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 0x5EED,
        skip_golden: false,
        backend: Backend::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                a.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--seed requires an integer"));
            }
            "--skip-golden" => a.skip_golden = true,
            "--backend" => a.backend = parse_backend(args.next()),
            other => panic!(
                "unknown flag {other:?} (supported: --seed N, --skip-golden, \
                 --backend {{mc,rdma,cxl}})"
            ),
        }
    }
    a
}

/// One timed run of `app` at the given worker count (`None` = the
/// sequential engine), with the scheduler traffic it generated.
fn timed_run(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    backend: Backend,
    det_workers: Option<usize>,
) -> (AppOutcome, DetStats, f64) {
    let t = Instant::now();
    let mut cluster = build_with(
        app,
        protocol,
        DETPAR_CONFIG.0,
        DETPAR_CONFIG.1,
        RunOpts {
            backend,
            det_workers,
            ..RunOpts::default()
        },
        None,
        false,
    );
    let out = app.execute(&mut cluster);
    (out, cluster.det_stats(), t.elapsed().as_secs_f64() * 1e3)
}

/// What one (protocol, worker count) cell's repeats came to.
struct Timed {
    workers: usize,
    runs: usize,
    mean_ms: f64,
    /// Wake-ups issued in the first run (the one count that may depend on
    /// the worker bound).
    wakes: u64,
}

/// `"key":{"w1":..,"w2":..}` over the cells of one protocol.
fn json_by_workers(s: &mut String, key: &str, cells: &[Timed], value: impl Fn(&Timed) -> String) {
    let _ = write!(s, "\"{key}\":{{");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"w{}\":{}", c.workers, value(c));
    }
    s.push('}');
}

fn main() {
    let args = parse_args();
    let jobs = std::env::var("CASHMERE_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let mut failures = 0usize;

    let golden = if args.skip_golden {
        eprintln!("[--skip-golden: paper-golden preflight skipped]");
        "skipped"
    } else if args.backend != Backend::MemoryChannel {
        eprintln!(
            "[--backend {} — committed goldens pin the Memory Channel; preflight skipped]",
            args.backend.label()
        );
        "skipped"
    } else if golden_preflight() == 0 {
        "ok"
    } else {
        failures += 1;
        "drift"
    };

    let app = Sor::new(Scale::Test);
    let mut cells = Vec::new();
    for protocol in ProtocolKind::PAPER_FOUR {
        // What every run of this protocol must reproduce: the Report bytes,
        // the checksum, and the schedule's traffic (`wakes` is not part of
        // the schedule).
        let traffic = |s: &DetStats| (s.parks, s.gates, s.blocks, s.windows);
        let mut base = None;
        let mut timed: Vec<Timed> = Vec::new();
        let mut identical = true;
        let mut repeat_identical = true;
        for workers in WORKER_COUNTS {
            let started = Instant::now();
            let mut wall_ms = 0.0;
            let mut runs = 0;
            let mut wakes = 0;
            while runs == 0 || started.elapsed().as_secs_f64() < MIN_TIMED_SECS {
                let (out, stats, ms) = timed_run(&app, protocol, args.backend, Some(workers));
                wall_ms += ms;
                runs += 1;
                let this = (out.report.to_json(), out.checksum, traffic(&stats));
                let same = this == *base.get_or_insert_with(|| this.clone());
                // A cell's first run answers "same at this worker count?",
                // its repeats "same every time?".
                let verdict = if runs == 1 {
                    wakes = stats.wakes;
                    &mut identical
                } else {
                    &mut repeat_identical
                };
                if !same && *verdict {
                    *verdict = false;
                    eprintln!(
                        "detpar {:4}: run {runs} at {workers} workers diverges from the base run",
                        protocol.label()
                    );
                }
            }
            timed.push(Timed {
                workers,
                runs,
                mean_ms: wall_ms / runs as f64,
                wakes,
            });
        }
        if !identical || !repeat_identical {
            failures += 1;
        }
        let (_, _, (parks, gates, blocks, windows)) = base.expect("worker counts nonempty");
        let wall1 = timed[0].mean_ms;
        let ratio = |t: &Timed| {
            if t.mean_ms > 0.0 {
                wall1 / t.mean_ms
            } else {
                0.0
            }
        };
        let walls: Vec<String> = timed
            .iter()
            .map(|t| format!("w{}={:.2}ms×{}", t.workers, t.mean_ms, t.runs))
            .collect();
        let widest = timed.last().expect("worker counts nonempty");
        println!(
            "detpar {:4} identical={} repeat={} wall {} ratio w1/w{}={:.2} \
             parks={parks} gates={gates} blocks={blocks} windows={windows}",
            protocol.label(),
            if identical { "ok" } else { "BAD" },
            if repeat_identical { "ok" } else { "BAD" },
            walls.join(" "),
            widest.workers,
            ratio(widest),
        );

        let mut s = String::with_capacity(384);
        s.push('{');
        json_str(&mut s, "protocol", protocol.label());
        let _ = write!(
            s,
            ",\"identical\":{identical},\"repeat_identical\":{repeat_identical},"
        );
        json_by_workers(&mut s, "wall_ms", &timed, |t| fmt_json_f64(t.mean_ms));
        s.push(',');
        json_by_workers(&mut s, "runs", &timed, |t| t.runs.to_string());
        s.push(',');
        json_by_workers(&mut s, "par_ratio", &timed[1..], |t| fmt_json_f64(ratio(t)));
        let _ = write!(
            s,
            ",\"parks\":{parks},\"gates\":{gates},\"blocks\":{blocks},\"windows\":{windows},"
        );
        json_by_workers(&mut s, "wakes", &timed, |t| t.wakes.to_string());
        s.push('}');
        cells.push(s);
    }

    // Phase 3: the env opt-in path must land on the same bytes as the
    // builder path. Set/removed around a single run; the rest of the gate
    // runs with the variable absent.
    let protocol = ProtocolKind::TwoLevel;
    let (explicit, _, _) = timed_run(&app, protocol, args.backend, Some(2));
    std::env::set_var("CASHMERE_PROC_WORKERS", "2");
    let (via_env, _, _) = timed_run(&app, protocol, args.backend, None);
    std::env::remove_var("CASHMERE_PROC_WORKERS");
    let env_ok = via_env.report.to_json() == explicit.report.to_json()
        && via_env.checksum == explicit.checksum;
    if !env_ok {
        failures += 1;
        eprintln!("detpar: CASHMERE_PROC_WORKERS=2 diverges from with_det_parallel(2)");
    }
    println!(
        "detpar env opt-in (CASHMERE_PROC_WORKERS=2): {}",
        if env_ok { "ok" } else { "BAD" }
    );

    let mut out = String::from("{\"experiment\":\"detpar\",");
    let _ = write!(
        out,
        "\"seed\":{},\"jobs\":{jobs},\"backend\":\"{}\",\"app\":\"{}\",\"config\":\"{}:{}\",\
         \"min_timed_secs\":{MIN_TIMED_SECS},\"workers\":[",
        args.seed,
        args.backend.label(),
        app.name(),
        DETPAR_CONFIG.0,
        DETPAR_CONFIG.1
    );
    for (i, w) in WORKER_COUNTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    let _ = write!(
        out,
        "],\"golden\":\"{golden}\",\"env_optin_ok\":{env_ok},\"cells\":["
    );
    out.push_str(&cells.join(","));
    let _ = write!(out, "],\"failures\":{failures}}}");
    out.push('\n');
    std::fs::write("BENCH_detpar.json", out).expect("write BENCH_detpar.json");
    eprintln!("[wrote BENCH_detpar.json]");

    if failures > 0 {
        eprintln!("FAIL: {failures} detpar check(s) failed");
        std::process::exit(1);
    }
    println!("detpar: all checks passed");
}

/// Phase 1: the sequential engine must still regenerate the committed
/// goldens byte-for-byte (the det refactor touched its charge paths).
fn golden_preflight() -> usize {
    let mut failures = 0usize;
    let apps = suite(Scale::Bench);
    let g = build_goldens(&apps, None, false, false, false);
    let golden_path = Path::new("results/vt_golden.jsonl");
    match std::fs::read_to_string(golden_path) {
        Ok(committed) if committed == g.jsonl => {
            println!(
                "detpar golden: paper goldens byte-identical ({} lines)",
                g.jsonl.lines().count()
            );
        }
        Ok(committed) => {
            failures += 1;
            eprintln!("detpar golden: DRIFT in {}", golden_path.display());
            for (i, (a, b)) in committed.lines().zip(g.jsonl.lines()).enumerate() {
                if a != b {
                    eprintln!(
                        "  line {}:\n    committed: {a}\n    regenerated: {b}",
                        i + 1
                    );
                }
            }
        }
        Err(e) => {
            failures += 1;
            eprintln!(
                "detpar golden: cannot read {} ({e}) — capture goldens first",
                golden_path.display()
            );
        }
    }
    failures + check_table2(&g.seq_secs)
}
