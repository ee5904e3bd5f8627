//! Observability exporters: the Figure-7 breakdown table
//! (`results/fig7.{jsonl,txt}`), the per-page hot-page report (appended to
//! the table), and the Chrome `trace_event` export
//! (`results/trace_<app>_<proto>.json`).
//!
//! All three consume finished sweep cells ([`Done`]) whose specs had `obs`
//! set; cells without an [`ObsReport`] are skipped. The JSONL rows carry
//! raw virtual nanoseconds (the gate asserts their sum equals the run's
//! total virtual time); the text table renders the same rows as
//! percentages, the way the paper's Figure 7 stacks them.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use cashmere_obs::{chrome, Fig7Cat, ObsReport};

use crate::gate::Done;
use crate::Obj;

/// Serializes one cell's Figure-7 row (`None` when the cell ran without
/// observability).
#[must_use]
pub fn fig7_json(cell: &Done, config: &str) -> Option<String> {
    let obs = cell.outcome.report.obs.as_ref()?;
    let mut o = Obj::new();
    o.str("experiment", "fig7")
        .str("app", cell.app())
        .str("protocol", cell.protocol())
        .str("config", config);
    o.val("procs", obs.procs);
    for c in Fig7Cat::ALL {
        o.val(c.label(), obs.fig7.get(c));
    }
    o.val("total_ns", obs.fig7.total())
        .val("breakdown_total_ns", cell.outcome.report.breakdown.total());
    Some(o.finish())
}

/// Renders the Figure-7 text table: one row per cell with the five
/// categories as percentages of total virtual time, followed by the
/// hot-page report (the per-cell fault-heat leaders).
#[must_use]
pub fn fig7_table(cells: &[Done], config: &str) -> String {
    let mut s = format!("Figure 7 — execution-time breakdown at {config} (% of total VT)\n\n");
    let _ = writeln!(
        s,
        "{:10} {:5} {:>10}  {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "proto", "total(ms)", "task", "sync", "prot", "wait", "msg"
    );
    for cell in cells {
        let Some(obs) = cell.outcome.report.obs.as_ref() else {
            continue;
        };
        let total = obs.fig7.total().max(1) as f64;
        let _ = write!(
            s,
            "{:10} {:5} {:>10.3}",
            cell.app(),
            cell.protocol(),
            obs.fig7.total() as f64 / 1e6
        );
        for c in Fig7Cat::ALL {
            let _ = write!(s, "  {:>5.1}%", 100.0 * obs.fig7.get(c) as f64 / total);
        }
        s.push('\n');
    }
    s.push_str("\nHot pages (page:faults, hottest first)\n\n");
    for cell in cells {
        let Some(obs) = cell.outcome.report.obs.as_ref() else {
            continue;
        };
        let _ = write!(s, "{:10} {:5}", cell.app(), cell.protocol());
        for (page, heat) in obs.hot_pages(4) {
            let _ = write!(s, "  {page}:{heat}");
        }
        s.push('\n');
    }
    s
}

/// Writes `fig7.jsonl` and `fig7.txt` into `dir` from the sweep's
/// observability-enabled cells; returns the row count.
pub fn write_fig7(dir: &Path, cells: &[Done], config: &str) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut jsonl = String::new();
    let mut rows = 0usize;
    for cell in cells {
        if let Some(line) = fig7_json(cell, config) {
            jsonl.push_str(&line);
            jsonl.push('\n');
            rows += 1;
        }
    }
    std::fs::write(dir.join("fig7.jsonl"), jsonl)?;
    std::fs::write(dir.join("fig7.txt"), fig7_table(cells, config))?;
    eprintln!("[wrote {}/fig7.{{jsonl,txt}} ({rows} rows)]", dir.display());
    Ok(rows)
}

/// Exports one cell's spans as a Chrome trace to
/// `<dir>/trace_<app>_<proto>.json`, lints the document, and returns the
/// path and duration-event count. Errors if the cell has no observability
/// data or the export fails its own schema lint.
pub fn export_trace(dir: &Path, cell: &Done) -> Result<(PathBuf, usize), String> {
    let obs = cell
        .outcome
        .report
        .obs
        .as_ref()
        .ok_or("cell ran without observability")?;
    let doc = chrome_doc(obs);
    let events = chrome::lint(&doc).map_err(|e| format!("trace failed its lint: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "trace_{}_{}.json",
        sanitize(cell.app()),
        sanitize(cell.protocol())
    ));
    std::fs::write(&path, doc).map_err(|e| e.to_string())?;
    Ok((path, events))
}

/// Renders an [`ObsReport`]'s spans as a Chrome trace document, labelling
/// one track per protocol node.
#[must_use]
pub fn chrome_doc(obs: &ObsReport) -> String {
    let nodes = obs
        .spans
        .iter()
        .map(|s| s.node as usize + 1)
        .max()
        .unwrap_or(0);
    let labels: Vec<String> = (0..nodes).map(|n| format!("node {n}")).collect();
    chrome::export(&obs.spans, &labels)
}

/// Keeps file names portable: anything outside `[A-Za-z0-9._-]` becomes `-`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_apps::{Scale, Sor};
    use cashmere_core::ProtocolKind;

    use crate::gate::{collect_cells, Cell};
    use crate::{jsonl_field, paper_spec};

    #[test]
    fn exporters_carry_the_identity_lint_clean_and_skip_obs_off_cells() {
        let app = Sor::new(Scale::Test);
        let spec = paper_spec(ProtocolKind::TwoLevel, 4, 2);
        let cells = [
            Cell::new(&app, spec.clone().with_obs(true)),
            Cell::new(&app, spec),
        ];
        let done = collect_cells(&cells, 1);
        let line = fig7_json(&done[0], "4:2").expect("obs on");
        let total = jsonl_field(&line, &[("experiment", "fig7")], "total_ns");
        let breakdown = jsonl_field(&line, &[("app", "SOR")], "breakdown_total_ns");
        assert!(total.is_some(), "{line}");
        assert_eq!(total, breakdown, "Figure-7 identity in the exported row");
        let table = fig7_table(&done, "4:2");
        assert!(table.contains("task"), "{table}");
        assert!(table.contains("Hot pages"), "{table}");

        let obs = done[0].outcome.report.obs.as_ref().unwrap();
        assert!(chrome::lint(&chrome_doc(obs)).expect("lints clean") > 0);

        assert!(fig7_json(&done[1], "4:2").is_none());
        assert!(export_trace(Path::new("unused"), &done[1]).is_err());
    }

    #[test]
    fn sanitize_keeps_portable_names() {
        assert_eq!(sanitize("Water-Sp"), "Water-Sp");
        assert_eq!(sanitize("a b/c"), "a-b-c");
    }
}
