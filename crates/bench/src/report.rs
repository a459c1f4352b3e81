//! `REPORT.md`: the headline paper comparison and the per-figure tables,
//! rendered from the committed artifacts under `results/`.

use crate::manifest::MANIFEST;
use crate::{Ctx, Entry, Output, ROOT, SUMMARY};
use psyncpim_core::isa::ALL_LINT_CODES;
use std::fmt::Write as _;
use std::path::Path;

/// The per-figure tables the report shows, by tag, with their titles.
const FIGURES: [(&str, &str); 9] = [
    (
        "fig03",
        "Figure 3 — SpMV memory commands, per-bank vs all-bank",
    ),
    ("fig08", "Figure 8 — SpMV speedups over the GPU model"),
    ("fig09", "Figure 9 — SpTRSV speedups over cuSPARSE"),
    ("fig10", "Figure 10 — dense BLAS throughput"),
    ("fig11", "Figure 11 — application speedups"),
    ("fig13", "Figure 13 — TC with the SpGEMM accelerator"),
    ("fig14", "Figure 14 — SpMV energy"),
    (
        "sched",
        "psim-sched — multi-tenant throughput by shard count",
    ),
    ("sched-class", "psim-sched — per-class latency at 4 shards"),
];

/// One `#TSV` row (or `#COLS` header) with the entry whose artifact holds it.
struct Row {
    entry: &'static Entry,
    header: bool,
    tag: String,
    cells: Vec<String>,
}

/// Every `#TSV` and `#COLS` line of the committed text artifacts, in
/// manifest order.
fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for entry in &MANIFEST {
        let Some(path) = entry.path.filter(|p| p.ends_with(".txt")) else {
            continue;
        };
        let text = std::fs::read_to_string(Path::new(ROOT).join(path)).unwrap_or_default();
        for line in text.lines() {
            let mut fields = line.split('\t');
            let header = match fields.next() {
                Some("#TSV") => false,
                Some("#COLS") => true,
                _ => continue,
            };
            let Some(tag) = fields.next() else { continue };
            let (tag, cells) = (tag.to_string(), fields.map(str::to_string).collect());
            rows.push(Row {
                entry,
                header,
                tag,
                cells,
            });
        }
    }
    rows
}

/// Where an artifact comes from: its entry and committed scale.
fn source(entry: &Entry) -> String {
    match entry.scale {
        Some(s) => format!("`{}` at scale {s}", entry.name),
        None => format!("`{}`", entry.name),
    }
}

/// A `#TSV` number rendered for a markdown table.
fn show(raw: &str) -> String {
    match raw.parse::<f64>() {
        Ok(v) if raw.contains(['.', 'e']) => {
            if v != 0.0 && v.abs() < 0.01 {
                format!("{v:.3e}")
            } else if v.abs() >= 1e4 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        }
        _ => raw.to_string(),
    }
}

/// The number after the last key of `path` in a JSON text, each key
/// searched after the previous one (enough for the flat reports here).
fn json_num(json: &str, path: &[&str]) -> Option<f64> {
    let mut at = 0;
    for key in path {
        let quoted = format!("\"{key}\"");
        at += json[at..].find(&quoted)? + quoted.len();
    }
    let rest = json[at..].strip_prefix(':')?;
    rest[..rest.find([',', '}'])?].parse().ok()
}

fn table_md(
    out: &mut String,
    columns: &[impl AsRef<str>],
    rows: impl Iterator<Item = Vec<String>>,
) {
    let columns: Vec<&str> = columns.iter().map(AsRef::as_ref).collect();
    let _ = writeln!(out, "| {} |", columns.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(columns.len()));
    for r in rows {
        let _ = writeln!(out, "| {} |", r.join(" | "));
    }
    let _ = writeln!(out);
}

/// REPORT.md, generated whole from `results/`.
pub fn report(_: &Ctx, _: f64) -> Output {
    let rows = rows();
    let read =
        |name: &str| std::fs::read_to_string(Path::new(ROOT).join("results").join(name)).ok();
    let lint = read("psim_lint.json").unwrap_or_default();
    let soak = read("BENCH_soak.json").unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "# pSyncPIM reproduction report\n");
    let _ = writeln!(
        out,
        "Generated by `cargo run --release -p psim-bench` from the committed \
         artifacts under `results/`; `-- --check` regenerates every one of \
         them and fails on any byte difference.\n"
    );

    let codes = (ALL_LINT_CODES[0], ALL_LINT_CODES[ALL_LINT_CODES.len() - 1]);
    let _ = writeln!(out, "## Validation\n");
    let _ = writeln!(
        out,
        "Every number below comes from a two-sided validated build: \
         `psim_lint` statically verifies each shipped program (CFG + \
         abstract interpretation, diagnostic codes {}–{}) before \
         `psim_check` replays the emitted command streams through an \
         independent JEDEC protocol checker and diffs kernel numerics \
         against CPU oracles. Both gate `ci.sh`.\n",
        codes.0.code(),
        codes.1.code()
    );
    let totals = ["programs", "clean", "errors", "warnings"].map(|k| json_num(&lint, &[k]));
    if let [Some(p), Some(c), Some(e), Some(w)] = totals {
        let _ = writeln!(
            out,
            "psim-lint summary: {p} programs linted, {c} clean, {e} errors, {w} warnings.\n"
        );
    }

    let _ = writeln!(out, "## Headline vs paper\n");
    let mut headline: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| !r.header && r.tag == SUMMARY.0 && r.cells.len() == 3)
        .map(|r| {
            let measured = r.cells[1]
                .parse::<f64>()
                .map_or(r.cells[1].clone(), |v| format!("{v:.2}"));
            vec![
                r.cells[0].clone(),
                r.cells[2].clone(),
                measured,
                source(r.entry),
            ]
        })
        .collect();
    if let [Some(s), Some(jobs)] = ["fused_speedup", "jobs"].map(|k| json_num(&soak, &[k])) {
        headline.push(vec![
            "soak fused / unfused jobs/s".to_string(),
            ">1.3x (goal)".to_string(),
            format!("{s:.2}"),
            format!("`soak_sched` ({jobs} jobs)"),
        ]);
    }
    table_md(
        &mut out,
        &["metric", "paper", "measured", "committed at"],
        headline.into_iter(),
    );

    for (tag, title) in FIGURES {
        let mine: Vec<&Row> = rows.iter().filter(|r| r.tag == tag).collect();
        let Some(columns) = mine.iter().find(|r| r.header) else {
            continue;
        };
        let _ = writeln!(out, "## {title}\n");
        let _ = writeln!(
            out,
            "From `{}` ({}).\n",
            columns.entry.path.unwrap_or("-"),
            source(columns.entry)
        );
        let data = mine.iter().filter(|r| !r.header);
        table_md(
            &mut out,
            &columns.cells,
            data.map(|r| r.cells.iter().map(|c| show(c)).collect()),
        );
    }

    soak_section(&mut out, &soak);
    let text = Some(out.trim_end().to_string() + "\n");
    Output {
        text,
        ..Output::default()
    }
}

/// The service-mode soak: fused vs unfused runs of `BENCH_soak.json`.
fn soak_section(out: &mut String, soak: &str) {
    let num = |path: &[&str]| json_num(soak, path);
    let keys = [
        "jobs",
        "shards",
        "fusion_width",
        "fused_speedup",
        "speedup_floor",
    ];
    let [Some(jobs), Some(shards), Some(width), Some(speedup), Some(floor)] =
        keys.map(|k| num(&[k]))
    else {
        return;
    };
    let _ = writeln!(
        out,
        "## psim-sched — service-mode soak ({jobs} jobs, {shards} shards, fusion width {width})\n"
    );
    let _ = writeln!(
        out,
        "From `results/BENCH_soak.json` (`soak_sched`): an open-arrival \
         heavy-tailed multi-tenant trace replayed through \
         `psim_sched::Service` twice, SpMV→SpMM fusion on vs off. Every SpMV \
         group runs from its matrix's autotuned layout. The figures race the \
         trace's producer thread, so `--check` re-runs only the soak's gate \
         conditions, at 30000 jobs.\n"
    );
    // (column, key path within a run, decimals)
    let columns: [(&str, &[&str], usize); 6] = [
        ("jobs/s (sim)", &["sustained_jobs_per_s"], 0),
        ("makespan s", &["makespan_s"], 3),
        ("fusion rate", &["fusion_rate"], 3),
        ("steals", &["steals"], 0),
        ("evictions", &["store_evictions"], 0),
        ("interactive p99 us", &["interactive", "p99_us"], 1),
    ];
    let value = |run: &str, path: &[&str]| num(&[&[run], path].concat()).unwrap_or(f64::NAN);
    let header: Vec<&str> = std::iter::once("config")
        .chain(columns.map(|c| c.0))
        .collect();
    let runs = [
        ("fused", format!("fused (w={width})")),
        ("unfused", "unfused".into()),
    ];
    let rows = runs.map(|(run, label)| {
        let cells = columns.map(|(_, path, d)| format!("{:.d$}", value(run, path)));
        std::iter::once(label).chain(cells).collect()
    });
    table_md(out, &header, rows.into_iter());
    let p99 = |run| value(run, &["interactive", "p99_us"]);
    let _ = writeln!(
        out,
        "Fused sustained throughput is **{speedup:.2}x** unfused (gate floor \
         {floor}x); fused interactive p99 is {:.1} us against {:.1} us unfused.",
        p99("fused"),
        p99("unfused")
    );
}
