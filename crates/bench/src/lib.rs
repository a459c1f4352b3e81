//! The results runner: one manifest ([`manifest::MANIFEST`]) lists every
//! committed artifact of the evaluation — each file under `results/` plus
//! `REPORT.md` — with the function that produces it and the arguments it
//! is committed at.
//!
//! ```sh
//! cargo run --release -p psim-bench                  # regenerate every artifact
//! cargo run --release -p psim-bench -- --check       # prove each reproduces; writes nothing
//! cargo run --release -p psim-bench -- --only fig08_spmv --scale 0.05   # quick look, stdout only
//! ```
//!
//! `--scale <f>` sets matrix dimensions relative to Table IX (the average
//! row degree is preserved) and `--matrix <name>` restricts the figures to
//! one Table IX matrix. Either one makes the run ad hoc: it prints to
//! stdout and writes nothing, so a quick look never overwrites a committed
//! file.
//!
//! Text artifacts are aligned tables, and every row also appears as a
//! `#TSV` line built from the same cells, so `grep '^#TSV' | cut -f2-`
//! feeds plotting scripts and the report.

use std::cell::OnceCell;
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::time::Instant;

mod ablations;
mod apps;
mod figures;
mod gates;
pub mod manifest;
mod model;
mod report;
mod sched;

/// The checkout this binary was built from; manifest paths are relative
/// to it.
pub(crate) const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// What a run does with each artifact it regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compare with the committed file; write nothing.
    Check,
    /// Write the artifact at its committed path.
    Write,
    /// Ad-hoc run (`--scale` or `--matrix`): print to stdout, write nothing.
    Print,
}

/// One manifest entry: an artifact and how it is produced.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// `--only` selects it; the gates keep the names their docs cite.
    pub name: &'static str,
    /// Committed artifact, relative to the repository root (`None`: the
    /// entry's verdict is its violations alone).
    pub path: Option<&'static str>,
    /// Matrix scale the artifact is committed at (`None`: no matrices).
    pub scale: Option<f64>,
    /// Regenerates the artifact at the given scale.
    pub produce: fn(&Ctx, f64) -> Output,
}

/// What an entry produced.
#[derive(Debug, Default)]
pub struct Output {
    /// The artifact's full text (`None`: nothing to compare or write).
    pub text: Option<String>,
    /// Gate conditions that failed; any one fails the run.
    pub violations: Vec<String>,
}

impl Output {
    /// A JSON report (one line, newline-terminated) and its violations.
    #[must_use]
    pub fn json(report: &impl serde::Serialize, violations: Vec<String>) -> Output {
        let text = Some(format!("{}\n", report.to_json()));
        Output { text, violations }
    }
}

/// State shared by the entries of one run, including the passes several
/// artifacts render from (each runs at most once).
#[derive(Debug)]
pub struct Ctx {
    /// What happens to each regenerated artifact.
    pub mode: Mode,
    /// The `--matrix` filter: figures run on this Table IX matrix alone.
    pub matrix: Option<String>,
    scale: Option<f64>,
    spmv: OnceCell<(f64, Vec<figures::SpmvMeasurement>)>,
    apps: OnceCell<(f64, Vec<apps::AppTimes>)>,
}

impl Ctx {
    /// A run where `scale` overrides every entry's committed scale and
    /// `matrix` restricts the figures to one matrix.
    #[must_use]
    pub fn new(mode: Mode, scale: Option<f64>, matrix: Option<String>) -> Ctx {
        Ctx {
            mode,
            scale,
            matrix,
            spmv: OnceCell::new(),
            apps: OnceCell::new(),
        }
    }

    /// Whether the `--matrix` filter admits the named matrix.
    #[must_use]
    pub fn selects(&self, name: &str) -> bool {
        self.matrix.as_deref().is_none_or(|m| m == name)
    }

    /// Run a shared pass once per run; entries sharing it must share a scale.
    fn shared<T>(cell: &OnceCell<(f64, T)>, scale: f64, pass: impl FnOnce() -> T) -> &T {
        let (at, value) = cell.get_or_init(|| (scale, pass()));
        assert_eq!(
            at.to_bits(),
            scale.to_bits(),
            "entries sharing a pass must share a scale ({at} vs {scale})"
        );
        value
    }
}

/// Run `entries` in order under `ctx`: regenerate each, then compare,
/// write or print it as the mode says. Prints one status line per entry
/// and every violation or difference; returns whether all passed.
pub fn run(entries: &[Entry], ctx: &Ctx) -> bool {
    let mut failed = 0usize;
    for entry in entries {
        let start = Instant::now();
        let scale = ctx.scale.or(entry.scale).unwrap_or(1.0);
        let out = (entry.produce)(ctx, scale);
        let mut problems = out.violations;
        match (ctx.mode, entry.path, out.text) {
            (Mode::Check, Some(path), Some(text)) => {
                match std::fs::read_to_string(Path::new(ROOT).join(path)) {
                    Ok(committed) => problems.extend(compare(path, &committed, &text)),
                    Err(e) => problems.push(format!("{path}: cannot read the committed file: {e}")),
                }
            }
            (Mode::Write, Some(path), Some(text)) => {
                if let Err(e) = std::fs::write(Path::new(ROOT).join(path), text) {
                    problems.push(format!("{path}: cannot write: {e}"));
                }
            }
            (Mode::Check, None, _) | (_, _, None) => {}
            (_, _, Some(text)) => print!("{text}"),
        }
        let verdict = if problems.is_empty() { "ok" } else { "FAIL" };
        eprintln!(
            "{verdict:<4} {:<18} {:>7.1}s  {}",
            entry.name,
            start.elapsed().as_secs_f64(),
            entry.path.unwrap_or("-")
        );
        for p in &problems {
            eprintln!("     {p}");
        }
        failed += usize::from(!problems.is_empty());
    }
    if failed > 0 {
        eprintln!("{failed} of {} entries FAILED", entries.len());
    }
    failed == 0
}

/// Where a regenerated artifact first differs from the committed one:
/// the artifact, line and column, and an excerpt of both lines from there
/// (JSON artifacts are one long line). `None` when byte-identical.
#[must_use]
pub fn compare(path: &str, committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let old: Vec<&str> = committed.split('\n').collect();
    let new: Vec<&str> = fresh.split('\n').collect();
    let i = (0..)
        .find(|&i| old.get(i) != new.get(i))
        .expect("the texts differ");
    let same =
        |(a, b): (&&str, &&str)| a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    let col = old.get(i).zip(new.get(i)).map_or(0, same);
    let at = |lines: &[&str]| match lines.get(i) {
        Some(l) => {
            let from = l.get(col.saturating_sub(30)..).unwrap_or(l);
            format!("{:?}", from.chars().take(90).collect::<String>())
        }
        None => "<end of file>".to_string(),
    };
    let (old, new) = (at(&old), at(&new));
    Some(format!(
        "{path}:{}:{}: committed {old} but regenerated {new}",
        i + 1,
        col + 1
    ))
}

/// Tag and columns of the paper-comparison table every figure ends with;
/// the report's headline collects its rows.
pub(crate) const SUMMARY: (&str, [&str; 3]) = ("summary", ["metric", "measured", "paper"]);

/// One table cell: what the aligned column shows, and what the `#TSV`
/// row carries (the same quantity at full precision).
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    shown: String,
    raw: String,
}

impl<T: Display> From<T> for Cell {
    fn from(v: T) -> Cell {
        let s = v.to_string();
        Cell {
            shown: s.clone(),
            raw: s,
        }
    }
}

impl Cell {
    fn shown_as(shown: String, v: f64) -> Cell {
        let raw = v.to_string();
        Cell { shown, raw }
    }

    /// `v` shown with `decimals` places.
    #[must_use]
    pub fn num(v: f64, decimals: usize) -> Cell {
        Cell::shown_as(format!("{v:.decimals$}"), v)
    }

    /// A speedup or ratio, shown like the paper's figures (`1.23x`).
    #[must_use]
    pub fn times(v: f64) -> Cell {
        Cell::shown_as(format!("{v:.2}x"), v)
    }

    /// `v` in scientific notation (`8.731e-3`).
    #[must_use]
    pub fn sci(v: f64) -> Cell {
        Cell::shown_as(format!("{v:.3e}"), v)
    }
}

/// An artifact's text under construction: free lines and tables.
#[derive(Debug, Default)]
pub(crate) struct Doc {
    text: String,
    /// Tag and width of the table rows go to.
    table: (&'static str, usize),
    /// Whether the [`SUMMARY`] table has started.
    summary: bool,
}

impl Doc {
    /// A text artifact opening with its title line and first table.
    pub fn new(title: impl Display, tag: &'static str, columns: &[&str]) -> Doc {
        let mut doc = Doc::default();
        doc.line(title);
        doc.table(tag, columns);
        doc
    }

    /// Append one free-text line.
    pub fn line(&mut self, text: impl Display) {
        let _ = writeln!(self.text, "{text}");
    }

    /// Start a table: its aligned header, then a `#COLS` line that names
    /// the columns for the report. Rows go to it until the next table.
    pub fn table(&mut self, tag: &'static str, columns: &[&str]) {
        self.aligned(columns.iter());
        let _ = writeln!(self.text, "#COLS\t{tag}\t{}", columns.join("\t"));
        self.table = (tag, columns.len());
    }

    /// Start a further table after a blank line and a caption.
    pub fn section(&mut self, caption: &str, tag: &'static str, columns: &[&str]) {
        self.line("");
        self.line(caption);
        self.table(tag, columns);
    }

    /// One row of the current table: the aligned line, then the `#TSV`
    /// line from the same cells.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the table's.
    pub fn row(&mut self, cells: &[Cell]) {
        let (tag, width) = self.table;
        assert_eq!(cells.len(), width, "{tag} row width");
        self.aligned(cells.iter().map(|c| &c.shown));
        let raw: Vec<&str> = cells.iter().map(|c| c.raw.as_str()).collect();
        let _ = writeln!(self.text, "#TSV\t{tag}\t{}", raw.join("\t"));
    }

    /// A paper-comparison row; the first one starts the [`SUMMARY`] table.
    pub fn summary(&mut self, metric: &str, measured: Cell, paper: &str) {
        if !std::mem::replace(&mut self.summary, true) {
            self.line("");
            self.table(SUMMARY.0, &SUMMARY.1);
        }
        self.row(&[metric.into(), measured, paper.into()]);
    }

    /// The first column left-aligned, the rest right-aligned.
    fn aligned(&mut self, mut cols: impl Iterator<Item = impl Display>) {
        let first = cols.next().map(|c| format!("{c:<22}")).unwrap_or_default();
        let rest: String = cols.map(|c| format!(" {c:>12}")).collect();
        self.line(first + &rest);
    }

    /// The finished artifact as an [`Output`] with no violations.
    #[must_use]
    pub fn done(self) -> Output {
        let text = Some(self.text);
        Output {
            text,
            ..Output::default()
        }
    }
}

/// Geometric mean of the positive values (the paper's summary statistic).
#[must_use]
pub(crate) fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(logs).exp()
    }
}

/// Arithmetic mean (0 for no values).
#[must_use]
pub(crate) fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert_eq!(geomean([0.0, -1.0]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean([1.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn a_row_is_written_once_from_its_cells() {
        let mut doc = Doc::new("# t", "t", &["matrix", "speedup"]);
        doc.row(&["pwtk".into(), Cell::times(1.0 / 3.0)]);
        let text = doc.done().text.expect("text");
        let row = format!(
            "{:<22} {:>12}\n#TSV\tt\tpwtk\t{}\n",
            "pwtk",
            "0.33x",
            1.0 / 3.0
        );
        assert!(text.ends_with(&row), "{text}");
    }

    fn check_ctx() -> Ctx {
        Ctx::new(Mode::Check, None, None)
    }

    #[test]
    fn an_entry_with_one_violation_fails_the_run() {
        let entry = |produce: fn(&Ctx, f64) -> Output| Entry {
            name: "seeded",
            path: None,
            scale: None,
            produce,
        };
        let clean = entry(|_, _| Output::default());
        let failing = entry(|_, _| Output {
            text: None,
            violations: vec!["seeded violation".to_string()],
        });
        assert!(run(&[clean], &check_ctx()));
        assert!(!run(&[clean, failing], &check_ctx()));
    }

    #[test]
    fn check_names_the_artifact_and_line_of_a_one_character_change() {
        let path = "results/table10_area.txt";
        let committed = std::fs::read_to_string(Path::new(ROOT).join(path)).expect("committed");
        assert_eq!(compare(path, &committed, &committed), None);
        let at = committed.find("68.99").expect("pSyncPIM total area");
        let mut changed = committed.clone();
        changed.replace_range(at..=at, "7");
        let line = committed[..at].lines().count();
        let msg = compare(path, &committed, &changed).expect("a one-character change differs");
        assert!(msg.starts_with(&format!("{path}:{line}:")), "{msg}");
        assert!(msg.contains("78.99"), "{msg}");
        let no_newline = compare(path, &committed, committed.trim_end()).expect("differs");
        assert!(no_newline.contains("<end of file>"), "{no_newline}");
    }
}
