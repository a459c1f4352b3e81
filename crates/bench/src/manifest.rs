//! The manifest: every committed artifact, the function that produces it
//! and the scale it is committed at. Entries run in this order; the
//! report comes last because it renders the others' files.

use crate::{ablations, apps, figures, gates, model, report, sched, Entry};

const fn entry(
    name: &'static str,
    path: Option<&'static str>,
    scale: Option<f64>,
    produce: fn(&crate::Ctx, f64) -> crate::Output,
) -> Entry {
    Entry {
        name,
        path,
        scale,
        produce,
    }
}

/// Every committed artifact: each file under `results/` plus `REPORT.md`.
/// Figures 3, 8 and 14 share one SpMV-suite pass, and Figures 11 and 12
/// one apps pass, so each group shares a scale.
#[rustfmt::skip]
pub static MANIFEST: [Entry; 23] = [
    entry("psim_lint",         Some("results/psim_lint.json"),       None,       gates::psim_lint),
    entry("psim_check",        None,                                 None,       gates::psim_check),
    entry("psim_trace",        Some("results/BENCH_trace.json"),     None,       gates::psim_trace),
    entry("psim_model",        Some("results/psim_model.json"),      None,       model::psim_model),
    entry("ablation_autotune", Some("results/BENCH_autotune.json"),  None,       gates::ablation_autotune),
    entry("soak_sched",        Some("results/BENCH_soak.json"),      None,       sched::soak),
    entry("table_config",      Some("results/table_config.txt"),     None,       figures::table_config),
    entry("fig02_breakdown",   Some("results/fig02_breakdown.txt"),  Some(0.5),  apps::fig02),
    entry("fig03_commands",    Some("results/fig03_commands.txt"),   Some(0.3),  figures::fig03),
    entry("fig08_spmv",        Some("results/fig08_spmv.txt"),       Some(0.3),  figures::fig08),
    entry("fig09_sptrsv",      Some("results/fig09_sptrsv.txt"),     Some(0.1),  figures::fig09),
    entry("fig10_dense",       Some("results/fig10_dense.txt"),      Some(0.05), figures::fig10),
    entry("fig11_apps",        Some("results/fig11_apps.txt"),       Some(0.1),  apps::fig11),
    entry("fig12_breakdown",   Some("results/fig12_breakdown.txt"),  Some(0.1),  apps::fig12),
    entry("fig13_tc",          Some("results/fig13_tc.txt"),         Some(0.1),  figures::fig13),
    entry("fig14_energy",      Some("results/fig14_energy.txt"),     Some(0.3),  figures::fig14),
    entry("table9_suite",      Some("results/table9_suite.txt"),     Some(0.05), figures::table9),
    entry("table10_area",      Some("results/table10_area.txt"),     None,       figures::table10),
    entry("ablation_spmv",     Some("results/ablation_spmv.txt"),    Some(0.1),  ablations::ablation_spmv),
    entry("ablation_format",   Some("results/ablation_format.txt"),  None,       ablations::ablation_format),
    entry("ablation_dse",      Some("results/ablation_dse.txt"),     Some(0.1),  ablations::ablation_dse),
    entry("throughput_sched",  Some("results/throughput_sched.txt"), Some(0.1),  sched::throughput),
    entry("report",            Some("REPORT.md"),                    None,       report::report),
];

#[cfg(test)]
mod tests {
    use super::MANIFEST;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn manifest_names_every_committed_result_and_each_path_exists() {
        let root = Path::new(crate::ROOT);
        let listed: BTreeSet<&str> = MANIFEST.iter().filter_map(|e| e.path).collect();
        for path in &listed {
            assert!(root.join(path).is_file(), "manifest path {path} is missing");
        }
        for file in std::fs::read_dir(root.join("results")).expect("results/") {
            let name = file.expect("dir entry").file_name();
            let path = format!("results/{}", name.to_string_lossy());
            assert!(
                listed.contains(path.as_str()),
                "{path} is not in the manifest"
            );
        }
        assert!(listed.contains("REPORT.md"));
        let names: BTreeSet<&str> = MANIFEST.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), MANIFEST.len(), "entry names are unique");
    }
}
