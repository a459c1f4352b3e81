//! Golden verdicts of the protocol checker.
//!
//! A fixed corpus of faulty command traces is replayed through
//! [`ProtocolChecker`] under the all-bank lockstep policy and under the
//! per-bank policy. The corpus has two parts: hand-written traces that
//! break every [`Rule`] at least once (including all-bank state errors
//! that fire on every bank and a trace that overflows the violation cap),
//! and seeded mutations of clean streams issued by a real [`Channel`].
//! Every [`CheckReport`] — each violation in order with its rule, bank,
//! cycle and detail, plus the suppressed count — is compared byte for
//! byte against `tests/goldens/checker_verdicts.json`, so any change to
//! what the checker reports, or in which order, shows up as a diff.
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! PSIM_BLESS=1 cargo test -p psim-dram --test checker_golden
//! ```

use psim_dram::{
    Channel, CheckPolicy, CheckReport, CmdKind, HbmConfig, ProtocolChecker, Rule, Scope,
};
use serde::Serialize;
use std::path::PathBuf;

type Cmd = (u64, Scope, CmdKind);

/// Every rule the corpus must exercise at least once.
const ALL_RULES: [Rule; 18] = [
    Rule::BankState,
    Rule::Trcd,
    Rule::Tras,
    Rule::Trp,
    Rule::Trtp,
    Rule::Twr,
    Rule::Twtr,
    Rule::ReadToWrite,
    Rule::Trfc,
    Rule::TrrdS,
    Rule::TrrdL,
    Rule::Tfaw,
    Rule::TccdS,
    Rule::TccdL,
    Rule::BusOverflow,
    Rule::NonMonotonic,
    Rule::Lockstep,
    Rule::RefreshGap,
];

/// One replayed trace and the checker's full verdict on it.
#[derive(Serialize)]
struct Verdict {
    name: String,
    policy: CheckPolicy,
    end_cycle: u64,
    report: CheckReport,
}

/// A named faulty trace, replayed under both policies.
struct Case {
    name: String,
    trace: Vec<Cmd>,
    end_cycle: u64,
    expect_refresh: bool,
    max_violations: usize,
}

impl Case {
    fn new(name: &str, trace: Vec<Cmd>, end_cycle: u64) -> Self {
        Case {
            name: name.to_string(),
            trace,
            end_cycle,
            expect_refresh: false,
            max_violations: CheckPolicy::default().max_violations,
        }
    }

    fn with_refresh(mut self) -> Self {
        self.expect_refresh = true;
        self
    }

    fn with_cap(mut self, cap: usize) -> Self {
        self.max_violations = cap;
        self
    }
}

fn ab(cycle: u64, cmd: CmdKind) -> Cmd {
    (cycle, Scope::AllBanks, cmd)
}

fn one(cycle: u64, bg: usize, ba: usize, cmd: CmdKind) -> Cmd {
    (cycle, Scope::OneBank { bg, ba }, cmd)
}

const fn act(row: u32) -> CmdKind {
    CmdKind::Act { row }
}

const fn rd(col: u32) -> CmdKind {
    CmdKind::Rd { col }
}

const fn wr(col: u32) -> CmdKind {
    CmdKind::Wr { col }
}

/// Hand-written traces, each aimed at one rule (they may trip others on
/// the way — the golden pins whatever the checker reports).
fn hand_cases(cfg: &HbmConfig) -> Vec<Case> {
    let t = cfg.timing;
    let refresh_bound = 9 * t.t_refi;
    vec![
        Case::new(
            "allbank_state_errors",
            vec![
                ab(0, rd(0)),
                ab(1, act(0)),
                ab(2, act(1)),
                ab(3, CmdKind::Mrs),
                ab(4, CmdKind::Ref),
                ab(t.t_ras, CmdKind::Pre),
                ab(t.t_ras + 1, CmdKind::Pre),
                ab(t.t_ras + 2, wr(3)),
            ],
            t.t_ras + 10,
        )
        .with_cap(256),
        Case::new("trcd", vec![ab(0, act(0)), ab(t.t_rcd - 1, rd(0))], 100),
        Case::new(
            "tras_trp",
            vec![
                ab(0, act(0)),
                ab(t.t_ras - 1, CmdKind::Pre),
                ab(t.t_ras + 5, act(1)),
            ],
            200,
        ),
        Case::new(
            "trtp",
            vec![
                ab(0, act(2)),
                ab(t.t_ras - 2, rd(1)),
                ab(t.t_ras, CmdKind::Pre),
            ],
            200,
        ),
        Case::new(
            "twr",
            vec![
                ab(0, act(2)),
                ab(t.t_rcd, wr(1)),
                ab(t.t_rcd + t.wl + t.t_wr - 1, CmdKind::Pre),
            ],
            200,
        ),
        Case::new(
            "twtr",
            vec![
                ab(0, act(2)),
                ab(t.t_rcd, wr(1)),
                ab(t.t_rcd + t.wl + t.t_wtr - 1, rd(2)),
            ],
            200,
        ),
        Case::new(
            "read_to_write",
            vec![
                ab(0, act(2)),
                ab(t.t_rcd, rd(1)),
                ab(t.t_rcd + t.rl - 1, wr(2)),
            ],
            200,
        ),
        Case::new(
            "trfc",
            vec![
                ab(0, CmdKind::Ref),
                ab(t.t_rfc - 1, CmdKind::Ref),
                ab(t.t_rfc + 10, act(0)),
                ab(2 * t.t_rfc + 10, CmdKind::Pre),
                ab(2 * t.t_rfc + 30, CmdKind::Mrs),
            ],
            3 * t.t_rfc,
        ),
        Case::new(
            "trrd_s_trrd_l",
            vec![
                one(0, 0, 0, act(0)),
                one(2, 0, 1, act(0)),
                one(3, 1, 0, act(0)),
                one(5, 1, 1, act(0)),
            ],
            100,
        ),
        Case::new(
            "tfaw",
            vec![
                one(0, 0, 0, act(0)),
                one(t.t_rrd_s, 1, 0, act(0)),
                one(2 * t.t_rrd_s, 2, 0, act(0)),
                one(3 * t.t_rrd_s, 3, 0, act(0)),
                one(4 * t.t_rrd_s, 0, 1, act(0)),
                one(5 * t.t_rrd_s, 1, 1, act(0)),
            ],
            200,
        ),
        Case::new(
            "tccd_s_tccd_l",
            vec![
                one(0, 0, 0, act(0)),
                one(t.t_rrd_s, 1, 0, act(0)),
                one(t.t_rrd_s + t.t_rcd, 0, 0, rd(0)),
                one(t.t_rrd_s + t.t_rcd + 1, 1, 0, rd(0)),
                one(t.t_rrd_s + t.t_rcd + 2, 0, 0, rd(1)),
                one(t.t_rrd_s + t.t_rcd + 3, 0, 0, wr(2)),
            ],
            200,
        ),
        Case::new(
            "allbank_columns_pace_at_tccd_l",
            vec![
                ab(0, act(0)),
                ab(t.t_rcd, rd(0)),
                ab(t.t_rcd + t.t_ccd_s, rd(1)),
                ab(t.t_rcd + t.t_ccd_s + 1, rd(2)),
            ],
            200,
        ),
        Case::new(
            "bus_overflow",
            vec![
                ab(5, CmdKind::Mrs),
                ab(5, CmdKind::Mrs),
                ab(5, CmdKind::Mrs),
                ab(5, CmdKind::Mrs),
                ab(6, CmdKind::Mrs),
            ],
            10,
        ),
        Case::new(
            "non_monotonic",
            vec![
                ab(50, CmdKind::Mrs),
                ab(40, CmdKind::Mrs),
                ab(60, act(1)),
                ab(55, rd(0)),
            ],
            100,
        ),
        Case::new(
            "lockstep_divergence",
            vec![
                ab(0, act(3)),
                ab(t.t_ras, CmdKind::Pre),
                one(t.t_ras + t.t_rp, 2, 3, act(7)),
                one(2 * t.t_ras + t.t_rp, 2, 3, CmdKind::Pre),
            ],
            400,
        ),
        Case::new(
            "lockstep_row_mismatch",
            (0..16)
                .map(|b| {
                    one(
                        b as u64 * t.t_faw,
                        b / 4,
                        b % 4,
                        act(if b == 9 { 5 } else { 4 }),
                    )
                })
                .collect(),
            1000,
        ),
        Case::new(
            "refresh_gap_between_refs",
            vec![
                ab(0, CmdKind::Mrs),
                ab(t.t_refi, CmdKind::Ref),
                ab(t.t_refi + refresh_bound + 1, CmdKind::Ref),
            ],
            t.t_refi + refresh_bound + 2,
        )
        .with_refresh(),
        Case::new(
            "refresh_gap_trailing",
            vec![ab(0, CmdKind::Mrs), ab(100, CmdKind::Ref)],
            100 + refresh_bound + 50,
        )
        .with_refresh(),
        Case::new(
            "refresh_never_issued",
            vec![ab(0, CmdKind::Mrs), ab(10, act(0))],
            refresh_bound + 500,
        )
        .with_refresh(),
        Case::new(
            "suppression_cap",
            (0..12).map(|i| ab(i, rd(0))).collect(),
            12,
        )
        .with_cap(5),
        Case::new(
            "suppression_cap_with_whole_trace_findings",
            vec![
                one(0, 0, 0, rd(0)),
                one(1, 0, 1, rd(0)),
                one(2, 0, 2, act(9)),
                one(3, 0, 3, rd(0)),
            ],
            refresh_bound + 10,
        )
        .with_refresh()
        .with_cap(2),
    ]
}

/// SplitMix64: a tiny, dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Issue `cmd` at the earliest legal cycle and record it.
fn issue(ch: &mut Channel, trace: &mut Vec<Cmd>, now: &mut u64, scope: Scope, cmd: CmdKind) {
    let at = ch
        .issue_earliest(scope, cmd, *now)
        .expect("clean stream issues")
        .issue_cycle;
    trace.push((at, scope, cmd));
    *now = at;
}

/// A clean all-bank stream: mode switch, row sweeps of reads and writes,
/// and a refresh between sweeps.
fn clean_allbank(cfg: &HbmConfig, rng: &mut Rng) -> Vec<Cmd> {
    let mut ch = Channel::new(cfg);
    let mut trace = Vec::new();
    let mut now = 0;
    for _ in 0..4 {
        issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Mrs);
    }
    for sweep in 0..4 {
        let row = rng.below(64) as u32;
        issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, act(row));
        for col in 0..(2 + rng.below(5) as u32) {
            let cmd = if rng.below(3) == 0 { wr(col) } else { rd(col) };
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, cmd);
        }
        issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Pre);
        if sweep == 1 {
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Ref);
        }
    }
    trace
}

/// A clean per-bank stream: banks take turns opening a row, moving a few
/// bursts and closing it over the shared bus.
fn clean_perbank(cfg: &HbmConfig, rng: &mut Rng) -> Vec<Cmd> {
    let mut ch = Channel::new(cfg);
    let mut trace = Vec::new();
    let mut now = 0;
    let bpg = cfg.banks_per_group;
    for turn in 0..10 {
        let b = rng.below(cfg.banks_per_channel() as u64) as usize;
        let scope = Scope::OneBank {
            bg: b / bpg,
            ba: b % bpg,
        };
        issue(
            &mut ch,
            &mut trace,
            &mut now,
            scope,
            act(rng.below(64) as u32),
        );
        for col in 0..(1 + rng.below(3) as u32) {
            let cmd = if rng.below(4) == 0 { wr(col) } else { rd(col) };
            issue(&mut ch, &mut trace, &mut now, scope, cmd);
        }
        issue(&mut ch, &mut trace, &mut now, scope, CmdKind::Pre);
        if turn == 6 {
            issue(&mut ch, &mut trace, &mut now, Scope::AllBanks, CmdKind::Ref);
        }
    }
    trace
}

/// Break a clean trace with 1–3 seeded faults: pull a command earlier,
/// drop one, duplicate one, move a one-bank command to another bank, or
/// narrow an all-bank command to a single bank.
fn mutate(cfg: &HbmConfig, trace: &mut Vec<Cmd>, rng: &mut Rng) -> Vec<&'static str> {
    let mut applied = Vec::new();
    for _ in 0..(1 + rng.below(3)) {
        let i = rng.below(trace.len() as u64) as usize;
        match rng.below(5) {
            0 => {
                trace[i].0 = trace[i].0.saturating_sub(1 + rng.below(20));
                applied.push("earlier");
            }
            1 if trace.len() > 2 => {
                trace.remove(i);
                applied.push("drop");
            }
            2 => {
                trace.insert(i, trace[i]);
                applied.push("duplicate");
            }
            3 => {
                let b = rng.below(cfg.banks_per_channel() as u64) as usize;
                if let Scope::OneBank { .. } = trace[i].1 {
                    trace[i].1 = Scope::OneBank {
                        bg: b / cfg.banks_per_group,
                        ba: b % cfg.banks_per_group,
                    };
                    applied.push("retarget");
                } else {
                    trace[i].0 = trace[i].0.saturating_sub(1 + rng.below(4));
                    applied.push("nudge");
                }
            }
            _ => {
                let b = rng.below(cfg.banks_per_channel() as u64) as usize;
                trace[i].1 = Scope::OneBank {
                    bg: b / cfg.banks_per_group,
                    ba: b % cfg.banks_per_group,
                };
                applied.push("narrow");
            }
        }
    }
    applied
}

fn seeded_cases(cfg: &HbmConfig) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in 0..12u64 {
        let mut rng = Rng(0x5eed_0000 + seed);
        let (kind, mut trace) = if seed % 2 == 0 {
            ("allbank", clean_allbank(cfg, &mut rng))
        } else {
            ("perbank", clean_perbank(cfg, &mut rng))
        };
        let applied = mutate(cfg, &mut trace, &mut rng);
        let end = trace.iter().map(|c| c.0).max().unwrap_or(0) + 100;
        let name = format!("seeded_{kind}_{seed}_{}", applied.join("+"));
        let case = Case::new(&name, trace, end);
        // Every third stream is also audited for refresh.
        cases.push(if seed % 3 == 0 {
            case.with_refresh()
        } else {
            case
        });
    }
    cases
}

fn replay(cfg: &HbmConfig, case: &Case, lockstep: bool) -> Verdict {
    let policy = CheckPolicy {
        lockstep,
        expect_refresh: case.expect_refresh,
        max_violations: case.max_violations,
    };
    let mut checker = ProtocolChecker::with_policy(cfg, policy).for_channel(1);
    for &(cycle, scope, cmd) in &case.trace {
        checker.observe(cycle, scope, cmd);
    }
    Verdict {
        name: case.name.clone(),
        policy,
        end_cycle: case.end_cycle,
        report: checker.finish(case.end_cycle),
    }
}

fn verdicts() -> Vec<Verdict> {
    let cfg = HbmConfig::default();
    let mut cases = hand_cases(&cfg);
    cases.extend(seeded_cases(&cfg));
    let mut out = Vec::new();
    for case in &cases {
        for lockstep in [true, false] {
            out.push(replay(&cfg, case, lockstep));
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/checker_verdicts.json")
}

#[test]
fn corpus_exercises_every_rule_and_the_cap() {
    let verdicts = verdicts();
    for rule in ALL_RULES {
        assert!(
            verdicts
                .iter()
                .any(|v| v.report.violations.iter().any(|x| x.rule == rule)),
            "no trace in the corpus breaks {rule}"
        );
    }
    let state = verdicts
        .iter()
        .find(|v| v.name == "allbank_state_errors")
        .expect("state case");
    let banks = HbmConfig::default().banks_per_channel();
    let first_cycle: Vec<_> = state
        .report
        .violations
        .iter()
        .filter(|v| v.cycle == 0 && v.rule == Rule::BankState)
        .collect();
    assert_eq!(
        first_cycle.len(),
        banks,
        "an all-bank RD fires on every bank"
    );
    assert!(verdicts
        .iter()
        .any(|v| v.report.suppressed > 0 && v.policy.lockstep));
    assert!(verdicts
        .iter()
        .any(|v| v.report.suppressed > 0 && !v.policy.lockstep));
}

#[test]
fn checker_verdicts_match_golden() {
    let lines: Vec<String> = verdicts().iter().map(Serialize::to_json).collect();
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let path = golden_path();
    if std::env::var_os("PSIM_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PSIM_BLESS=1",
            path.display()
        )
    });
    if let Some((line, (w, a))) = want
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, a))| w != a)
    {
        panic!(
            "checker verdicts diverged from {} at line {} (rerun with PSIM_BLESS=1 if \
             intentional)\nwant: {w}\ngot:  {a}",
            path.display(),
            line + 1
        );
    }
    assert_eq!(want, actual, "verdict count changed vs {}", path.display());
}
