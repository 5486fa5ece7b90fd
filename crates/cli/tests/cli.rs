//! End-to-end tests of the `dvdc-sim` binary: spawn the real executable
//! and check exit codes and output.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvdc-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    for invocation in [vec![], vec!["help"]] {
        let out = run(&invocation);
        assert!(out.status.success());
        let text = stdout(&out);
        for cmd in ["plan", "drill", "run", "model", "mttdl"] {
            assert!(text.contains(cmd), "help missing '{cmd}'");
        }
    }
}

#[test]
fn plan_prints_groups_and_balance() {
    let out = run(&[
        "plan",
        "--nodes",
        "4",
        "--vms-per-node",
        "3",
        "--group",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("4 groups"));
    assert!(text.contains("parity on node3"));
    assert!(text.contains("[1, 1, 1, 1]"));
}

#[test]
fn drill_verifies_byte_exact_recovery() {
    let out = run(&[
        "drill",
        "--nodes",
        "6",
        "--vms-per-node",
        "2",
        "--group",
        "3",
        "--parity",
        "2",
        "--kill",
        "0,1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("byte-exact after recovery ✓"));
}

#[test]
fn run_reports_outcome() {
    let out = run(&[
        "run",
        "--job-secs",
        "120",
        "--interval",
        "20",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("completion ratio"));
    assert!(text.contains("checkpoint rounds"));
}

#[test]
fn run_replays_a_trace_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("dvdc_cli_test_trace.csv");
    std::fs::write(&path, "15,0\n45,2,3\n").unwrap();
    let out = run(&[
        "run",
        "--job-secs",
        "90",
        "--interval",
        "10",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("failures          : 2"));
}

#[test]
fn run_exports_a_chrome_trace_and_a_metrics_snapshot() {
    let dir = std::env::temp_dir().join(format!("dvdc_cli_trace_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.json");
    let out = run(&[
        "run",
        "--protocol",
        "dvdc",
        "--nodes",
        "4",
        "--job-secs",
        "120",
        "--interval",
        "20",
        "--seed",
        "42",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let trace = std::fs::read_to_string(&path).expect("trace written");
    assert!(trace.contains("\"traceEvents\""));
    let round = trace
        .find("\"name\": \"round 1\"")
        .expect("a round 1 slice");
    let record = &trace[round..round + trace[round..].find('}').unwrap()];
    assert!(
        record.contains("\"ph\": \"B\""),
        "round 1 opens a B slice: {record}"
    );

    let metrics = std::fs::read_to_string(format!("{}.metrics.json", path.display()))
        .expect("metrics written");
    assert!(metrics.contains("\"counters\"") && metrics.contains("\"histograms\""));
    let key = "\"node.rounds_committed\": ";
    let at = metrics.find(key).expect("rounds committed counter") + key.len();
    let committed: u64 = metrics[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a count");
    assert!(committed > 0, "no committed rounds in {metrics}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn model_prints_both_optima() {
    let out = run(&["model", "--mtbf-hours", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("diskless"));
    assert!(text.contains("disk-full"));
    assert!(text.contains("Daly"));
}

#[test]
fn mttdl_prints_years() {
    let out = run(&["mttdl", "--nodes", "16", "--node-mtbf-days", "30"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("MTTDL, single parity"));
}

#[test]
fn bad_arguments_fail_with_messages() {
    let out = run(&["plan", "--nodes", "four"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--nodes four"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&["drill", "--kill", "99"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no such node"));

    let out = run(&["plan", "--group", "9"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("distinct nodes"));
}
