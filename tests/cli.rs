//! Smoke tests for the `sufs` command-line tool against the bundled
//! hotel scenario.

use std::process::Command;

fn sufs(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sufs"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn verify_reports_the_paper_plans() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/hotel.sufs"]);
    assert!(ok);
    assert!(stdout.contains("== c1 =="));
    assert!(stdout.contains("✓ {r1↦br, r3↦s3}"));
    assert!(stdout.contains("== c2 =="));
    assert!(stdout.contains("✓ {r2↦br, r3↦s4}"));
    assert!(stdout.contains("del!"), "S2's witness is shown");
}

#[test]
fn removed_synthesis_flags_are_rejected() {
    // The enumerative engine is a sequential, uncached reference, and
    // the broker answers only from the product: the old mode knobs are
    // unknown flags now, not silently ignored ones.
    for args in [
        &["verify", "scenarios/hotel.sufs", "--jobs", "2"][..],
        &["verify", "scenarios/hotel.sufs", "--no-cache"][..],
        &["verify", "scenarios/hotel.sufs", "--seed", "9"][..],
        &["verify", "scenarios/hotel.sufs", "--prune"][..],
        &["serve", "--jobs", "2"][..],
        &["serve", "--prune"][..],
        &["plan", "scenarios/hotel.sufs", "--engine", "enumerative"][..],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let (_, stderr, ok) = sufs(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    // The compliance-cut report is what `--engine compositional` prints.
    let (stdout, _, ok) = sufs(&[
        "verify",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--engine",
        "compositional",
    ]);
    assert!(ok);
    assert!(stdout.contains("✓ {r1↦br, r3↦s3}"), "{stdout}");
}

#[test]
fn verify_stats_flag_prints_instrumentation() {
    let (stdout, _, ok) = sufs(&[
        "verify",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--stats",
        "--engine",
        "compositional",
    ]);
    assert!(ok);
    assert!(stdout.contains("synthesis:"), "{stdout}");
    assert!(stdout.contains("subtrees pruned"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");
    // The enumerative reference memoises nothing.
    let (stdout, _, ok) = sufs(&[
        "verify",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--stats",
    ]);
    assert!(ok);
    assert!(stdout.contains("cache off"), "{stdout}");
}

#[test]
fn verify_plan_cap_flag_limits_the_search() {
    let (_, stderr, ok) = sufs(&[
        "verify",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--plan-cap",
        "1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("more than 1 candidate plans"), "{stderr}");
}

#[test]
fn run_uses_the_verified_plan() {
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--runs",
        "20",
        "--committed",
        "--seed",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("using the verified plan {r1↦br, r3↦s3}"));
    assert!(stdout.contains("20 completed"));
    assert!(stdout.contains("unfailing"));
}

#[test]
fn run_with_forced_bad_plan_fails_observably() {
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c2",
        "--plan",
        "r2=br,r3=s2",
        "--runs",
        "100",
        "--committed",
        "--seed",
        "1",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("deadlocked") && !stdout.contains(" 0 deadlocked"),
        "the forced π₂ must deadlock sometimes:\n{stdout}"
    );
}

#[test]
fn single_run_prints_a_trace() {
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--trace",
        "--seed",
        "4",
    ]);
    assert!(ok);
    assert!(stdout.contains("outcome: Completed"));
    assert!(stdout.contains("open r1"));
}

#[test]
fn compliance_command() {
    let (stdout, _, ok) = sufs(&["compliance", "scenarios/hotel.sufs", "s3", "s3"]);
    assert!(ok);
    assert!(stdout.contains("⊢"));
    let (stdout, _, ok) = sufs(&["lts", "scenarios/hotel.sufs", "s3"]);
    assert!(ok);
    assert!(stdout.contains("states"));
    let (stdout, _, ok) = sufs(&["bpa", "scenarios/hotel.sufs", "s1"]);
    assert!(ok);
    assert!(stdout.contains("root:"));
}

/// `sufs lts` prints every client's and service's LTS exactly as pinned
/// in `tests/golden/lts/`: states in breadth-first discovery order,
/// edges in successor order, with and without `--dot`.
#[test]
fn lts_output_matches_the_goldens() {
    for name in ["c1", "c2", "br", "s1", "s2", "s3", "s4"] {
        for (flags, ext) in [(&[][..], "txt"), (&["--dot"][..], "dot")] {
            let args = [&["lts", "scenarios/hotel.sufs", name][..], flags].concat();
            let (stdout, stderr, ok) = sufs(&args);
            assert!(ok, "{args:?}: {stderr}");
            let path = format!(
                "{}/tests/golden/lts/hotel_{name}.{ext}",
                env!("CARGO_MANIFEST_DIR")
            );
            let golden = std::fs::read_to_string(&path).expect("golden exists");
            assert_eq!(stdout, golden, "{args:?} differs from {path}");
        }
    }
}

#[test]
fn verify_net_runs_the_joint_analysis() {
    let (stdout, _, ok) = sufs(&["verify-net", "scenarios/hotel.sufs"]);
    assert!(ok);
    assert!(stdout.contains("c1: using {r1↦br, r3↦s3}"));
    assert!(stdout.contains("c2: using {r2↦br, r3↦s4}"));
    assert!(stdout.contains("no reachable deadlock"));
    assert!(stdout.contains("secure and unfailing"));
}

#[test]
fn discover_lists_matches_with_reasons() {
    let (stdout, _, ok) = sufs(&["discover", "scenarios/hotel.sufs", "c1"]);
    assert!(ok);
    assert!(stdout.contains("request r1"));
    assert!(stdout.contains("✓ br"));
    assert!(stdout.contains("✗ s1"));
    assert!(stdout.contains("req!"));
}

#[test]
fn payment_scenario_has_one_valid_plan() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/payment.sufs"]);
    assert!(ok);
    assert!(stdout.contains("1 valid"));
    assert!(stdout.contains("✓ {r1↦gw_honest, r2↦bank_ext}"));
    assert!(stdout.contains("no_self_audit violated"));
}

#[test]
fn storage_scenario_shows_history_dependence() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/storage.sufs"]);
    assert!(ok);
    // For sync, only read_cache is rejected (no_write_after_read);
    // for the auditor, only the shady mount is rejected (black list).
    assert!(stdout.contains("✗ {r1↦read_cache}"));
    assert!(stdout.contains("✓ {r1↦write_verify}"));
    assert!(stdout.contains("✗ {r2↦shady_mount}"));
    assert!(stdout.contains("✓ {r2↦read_cache}"));
}

#[test]
fn metered_scenario_reports_budgets() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/metered.sufs"]);
    assert!(ok);
    assert!(stdout.contains("within budget (worst case 15)"));
    assert!(stdout.contains("budget exceeded (witnessed cost 45)"));
}

#[test]
fn errors_are_reported() {
    let (_, stderr, ok) = sufs(&["verify", "scenarios/nope.sufs"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr, ok) = sufs(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (stdout, _, ok) = sufs(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage"));
    let (_, stderr, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--plan",
        "r1~br",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad plan binding"));
    let (_, stderr, ok) = sufs(&["verify", "scenarios/hotel.sufs", "--client", "ghost"]);
    assert!(!ok);
    assert!(stderr.contains("no client named"));
    let (_, stderr, ok) = sufs(&["discover", "scenarios/hotel.sufs", "br"]);
    assert!(!ok);
    assert!(stderr.contains("no client named"));
}

#[test]
fn flags_accept_equals_and_reject_unknown() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/hotel.sufs", "--client=c1"]);
    assert!(ok);
    assert!(stdout.contains("== c1 =="));
    assert!(!stdout.contains("== c2 =="));
    let (_, stderr, ok) = sufs(&["verify", "scenarios/hotel.sufs", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["run", "scenarios/hotel.sufs", "--client"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    let (_, stderr, ok) = sufs(&["lts", "scenarios/hotel.sufs", "s3", "--dot=yes"]);
    assert!(!ok);
    assert!(stderr.contains("takes no value"), "{stderr}");
}

#[test]
fn lint_reports_and_gates_the_exit_code() {
    // Hotel: two dead hotels plus four single-point-of-failure notes
    // are info-level; warnings stay deniable.
    let (stdout, _, ok) = sufs(&["lint", "scenarios/hotel.sufs"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 error(s), 0 warning(s), 6 info(s)"));
    assert!(stdout.contains("SUFS010"), "{stdout}");
    let (_, _, ok) = sufs(&["lint", "scenarios/hotel.sufs", "--deny", "warnings"]);
    assert!(ok);
    // The demo scenario has an error: nonzero exit even without --deny.
    let (stdout, _, ok) = sufs(&["lint", "scenarios/lint_demo.sufs"]);
    assert!(!ok, "errors must fail the exit code:\n{stdout}");
    assert!(stdout.contains("SUFS007"));
    let (stdout, _, ok) = sufs(&["lint", "scenarios/lint_demo.sufs", "--json"]);
    assert!(!ok);
    assert!(stdout.starts_with("{\"file\":\"scenarios/lint_demo.sufs\""));
    assert!(stdout.contains("\"summary\":"));
    let (_, stderr, ok) = sufs(&["lint", "scenarios/hotel.sufs", "--deny", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown lint class"), "{stderr}");
}

#[test]
fn lint_cluster_scenario_trips_the_repository_passes() {
    // The cluster demo is clean one client at a time but hazardous as a
    // whole: contention (SUFS006), a deadlocking schedule (SUFS009) and
    // four single points of failure (SUFS010).
    let (stdout, _, ok) = sufs(&["lint", "scenarios/lint_cluster.sufs"]);
    assert!(ok, "warnings alone must not fail the exit code:\n{stdout}");
    assert!(stdout.contains("SUFS006"), "{stdout}");
    assert!(stdout.contains("SUFS009"), "{stdout}");
    assert!(stdout.contains("SUFS010"), "{stdout}");
    assert!(stdout.contains("0 error(s), 3 warning(s), 4 info(s)"));
    let (_, _, ok) = sufs(&["lint", "scenarios/lint_cluster.sufs", "--deny", "warnings"]);
    assert!(!ok, "--deny warnings must reject the cluster demo");
}

#[test]
fn lint_json_witnesses_follow_the_stable_schema() {
    // Every automaton-backed pass must emit a witness trace in the
    // documented shape: an array of non-empty step strings.
    let (stdout, _, _) = sufs(&["lint", "scenarios/lint_cluster.sufs", "--json"]);
    let doc = sufs_broker::json::parse(stdout.trim()).expect("lint --json emits valid JSON");
    assert_eq!(doc.str_field("file"), Some("scenarios/lint_cluster.sufs"));
    let diags = doc
        .get("diagnostics")
        .and_then(sufs_broker::Json::as_arr)
        .expect("diagnostics array");
    assert!(!diags.is_empty());
    for d in diags {
        for key in ["code", "pass", "severity", "subject", "message"] {
            assert!(d.str_field(key).is_some(), "missing `{key}` in {d}");
        }
        assert!(d.u64_field("line").is_some(), "{d}");
        assert!(d.u64_field("column").is_some(), "{d}");
        let code = d.str_field("code").unwrap();
        assert!(code.starts_with("SUFS"), "{code}");
        // The automaton-backed repository passes always carry a trace.
        if ["SUFS006", "SUFS009", "SUFS010"].contains(&code) {
            let witness = d
                .get("witness")
                .and_then(sufs_broker::Json::as_arr)
                .unwrap_or_else(|| panic!("{code} must carry a witness: {d}"));
            assert!(!witness.is_empty());
            assert!(witness
                .iter()
                .all(|w| w.as_str().is_some_and(|s| !s.is_empty())));
        }
    }
    let summary = doc.get("summary").expect("summary object");
    for key in ["errors", "warnings", "infos"] {
        assert!(summary.u64_field(key).is_some(), "missing summary.{key}");
    }
    // Deterministic ordering: two runs render byte-identical JSON.
    let (again, _, _) = sufs(&["lint", "scenarios/lint_cluster.sufs", "--json"]);
    assert_eq!(stdout, again, "lint output must be deterministic");
}

#[test]
fn lint_and_serve_parse_the_new_flags_strictly() {
    // A file and --addr are mutually exclusive for `lint`.
    let (_, stderr, ok) = sufs(&["lint", "scenarios/hotel.sufs", "--addr", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("drop the file argument"), "{stderr}");
    let (_, stderr, ok) = sufs(&["lint", "scenarios/hotel.sufs", "--addr"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    // `serve` validates the deny level before binding a socket.
    let (_, stderr, ok) = sufs(&["serve", "--deny-lint", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown deny level"), "{stderr}");
    let (_, stderr, ok) = sufs(&["serve", "--deny-lint"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    // The flag is declared by `serve` only.
    let (_, stderr, ok) = sufs(&["lint", "scenarios/hotel.sufs", "--deny-lint", "error"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--deny-lint`"), "{stderr}");
}

#[test]
fn serve_parses_election_flags_strictly() {
    // The mode is validated before binding a socket.
    let (_, stderr, ok) = sufs(&["serve", "--election", "raft"]);
    assert!(!ok);
    assert!(stderr.contains("unknown election mode `raft`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["serve", "--election"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    // The timeout is whole milliseconds, and zero is rejected.
    let (_, stderr, ok) = sufs(&["serve", "--election-timeout", "fast"]);
    assert!(!ok);
    assert!(stderr.contains("bad election timeout `fast`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["serve", "--election-timeout", "0"]);
    assert!(!ok);
    assert!(stderr.contains("bad election timeout `0`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["serve", "--election-timeout"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    let (_, stderr, ok) = sufs(&["serve", "--election-seed", "coin"]);
    assert!(!ok);
    assert!(stderr.contains("bad election seed `coin`"), "{stderr}");
    // The flags are declared by `serve` only.
    let (_, stderr, ok) = sufs(&["promote", "--election", "auto"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--election`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["stats", "--election-timeout", "50"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag `--election-timeout`"),
        "{stderr}"
    );
}

#[test]
fn faults_flag_injects_and_reports() {
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--runs",
        "20",
        "--committed",
        "--seed",
        "3",
        "--faults",
        "drop=0.2,seed=5",
    ]);
    assert!(ok);
    assert!(stdout.contains("injecting faults:"), "{stdout}");
    assert!(stdout.contains("20 runs:"));
    assert!(
        stdout.contains("; faults:"),
        "dropped synchs must show in the summary:\n{stdout}"
    );
    // Message loss only delays a verified plan; it never makes it fail.
    assert!(stdout.contains("unfailing"), "{stdout}");
}

#[test]
fn faults_flag_rejects_bad_specs() {
    let (_, stderr, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--faults",
        "flux=0.1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown fault setting"), "{stderr}");
}

#[test]
fn faulty_scenario_recovers_via_the_backup_plan() {
    // No --faults flag: the scenario's own `faults { … }` block arms the
    // injector; --recover builds the fallback chain from the verifier.
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/faulty.sufs",
        "--runs",
        "30",
        "--committed",
        "--seed",
        "9",
        "--recover",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("injecting faults:"), "{stdout}");
    assert!(
        stdout.contains("recovery armed: 2 verified fallback plan(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("30 completed"), "{stdout}");
    assert!(stdout.contains("unfailing"), "{stdout}");
}

#[test]
fn no_subcommand_prints_usage_listing_every_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_sufs"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "bare `sufs` must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for cmd in [
        "verify",
        "verify-net",
        "run",
        "lint",
        "compliance",
        "discover",
        "lts",
        "bpa",
        "serve",
        "promote",
        "publish",
        "plan",
        "run-remote",
        "retract",
        "stats",
        "shutdown",
    ] {
        assert!(
            stderr.contains(&format!("sufs {cmd}")),
            "usage must list `sufs {cmd}`:\n{stderr}"
        );
    }
}

#[test]
fn exit_codes_are_pinned() {
    let code = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sufs"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("binary runs")
            .status
            .code()
    };
    assert_eq!(code(&[]), Some(1));
    assert_eq!(code(&["frobnicate"]), Some(1));
    assert_eq!(code(&["help"]), Some(0));
    assert_eq!(code(&["--help"]), Some(0));
    assert_eq!(code(&["verify", "scenarios/hotel.sufs"]), Some(0));
    assert_eq!(code(&["verify", "scenarios/nope.sufs"]), Some(1));
    assert_eq!(code(&["stats"]), Some(1), "remote commands need --addr");
}

#[test]
fn verify_json_emits_machine_readable_verdicts() {
    let (stdout, _, ok) = sufs(&["verify", "scenarios/hotel.sufs", "--client", "c1", "--json"]);
    assert!(ok);
    assert!(
        stdout.starts_with("{\"schema_version\":1,\"file\":\"scenarios/hotel.sufs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"client\":\"c1\""), "{stdout}");
    assert!(
        stdout.contains("\"valid\":[\"{r1↦br, r3↦s3}\"]"),
        "{stdout}"
    );
    assert!(stdout.contains("\"verdicts\":["), "{stdout}");
    assert!(stdout.contains("\"bindings\":{\"r1\":\"br\""), "{stdout}");
    assert!(stdout.contains("\"stats\":{\"candidates\":9"), "{stdout}");
    // The per-plan quantitative budgets ride along for metered scenarios.
    let (stdout, _, ok) = sufs(&["verify", "scenarios/metered.sufs", "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"budgets\":["), "{stdout}");
    assert!(stdout.contains("within budget (worst case 15)"), "{stdout}");
}

#[test]
fn serve_round_trip_over_the_cli() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sufs"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut lines = BufReader::new(daemon.stdout.take().expect("piped stdout")).lines();
    let banner = lines.next().expect("banner line").expect("banner reads");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_owned();

    let (stdout, stderr, ok) = sufs(&["publish", "scenarios/hotel.sufs", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("published 5 service(s), 1 policy(ies)"),
        "{stdout}"
    );
    let (stdout, _, ok) = sufs(&[
        "plan",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--addr",
        &addr,
    ]);
    assert!(ok);
    assert!(stdout.contains("== c1 (remote) =="), "{stdout}");
    assert!(stdout.contains("✓ {r1↦br, r3↦s3}"), "{stdout}");
    let (stdout, _, ok) = sufs(&["stats", "--addr", &addr]);
    assert!(ok);
    assert!(stdout.contains("\"requests\":"), "{stdout}");
    let (stdout, _, ok) = sufs(&["shutdown", "--addr", &addr]);
    assert!(ok, "{stdout}");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must drain cleanly");
}

#[test]
fn mermaid_flag_emits_a_sequence_diagram() {
    let (stdout, _, ok) = sufs(&[
        "run",
        "scenarios/hotel.sufs",
        "--client",
        "c1",
        "--mermaid",
        "--seed",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("sequenceDiagram"));
    assert!(stdout.contains("c1-->>br: open r1"));
}

#[test]
fn gen_is_deterministic_and_parses_flags_strictly() {
    // `--flag value` and `--flag=value` are interchangeable, and the
    // output is a pure function of the configuration.
    let (a, _, ok) = sufs(&["gen", "--profile", "star", "--services", "6", "--seed", "7"]);
    assert!(ok);
    let (b, _, ok) = sufs(&["gen", "--profile=star", "--services=6", "--seed=7"]);
    assert!(ok);
    assert_eq!(a, b, "flag spellings changed the scenario");
    assert!(
        a.starts_with("// Generated by `sufs gen --profile star"),
        "{a}"
    );
    assert!(a.contains("service hub_a"), "{a}");

    // Unknown flags are rejected, not ignored.
    let (_, stderr, ok) = sufs(&["gen", "--profile", "star", "--sevrices", "6"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--sevrices`"), "{stderr}");

    // Bad values are diagnosed.
    let (_, stderr, ok) = sufs(&["gen", "--profile", "ring"]);
    assert!(!ok);
    assert!(stderr.contains("bad profile `ring`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["gen", "--profile", "star", "--policies", "deny,frmae"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy layer `frmae`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["gen"]);
    assert!(!ok);
    assert!(stderr.contains("needs --profile"), "{stderr}");
}

#[test]
fn replay_parses_flags_strictly_and_reports_failures() {
    let (_, stderr, ok) = sufs(&["replay", "scenarios/runs", "--recird"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--recird`"), "{stderr}");
    let (_, stderr, ok) = sufs(&["replay", "scenarios/runs", "--jobs", "many"]);
    assert!(!ok);
    assert!(stderr.contains("bad job count `many`"), "{stderr}");
    // `--record` is a switch: a value is an error.
    let (_, stderr, ok) = sufs(&["replay", "scenarios/runs", "--record=yes"]);
    assert!(!ok);
    assert!(stderr.contains("takes no value"), "{stderr}");
    // An empty selection is an error, not a silent pass.
    let (_, stderr, ok) = sufs(&["replay", "scenarios/runs", "--filter", "no-such-file"]);
    assert!(!ok);
    assert!(stderr.contains("match `no-such-file`"), "{stderr}");

    // A single legacy golden replays clean through the CLI (in-process
    // legs only: the broker leg is covered by tests/replay.rs and CI).
    let (stdout, stderr, ok) = sufs(&["replay", "scenarios/runs/lint_demo.sufsrun", "--no-broker"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("replayed 1 file(s): 1 passed, 0 failed"),
        "{stdout}"
    );
}
