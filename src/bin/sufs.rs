//! The `sufs` command-line tool: verify, lint and execute scenario files.
//!
//! ```text
//! sufs verify <file> [--client NAME] [--plan-cap N] [--stats] [--json]
//!                    [--engine enumerative|compositional]
//! sufs run <file> [--client NAME] [--plan r=loc,...] [--monitor]
//!                 [--committed] [--seed N] [--runs N] [--fuel N] [--trace]
//! sufs lint <file> [--json] [--deny warnings]
//! sufs lint --addr HOST:PORT [--json] [--deny warnings]
//! sufs compliance <file> <client-service> <server-service>
//! sufs lts <file> <service> [--dot]
//! sufs bpa <file> <service>
//! sufs serve [--addr HOST:PORT] [--max-clients N] [--plan-cap N]
//!            [--fuel N] [--state-dir DIR] [--snapshot-every N]
//!            [--follow HOST:PORT] [--ack local|quorum] [--cluster-size N]
//!            [--deny-lint error|warnings] [--election auto|manual]
//!            [--election-timeout MS] [--election-seed N]
//!            [--advertise HOST:PORT]
//! sufs promote --addr HOST:PORT
//! sufs publish <file> --addr HOST:PORT
//! sufs plan <file> [--client NAME] --addr HOST:PORT
//! sufs run-remote <file> [--client NAME] [...] --addr HOST:PORT
//! sufs retract <location> --addr HOST:PORT
//! sufs stats --addr HOST:PORT
//! sufs shutdown --addr HOST:PORT
//! sufs gen --profile mesh|tree|pipeline|star [--services N] [--seed S]
//!          [--policies deny,frame,cap] [--faults] [--out FILE] [--runfile]
//! sufs gen --corpus DIR [--count N]
//! sufs replay <file|dir> [--record] [--filter SUB] [--jobs N]
//!             [--no-broker] [--diff-out FILE]
//! ```
//!
//! Flags accept both `--flag value` and `--flag=value`; flags a command
//! does not declare are rejected. See `docs/SCENARIOS.md` for the
//! scenario-file format, `docs/LINTS.md` for the lint catalogue, and
//! `docs/BROKER.md` for the broker daemon and its wire protocol; ready
//! scenarios (including the paper's §2 example,
//! `scenarios/hotel.sufs`) live in `scenarios/`.

use std::process::ExitCode;

use sufs_rng::SeedableRng;
use sufs_rng::StdRng;

use sufs_broker::{Broker, BrokerClient, BrokerConfig, Json};
use sufs_contract::{compliant, Contract};
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::verify::verify;
use sufs_hexpr::{Hist, HistLts, Location, RequestId};
use sufs_net::{ChoiceMode, MonitorMode, Network, Plan, Scheduler};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sufs: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "verify" => done(cmd_verify(&args[1..])),
        "verify-net" => done(cmd_verify_net(&args[1..])),
        "run" => done(cmd_run(&args[1..])),
        "lint" => cmd_lint(&args[1..]),
        "compliance" => done(cmd_compliance(&args[1..])),
        "discover" => done(cmd_discover(&args[1..])),
        "lts" => done(cmd_lts(&args[1..])),
        "bpa" => done(cmd_bpa(&args[1..])),
        "serve" => done(cmd_serve(&args[1..])),
        "promote" => done(cmd_promote(&args[1..])),
        "publish" => done(cmd_publish(&args[1..])),
        "plan" => done(cmd_plan(&args[1..])),
        "run-remote" => done(cmd_run_remote(&args[1..])),
        "retract" => done(cmd_retract(&args[1..])),
        "stats" => done(cmd_stats(&args[1..])),
        "shutdown" => done(cmd_shutdown(&args[1..])),
        "gen" => done(cmd_gen(&args[1..])),
        "replay" => done(cmd_replay(&args[1..])),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     sufs verify <file> [--client NAME] [--plan-cap N] \
     [--engine enumerative|compositional] [--stats] [--json]\n  \
     sufs verify-net <file>\n  \
     sufs run <file> [--client NAME] [--plan r=loc,...] [--monitor] \
     [--committed] [--seed N] [--runs N] [--fuel N] [--trace|--mermaid] \
     [--faults k=v,...] [--recover]\n  \
     sufs lint <file> [--json] [--deny warnings]\n  \
     sufs lint --addr HOST:PORT [--json] [--deny warnings]\n  \
     sufs compliance <file> <client-service> <server-service>\n  \
     sufs discover <file> <client> [--request N]\n  \
     sufs lts <file> <service> [--dot]\n  \
     sufs bpa <file> <service>\n  \
     sufs serve [--addr HOST:PORT] [--max-clients N] \
     [--plan-cap N] [--fuel N] [--state-dir DIR] [--snapshot-every N] \
     [--follow HOST:PORT] [--ack local|quorum] [--cluster-size N] \
     [--deny-lint error|warnings] [--election auto|manual] \
     [--election-timeout MS] [--election-seed N] [--advertise HOST:PORT]\n  \
     sufs promote --addr HOST:PORT\n  \
     sufs publish <file> --addr HOST:PORT\n  \
     sufs plan <file> [--client NAME] --addr HOST:PORT\n  \
     sufs run-remote <file> [--client NAME] [--plan r=loc,...] \
     [--faults k=v,...] [--recover] [--committed] [--seed N] [--fuel N] \
     --addr HOST:PORT\n  \
     sufs retract <location> --addr HOST:PORT\n  \
     sufs stats --addr HOST:PORT\n  \
     sufs shutdown --addr HOST:PORT\n  \
     sufs gen --profile mesh|tree|pipeline|star [--services N] [--seed S] \
     [--policies deny,frame,cap] [--faults] [--out FILE] [--runfile]\n  \
     sufs gen --corpus DIR [--count N]\n  \
     sufs replay <file|dir> [--record] [--filter SUB] [--jobs N] \
     [--no-broker] [--diff-out FILE]"
        .to_owned()
}

/// A command line split into positional arguments, `--flag value` /
/// `--flag=value` pairs, and boolean switches.
struct Parsed {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Parsed {
    fn value(&self, flag: &str) -> Option<&str> {
        // Last occurrence wins, as users expect when overriding.
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }
}

/// Parses `args` against the flags the command declares. Value flags
/// accept `--flag value` and `--flag=value`; anything starting with
/// `--` that is not declared is an error rather than silently ignored.
fn parse_args(
    args: &[String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positional: Vec::new(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            parsed.positional.push(arg.clone());
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (rest, None),
        };
        let flag = format!("--{name}");
        if value_flags.contains(&flag.as_str()) {
            let value = match inline {
                Some(v) => v.to_owned(),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("flag `{flag}` needs a value"))?,
            };
            parsed.values.push((flag, value));
        } else if switch_flags.contains(&flag.as_str()) {
            if inline.is_some() {
                return Err(format!("flag `{flag}` takes no value"));
            }
            parsed.switches.push(flag);
        } else {
            return Err(format!("unknown flag `{flag}`\n{}", usage()));
        }
    }
    Ok(parsed)
}

fn load(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_scenario(&text).map_err(|e| format!("{path}: {e}"))
}

fn pick_client<'a>(sc: &'a Scenario, name: Option<&'a str>) -> Result<(&'a str, &'a Hist), String> {
    match name {
        Some(n) => sc
            .client(n)
            .map(|h| (n, h))
            .ok_or_else(|| format!("no client named `{n}`")),
        None => sc
            .clients
            .first()
            .map(|(n, h)| (n.as_str(), h))
            .ok_or_else(|| "the scenario declares no clients".to_owned()),
    }
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &["--client", "--plan-cap", "--engine"],
        &["--stats", "--json"],
    )?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let mut opts = sufs_core::SynthesisOptions::default();
    if let Some(s) = a.value("--plan-cap") {
        opts.plan_cap = s.parse().map_err(|_| format!("bad plan cap `{s}`"))?;
    }
    if let Some(s) = a.value("--engine") {
        opts.engine = sufs_core::Engine::parse(s).ok_or_else(|| {
            format!("bad engine `{s}` (expected `enumerative` or `compositional`)")
        })?;
    }
    let names: Vec<&str> = match a.value("--client") {
        Some(n) => vec![n],
        None => sc.clients.iter().map(|(n, _)| n.as_str()).collect(),
    };
    if names.is_empty() {
        return Err("the scenario declares no clients".into());
    }
    let json = a.has("--json");
    let mut clients_json: Vec<Json> = Vec::new();
    for name in names {
        let client = sc
            .client(name)
            .ok_or_else(|| format!("no client named `{name}`"))?;
        if !json {
            println!("== {name} ==");
        }
        let synthesis = sufs_core::synthesize(client, &sc.repository, &sc.registry, &opts)
            .map_err(|e| e.to_string())?;
        let report = &synthesis.report;
        if !json {
            print!("{report}");
            if a.has("--stats") {
                println!("synthesis: {}", synthesis.stats);
            }
        }
        // Quantitative budgets: check each valid plan against each budget.
        let mut budgets_json: Vec<Json> = Vec::new();
        for plan in report.valid_plans() {
            for budget in &sc.budgets {
                let verdict = sufs_policy::cost::check_cost_bound_lts(
                    sufs_net::symbolic::SymState::initial("client", client.clone()),
                    |s| sufs_net::symbolic::symbolic_successors(s, plan, &sc.repository),
                    budget,
                    1 << 20,
                )
                .map_err(|b| format!("cost analysis exceeded {b} states"))?;
                if json {
                    budgets_json.push(
                        Json::obj()
                            .with("policy", budget.policy.to_string())
                            .with("bound", budget.bound)
                            .with("plan", plan.to_string())
                            .with("verdict", verdict.to_string()),
                    );
                } else {
                    println!(
                        "  budget {} (≤{}) under {plan}: {verdict}",
                        budget.policy, budget.bound
                    );
                }
            }
        }
        if json {
            let verdicts: Vec<Json> = report
                .verdicts()
                .iter()
                .map(sufs_broker::verdict_json)
                .collect();
            let valid: Vec<Json> = report
                .valid_plans()
                .map(|p| Json::str(p.to_string()))
                .collect();
            clients_json.push(
                Json::obj()
                    .with("client", name)
                    .with("valid", valid)
                    .with("verdicts", verdicts)
                    .with("stats", sufs_broker::synth_stats_json(&synthesis.stats))
                    .with("budgets", budgets_json),
            );
        }
    }
    if json {
        let doc = Json::obj()
            .with("schema_version", 1u64)
            .with("file", path.as_str())
            .with("clients", clients_json);
        println!("{doc}");
    }
    Ok(())
}

/// Joint verification of every client at once: pick each client's first
/// individually valid plan, then search the joint state space for
/// capacity deadlocks.
fn cmd_verify_net(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &[], &[])?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    if sc.clients.is_empty() {
        return Err("the scenario declares no clients".into());
    }
    let mut specs = Vec::new();
    for (name, client) in &sc.clients {
        let report = verify(client, &sc.repository, &sc.registry).map_err(|e| e.to_string())?;
        let plan = report
            .valid_plans()
            .next()
            .cloned()
            .ok_or_else(|| format!("client `{name}` has no valid plan"))?;
        println!("{name}: using {plan}");
        specs.push(sufs_core::ClientSpec::new(
            Location::new(name.clone()),
            client.clone(),
            plan,
        ));
    }
    let report = sufs_core::verify_network(&specs, &sc.repository, &sc.registry, 1 << 20)
        .map_err(|e| e.to_string())?;
    match &report.joint_deadlock {
        Some(dl) => println!("joint analysis: {dl}"),
        None => println!("joint analysis: no reachable deadlock"),
    }
    if report.is_valid() {
        println!("the network is secure and unfailing: run it monitor-free.");
    }
    Ok(())
}

/// Runs the multi-pass lint engine over a scenario file, or — with
/// `--addr` and no file — over a broker's live repository. Exits
/// nonzero when errors are found, or when warnings are found under
/// `--deny warnings`.
fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(args, &["--deny", "--addr"], &["--json"])?;
    let deny_warnings = match a.value("--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(format!(
                "unknown lint class `{other}` (only `warnings` can be denied)"
            ))
        }
    };
    if a.value("--addr").is_some() {
        if !a.positional.is_empty() {
            return Err("`sufs lint --addr` lints the broker's live repository; \
                        drop the file argument or the flag"
                .into());
        }
        return cmd_lint_remote(&a, deny_warnings);
    }
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let report = sufs_lint::lint_scenario(&sc).map_err(|e| e.to_string())?;
    if a.has("--json") {
        println!("{}", report.to_json(Some(path)));
    } else {
        println!("{report}");
    }
    let failed = report.errors() > 0 || (deny_warnings && report.warnings() > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `sufs lint --addr`: fetch the broker's incremental lint report. The
/// broker renders each diagnostic with the same serializer the local
/// `--json` mode uses, so the schema cannot drift.
fn cmd_lint_remote(a: &Parsed, deny_warnings: bool) -> Result<ExitCode, String> {
    let mut client = remote_client(a)?;
    let reply = check_reply(client.lint().map_err(|e| e.to_string())?)?;
    let errors = reply.u64_field("errors").unwrap_or(0);
    let warnings = reply.u64_field("warnings").unwrap_or(0);
    let infos = reply.u64_field("infos").unwrap_or(0);
    if a.has("--json") {
        let diagnostics = reply
            .get("diagnostics")
            .cloned()
            .unwrap_or_else(|| Json::Arr(Vec::new()));
        let doc = Json::obj()
            .with("diagnostics", diagnostics)
            .with(
                "summary",
                Json::obj()
                    .with("errors", errors)
                    .with("warnings", warnings)
                    .with("infos", infos),
            )
            .with(
                "incremental",
                Json::obj()
                    .with("passes_run", reply.u64_field("passes_run").unwrap_or(0))
                    .with(
                        "passes_reused",
                        reply.u64_field("passes_reused").unwrap_or(0),
                    ),
            );
        println!("{doc}");
    } else {
        println!("{}", reply.str_field("human").unwrap_or(""));
        println!(
            "incremental: {} pass(es) run, {} reused",
            reply.u64_field("passes_run").unwrap_or(0),
            reply.u64_field("passes_reused").unwrap_or(0),
        );
    }
    let failed = errors > 0 || (deny_warnings && warnings > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn parse_plan(spec: &str) -> Result<Plan, String> {
    let mut plan = Plan::new();
    for binding in spec.split(',').filter(|s| !s.is_empty()) {
        let (r, loc) = binding
            .split_once('=')
            .ok_or_else(|| format!("bad plan binding `{binding}` (want r=loc)"))?;
        let r: u32 = r
            .trim_start_matches('r')
            .parse()
            .map_err(|_| format!("bad request id `{r}`"))?;
        plan.bind(r, loc);
    }
    Ok(plan)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &[
            "--client", "--plan", "--seed", "--runs", "--fuel", "--faults",
        ],
        &[
            "--monitor",
            "--committed",
            "--trace",
            "--mermaid",
            "--recover",
        ],
    )?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let (name, client) = pick_client(&sc, a.value("--client"))?;

    let plan = match a.value("--plan") {
        Some(spec) => parse_plan(spec)?,
        None => {
            let report = verify(client, &sc.repository, &sc.registry).map_err(|e| e.to_string())?;
            let plan = report
                .valid_plans()
                .next()
                .cloned()
                .ok_or_else(|| "no valid plan exists; pass --plan to force one".to_owned())?;
            println!("using the verified plan {plan}");
            plan
        }
    };

    let monitor = if a.has("--monitor") {
        MonitorMode::Enforcing
    } else {
        MonitorMode::Audit
    };
    let choice = if a.has("--committed") {
        ChoiceMode::Committed
    } else {
        ChoiceMode::Angelic
    };
    let seed: u64 = a
        .value("--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let runs: usize = a
        .value("--runs")
        .map(|s| s.parse().map_err(|_| format!("bad runs `{s}`")))
        .transpose()?
        .unwrap_or(1);
    let fuel: usize = a
        .value("--fuel")
        .map(|s| s.parse().map_err(|_| format!("bad fuel `{s}`")))
        .transpose()?
        .unwrap_or(100_000);

    // Fault injection: an explicit --faults spec wins over the
    // scenario's own `faults { … }` block.
    let faults = match a.value("--faults") {
        Some(spec) => Some(sufs_net::FaultPlan::parse(spec)?),
        None => sc.faults.clone(),
    };
    let mut scheduler = Scheduler::new(&sc.repository, &sc.registry, monitor, choice);
    if let Some(f) = faults {
        println!("injecting faults: {f}");
        scheduler = scheduler.with_faults(f);
    }
    if a.has("--recover") {
        let table = sufs_core::recovery::recovery_table(
            std::slice::from_ref(client),
            &sc.repository,
            &sc.registry,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "recovery armed: {} verified fallback plan(s)",
            table.chain(0).len()
        );
        scheduler = scheduler.with_recovery(table);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut network = Network::new();
    network.add_client(Location::new(name), client.clone(), plan);

    if runs == 1 {
        let result = scheduler
            .run(network.clone(), &mut rng, fuel)
            .map_err(|e| e.to_string())?;
        if a.has("--mermaid") {
            println!("{}", sufs_net::trace::render_mermaid(&result.trace));
        } else if a.has("--trace") {
            match sufs_net::trace::render_trace(&network, &result.trace, &sc.repository) {
                Some(rendered) => println!("{rendered}"),
                None => println!("{}", sufs_net::trace::render_actions(&result.trace)),
            }
        } else {
            println!("{}", sufs_net::trace::render_actions(&result.trace));
        }
        println!("outcome: {:?}", result.outcome);
        for e in &result.faults {
            println!("fault {e}");
        }
        for (i, p) in &result.violations {
            println!("component {i} violated {p}");
        }
    } else {
        let summary = scheduler
            .run_batch(&network, runs, &mut rng, fuel)
            .map_err(|e| e.to_string())?;
        println!("{summary}");
        if summary.is_unfailing() {
            println!("unfailing: no deadlocks, no aborts, no violations.");
        }
    }
    Ok(())
}

fn cmd_compliance(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &[], &[])?;
    let [path, x, y] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let ha = service_or_client(&sc, x)?;
    let hb = service_or_client(&sc, y)?;
    let ca = Contract::from_service(&ha).map_err(|e| e.to_string())?;
    let cb = Contract::from_service(&hb).map_err(|e| e.to_string())?;
    println!("{x}! = {ca}");
    println!("{y}! = {cb}");
    let result = compliant(&ca, &cb);
    println!("{x} ⊢ {y}: {result}");
    Ok(())
}

fn service_or_client(sc: &Scenario, name: &str) -> Result<Hist, String> {
    if let Some(h) = sc.repository.get(&Location::new(name)) {
        return Ok(h.clone());
    }
    if let Some(h) = sc.client(name) {
        // For a client, the interesting side is its first request body.
        let reqs = sufs_hexpr::requests::requests(h);
        if let Some(r) = reqs.first() {
            return Ok(r.body.clone());
        }
        return Ok(h.clone());
    }
    Err(format!("no service or client named `{name}`"))
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--request"], &[])?;
    let [path, name] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let client = sc
        .client(name)
        .ok_or_else(|| format!("no client named `{name}`"))?;
    let requests = sufs_hexpr::requests::requests(client);
    if requests.is_empty() {
        return Err(format!("client `{name}` makes no requests"));
    }
    let wanted: Option<u32> = a
        .value("--request")
        .map(|s| s.parse().map_err(|_| format!("bad request id `{s}`")))
        .transpose()?;
    for info in &requests {
        if wanted.is_some_and(|w| w != info.id.index()) {
            continue;
        }
        println!("request {} (conversation: {}):", info.id, info.body);
        let results = sufs_core::discover(&info.body, &sc.repository).map_err(|e| e.to_string())?;
        for c in results {
            if c.matches() {
                println!("  ✓ {}", c.location);
            } else {
                println!("  ✗ {}: {}", c.location, c.rejection.unwrap());
            }
        }
    }
    Ok(())
}

fn cmd_lts(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &[], &["--dot"])?;
    let [path, name] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let h = service_or_client(&sc, name)?;
    let lts = HistLts::build(&h).map_err(|e| e.to_string())?;
    if a.has("--dot") {
        println!("{}", lts.to_dot());
    } else {
        println!("{} states, {} edges", lts.len(), lts.iter_edges().count());
        for (s, l, t) in lts.iter_edges() {
            println!("  q{s} ──{l}──▸ q{t}");
        }
    }
    Ok(())
}

fn cmd_bpa(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &[], &[])?;
    let [path, name] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let h = service_or_client(&sc, name)?;
    let bpa = sufs_hexpr::bpa::BpaSystem::from_hist(&h);
    print!("{bpa}");
    Ok(())
}

/// Starts the broker daemon in the foreground; see `docs/BROKER.md`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &[
            "--addr",
            "--max-clients",
            "--plan-cap",
            "--fuel",
            "--state-dir",
            "--snapshot-every",
            "--follow",
            "--ack",
            "--cluster-size",
            "--deny-lint",
            "--election",
            "--election-timeout",
            "--election-seed",
            "--advertise",
        ],
        &[],
    )?;
    if !a.positional.is_empty() {
        return Err(usage());
    }
    let mut config = BrokerConfig::default();
    if let Some(dir) = a.value("--state-dir") {
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(s) = a.value("--snapshot-every") {
        config.snapshot_every = s
            .parse()
            .map_err(|_| format!("bad snapshot threshold `{s}`"))?;
    }
    if let Some(addr) = a.value("--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(s) = a.value("--max-clients") {
        config.max_clients = s.parse().map_err(|_| format!("bad client cap `{s}`"))?;
    }
    if let Some(s) = a.value("--plan-cap") {
        config.plan_cap = s.parse().map_err(|_| format!("bad plan cap `{s}`"))?;
    }
    if let Some(s) = a.value("--fuel") {
        config.fuel = s.parse().map_err(|_| format!("bad fuel `{s}`"))?;
    }
    if let Some(addr) = a.value("--follow") {
        config.follow = Some(addr.to_owned());
    }
    if let Some(s) = a.value("--ack") {
        config.ack = sufs_broker::AckMode::parse(s)?;
    }
    if let Some(s) = a.value("--cluster-size") {
        config.cluster_size = s.parse().map_err(|_| format!("bad cluster size `{s}`"))?;
    }
    if let Some(s) = a.value("--deny-lint") {
        config.deny_lint = Some(sufs_broker::lint::parse_deny_level(s)?);
    }
    if let Some(s) = a.value("--election") {
        config.election = sufs_broker::ElectionMode::parse(s)?;
    }
    if let Some(s) = a.value("--election-timeout") {
        let ms: u64 = s
            .parse()
            .map_err(|_| format!("bad election timeout `{s}` (want milliseconds)"))?;
        if ms == 0 {
            return Err(format!("bad election timeout `{s}` (want milliseconds)"));
        }
        config.election_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(s) = a.value("--election-seed") {
        config.election_seed = s.parse().map_err(|_| format!("bad election seed `{s}`"))?;
    }
    if let Some(addr) = a.value("--advertise") {
        config.advertise = Some(addr.to_owned());
    }
    let handle = Broker::spawn(config).map_err(|e| format!("cannot start broker: {e}"))?;
    println!("sufs broker listening on {}", handle.addr());
    // Serve until a `shutdown` request drains the daemon.
    handle.wait();
    println!("sufs broker drained");
    Ok(())
}

/// Promotes a following broker to primary; see `docs/BROKER.md`.
fn cmd_promote(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr"], &[])?;
    if !a.positional.is_empty() {
        return Err(usage());
    }
    let mut client = remote_client(&a)?;
    let reply = check_reply(client.promote().map_err(|e| e.to_string())?)?;
    if reply.bool_field("changed") == Some(true) {
        println!(
            "broker promoted to primary at seq {}",
            reply.u64_field("applied_seq").unwrap_or(0)
        );
    } else {
        println!("broker is already the primary");
    }
    Ok(())
}

/// The `--addr` every remote command requires. A comma-separated list
/// (`--addr a:1,b:2`) connects to the first reachable node and rotates
/// through the rest on redial — the client side of broker failover.
fn remote_client(a: &Parsed) -> Result<BrokerClient, String> {
    let addr = a
        .value("--addr")
        .ok_or_else(|| "remote commands need --addr HOST:PORT".to_owned())?;
    let addrs: Vec<String> = addr
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    let client =
        BrokerClient::connect_any(&addrs).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if addrs.len() > 1 {
        Ok(client.with_reconnect(sufs_broker::ReconnectPolicy::default().with_addrs(addrs)))
    } else {
        Ok(client)
    }
}

/// Prints a reply, failing the command when the broker said `ok: false`.
fn check_reply(reply: Json) -> Result<Json, String> {
    if reply.bool_field("ok") == Some(true) {
        Ok(reply)
    } else {
        let kind = reply.str_field("kind").unwrap_or("error");
        let msg = reply.str_field("error").unwrap_or("unknown broker error");
        Err(format!("broker refused ({kind}): {msg}"))
    }
}

/// Publishes every service and policy of a scenario file to a broker.
fn cmd_publish(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr"], &[])?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut client = remote_client(&a)?;
    let reply = check_reply(client.publish_scenario(&text).map_err(|e| e.to_string())?)?;
    println!(
        "published {} service(s), {} policy(ies)",
        reply.u64_field("services").unwrap_or(0),
        reply.u64_field("policies").unwrap_or(0),
    );
    Ok(())
}

/// Asks a broker to synthesize plans for a scenario's client.
fn cmd_plan(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr", "--client"], &[])?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let (name, hist) = pick_client(&sc, a.value("--client"))?;
    let mut client = remote_client(&a)?;
    let reply = check_reply(client.plan(&hist.to_string()).map_err(|e| e.to_string())?)?;
    println!("== {name} (remote) ==");
    let verdicts = reply.get("verdicts").and_then(Json::as_arr).unwrap_or(&[]);
    let valid = reply.get("valid").and_then(Json::as_arr).unwrap_or(&[]);
    println!(
        "examined {} candidate plan(s): {} valid, {} rejected",
        verdicts.len(),
        valid.len(),
        verdicts.len() - valid.len()
    );
    for v in verdicts {
        let plan = v.str_field("plan").unwrap_or("?");
        if v.bool_field("valid") == Some(true) {
            println!("  ✓ {plan}");
        } else {
            println!("  ✗ {plan}");
            for violation in v.get("violations").and_then(Json::as_arr).unwrap_or(&[]) {
                if let Some(msg) = violation.as_str() {
                    println!("      - {msg}");
                }
            }
        }
    }
    if let Some(stats) = reply.get("stats") {
        println!("synthesis: {stats}");
    }
    Ok(())
}

/// Executes a scenario's client on a broker's live repository.
fn cmd_run_remote(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &[
            "--addr", "--client", "--plan", "--faults", "--seed", "--fuel",
        ],
        &["--recover", "--committed", "--monitor"],
    )?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let sc = load(path)?;
    let (name, hist) = pick_client(&sc, a.value("--client"))?;
    let mut extra = Json::obj();
    if let Some(spec) = a.value("--plan") {
        extra.set("plan", spec);
    }
    if let Some(spec) = a.value("--faults") {
        extra.set("faults", spec);
    }
    if let Some(s) = a.value("--seed") {
        let seed: u64 = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
        extra.set("seed", seed);
    }
    if let Some(s) = a.value("--fuel") {
        let fuel: u64 = s.parse().map_err(|_| format!("bad fuel `{s}`"))?;
        extra.set("fuel", fuel);
    }
    if a.has("--recover") {
        extra.set("recover", true);
    }
    if a.has("--committed") {
        extra.set("committed", true);
    }
    if a.has("--monitor") {
        extra.set("monitor", true);
    }
    let mut client = remote_client(&a)?;
    let reply = check_reply(
        client
            .run(&hist.to_string(), extra)
            .map_err(|e| e.to_string())?,
    )?;
    println!(
        "{name} under {}: {} ({} steps, {} fault(s), {} violation(s))",
        reply.str_field("plan").unwrap_or("?"),
        reply.str_field("outcome").unwrap_or("?"),
        reply.u64_field("steps").unwrap_or(0),
        reply.u64_field("faults").unwrap_or(0),
        reply.u64_field("violations").unwrap_or(0),
    );
    Ok(())
}

/// Retracts a service from a broker's repository.
fn cmd_retract(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr"], &[])?;
    let [location] = a.positional.as_slice() else {
        return Err(usage());
    };
    let mut client = remote_client(&a)?;
    let reply = check_reply(client.retract(location).map_err(|e| e.to_string())?)?;
    println!("{}", reply.str_field("event").unwrap_or("?"));
    Ok(())
}

/// Prints a broker's stats reply as JSON.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr"], &[])?;
    if !a.positional.is_empty() {
        return Err(usage());
    }
    let mut client = remote_client(&a)?;
    let reply = check_reply(client.stats().map_err(|e| e.to_string())?)?;
    println!("{reply}");
    Ok(())
}

/// Asks a broker to drain and exit.
fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let a = parse_args(args, &["--addr"], &[])?;
    if !a.positional.is_empty() {
        return Err(usage());
    }
    let mut client = remote_client(&a)?;
    check_reply(client.shutdown().map_err(|e| e.to_string())?)?;
    println!("broker draining");
    Ok(())
}

/// Generates a seeded scenario (or, with `--corpus`, the full standard
/// corpus plus run-file skeletons).
fn cmd_gen(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &[
            "--profile",
            "--services",
            "--seed",
            "--policies",
            "--out",
            "--corpus",
            "--count",
        ],
        &["--faults", "--runfile"],
    )?;
    if !a.positional.is_empty() {
        return Err(usage());
    }

    if let Some(dir) = a.value("--corpus") {
        let count: u64 = a
            .value("--count")
            .map(|s| s.parse().map_err(|_| format!("bad count `{s}`")))
            .transpose()?
            .unwrap_or(130);
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut written = 0usize;
        for profile in sufs_corpus::PROFILES {
            for i in 0..count {
                let cfg = sufs_corpus::corpus_config(profile, i);
                let generated = sufs_corpus::generate(&cfg);
                let stem = format!("{profile}_{i:04}");
                let scenario_path = dir.join(format!("{stem}.sufs"));
                std::fs::write(&scenario_path, &generated.scenario)
                    .map_err(|e| format!("cannot write {}: {e}", scenario_path.display()))?;
                let runfile = sufs_corpus::runfile::skeleton(
                    &format!("{stem}.sufs"),
                    &generated,
                    &cfg.command_line(),
                    cfg.seed,
                );
                let run_path = dir.join(format!("{stem}.sufsrun"));
                std::fs::write(&run_path, runfile.serialize())
                    .map_err(|e| format!("cannot write {}: {e}", run_path.display()))?;
                written += 1;
            }
        }
        println!(
            "wrote {written} scenario(s) with run files under {} ({} per profile)",
            dir.display(),
            count
        );
        return Ok(());
    }

    let profile = match a.value("--profile") {
        Some(s) => sufs_corpus::Profile::parse(s)
            .ok_or_else(|| format!("bad profile `{s}` (expected mesh|tree|pipeline|star)"))?,
        None => return Err("`sufs gen` needs --profile (or --corpus DIR)".to_owned()),
    };
    let services: usize = a
        .value("--services")
        .map(|s| s.parse().map_err(|_| format!("bad service count `{s}`")))
        .transpose()?
        .unwrap_or(4);
    let seed: u64 = a
        .value("--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let policies = sufs_corpus::PolicyMix::parse(a.value("--policies").unwrap_or(""))?;
    let cfg = sufs_corpus::GenConfig {
        seed,
        services,
        profile,
        faults: a.has("--faults"),
        policies,
    };
    let generated = sufs_corpus::generate(&cfg);

    match a.value("--out") {
        None => {
            if a.has("--runfile") {
                return Err(
                    "`--runfile` needs `--out` (the run file is written next to it)".to_owned(),
                );
            }
            print!("{}", generated.scenario);
        }
        Some(out) => {
            let out = std::path::Path::new(out);
            std::fs::write(out, &generated.scenario)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            println!(
                "wrote {} ({} service(s), {} client(s))",
                out.display(),
                generated.services,
                generated.clients.len()
            );
            if a.has("--runfile") {
                let scenario_rel = out
                    .file_name()
                    .and_then(|n| n.to_str())
                    .ok_or_else(|| format!("bad output path {}", out.display()))?;
                let runfile = sufs_corpus::runfile::skeleton(
                    scenario_rel,
                    &generated,
                    &cfg.command_line(),
                    cfg.seed,
                );
                let run_path = out.with_extension("sufsrun");
                std::fs::write(&run_path, runfile.serialize())
                    .map_err(|e| format!("cannot write {}: {e}", run_path.display()))?;
                println!(
                    "wrote {} (record with `sufs replay --record`)",
                    run_path.display()
                );
            }
        }
    }
    Ok(())
}

/// Replays `.sufsrun` conformance files (or records their transcripts).
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let a = parse_args(
        args,
        &["--filter", "--jobs", "--diff-out"],
        &["--record", "--no-broker"],
    )?;
    let [path] = a.positional.as_slice() else {
        return Err(usage());
    };
    let jobs: usize = match a.value("--jobs") {
        Some(s) => {
            let n: usize = s.parse().map_err(|_| format!("bad job count `{s}`"))?;
            if n == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                n
            }
        }
        None => 1,
    };
    let opts = sufs_corpus::ReplayOptions {
        record: a.has("--record"),
        no_broker: a.has("--no-broker"),
        filter: a.value("--filter").map(str::to_owned),
        jobs,
    };
    let summary = sufs_corpus::replay_path(std::path::Path::new(path), &opts)?;
    for file in &summary.files {
        if !file.passed() {
            println!("FAIL {}", file.path.display());
            for failure in &file.failures {
                println!("  {failure}");
            }
        }
    }
    if let Some(out) = a.value("--diff-out") {
        if summary.failed() > 0 {
            std::fs::write(out, summary.diff_report())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("transcript diff written to {out}");
        }
    }
    let updated = if opts.record {
        format!(", {} recorded", summary.updated())
    } else {
        String::new()
    };
    println!(
        "replayed {} file(s): {} passed, {} failed ({} step(s){updated})",
        summary.files.len(),
        summary.passed(),
        summary.failed(),
        summary.steps()
    );
    if summary.failed() > 0 {
        return Err(format!("{} run file(s) failed", summary.failed()));
    }
    Ok(())
}

// Silence the unused warning for RequestId, kept for plan parsing docs.
#[allow(dead_code)]
fn _types(_: RequestId) {}
