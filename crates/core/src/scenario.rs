//! Scenario files: a self-contained textual format bundling policies,
//! clients and a service repository, used by the `sufs` command-line
//! tool and handy for tests.
//!
//! ```text
//! // Fig. 1's policy as text. `x0`, `x1`, … name event arguments;
//! // bare identifiers in guards name the policy's formal parameters.
//! policy hotel(bl, p, t) {
//!   start q1;
//!   offending q6;
//!   q1 -- sgn(x0) if x0 in bl     -> q6;
//!   q1 -- sgn(x0) if x0 not_in bl -> q2;
//!   q2 -- p(x0)   if x0 <= p      -> q3;
//!   q2 -- p(x0)   if x0 > p       -> q4;
//!   q4 -- ta(x0)  if x0 >= t      -> q5;
//!   q4 -- ta(x0)  if x0 < t       -> q6;
//! }
//!
//! // Clients and services contain ordinary history-expression syntax.
//! client c1 { open 1 phi hotel({1},45,100) { int[req -> eps] } }
//! service br { ext[req -> eps] }
//! service scarce cap 1 { ext[q -> int[a -> eps]] }   // bounded
//! ```
//!
//! States are declared implicitly by use; `--  * ->` is a wildcard
//! transition on any event; guards combine with `and`, `or`, `not` and
//! parentheses.

use std::collections::BTreeMap;
use std::fmt;

use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_net::{FaultPlan, Repository};
use sufs_policy::{CmpOp, Guard, Operand, PolicyRegistry, UsageBuilder};

/// A position in a scenario source text: byte offset plus 1-based line
/// and column. This is the location type shared by parse errors and
/// lint diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SrcPos {
    /// Byte offset into the source text.
    pub offset: usize,
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// 1-based column number in characters (0 when unknown).
    pub col: usize,
}

impl SrcPos {
    /// The position of the start of the text.
    pub fn start() -> SrcPos {
        SrcPos {
            offset: 0,
            line: 1,
            col: 1,
        }
    }

    /// Computes line and column for a byte offset into `input`.
    pub fn from_offset(input: &str, offset: usize) -> SrcPos {
        let offset = offset.min(input.len());
        let before = &input[..offset];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let col = before[line_start..].chars().count() + 1;
        SrcPos { offset, line, col }
    }
}

impl fmt::Display for SrcPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(f, "byte {}", self.offset)
        }
    }
}

/// Source positions of the declarations of a parsed scenario, keyed by
/// declared name. Scenarios assembled programmatically leave this empty;
/// consumers fall back to [`SrcPos::start`].
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    /// `policy` declarations by policy name.
    pub policies: BTreeMap<String, SrcPos>,
    /// `client` declarations by client name.
    pub clients: BTreeMap<String, SrcPos>,
    /// `service` declarations by location name.
    pub services: BTreeMap<String, SrcPos>,
}

/// A parsed scenario: policies, clients, the repository, and optional
/// quantitative budgets.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// The policy registry with every `policy` definition.
    pub registry: PolicyRegistry,
    /// The named clients, in declaration order.
    pub clients: Vec<(String, Hist)>,
    /// The repository of `service` declarations.
    pub repository: Repository,
    /// Quantitative budgets (`budget` declarations), in order.
    pub budgets: Vec<sufs_policy::cost::CostBound>,
    /// The fault-injection plan (`faults` block), if declared.
    pub faults: Option<FaultPlan>,
    /// Source positions of the declarations, for diagnostics.
    pub spans: SpanTable,
}

impl Scenario {
    /// Finds a client by name.
    pub fn client(&self, name: &str) -> Option<&Hist> {
        self.clients.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// A scenario parse error with a byte offset and, when produced by
/// [`parse_scenario`], a resolved line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Byte offset of the offending token.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending token (0 until located).
    pub line: usize,
    /// 1-based column of the offending token (0 until located).
    pub col: usize,
}

impl ScenarioError {
    fn at(offset: usize, message: impl Into<String>) -> ScenarioError {
        ScenarioError {
            offset,
            message: message.into(),
            line: 0,
            col: 0,
        }
    }

    fn locate(mut self, input: &str) -> ScenarioError {
        let pos = SrcPos::from_offset(input, self.offset);
        self.line = pos.line;
        self.col = pos.col;
        self
    }

    /// The error position as a [`SrcPos`].
    pub fn pos(&self) -> SrcPos {
        SrcPos {
            offset: self.offset,
            line: self.line,
            col: self.col,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "scenario error at line {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(
                f,
                "scenario error at byte {}: {}",
                self.offset, self.message
            )
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parses a scenario file.
///
/// # Errors
///
/// Returns a [`ScenarioError`] on syntax errors, ill-formed embedded
/// history expressions, or ill-formed policy automata.
pub fn parse_scenario(input: &str) -> Result<Scenario, ScenarioError> {
    parse_scenario_inner(input).map_err(|e| e.locate(input))
}

fn parse_scenario_inner(input: &str) -> Result<Scenario, ScenarioError> {
    let mut p = P { input, pos: 0 };
    let mut scenario = Scenario::default();
    loop {
        p.skip_ws();
        if p.pos >= p.input.len() {
            break;
        }
        let kw = p.ident()?;
        let decl_pos = SrcPos::from_offset(input, p.peek_pos());
        match kw.as_str() {
            "policy" => {
                let automaton = parse_policy(&mut p)?;
                scenario
                    .spans
                    .policies
                    .insert(automaton.name().to_owned(), decl_pos);
                scenario.registry.register(automaton);
            }
            "budget" => {
                scenario.budgets.push(parse_budget(&mut p)?);
            }
            "faults" => {
                let plan = parse_faults(&mut p)?;
                scenario.faults = Some(plan);
            }
            "client" => {
                let name = p.ident()?;
                let body = p.braced_block()?;
                let h = parse_hist(body.text).map_err(|e| {
                    ScenarioError::at(
                        body.offset + e.offset,
                        format!("in client {name}: {}", e.message),
                    )
                })?;
                sufs_hexpr::wf::check(&h).map_err(|e| {
                    ScenarioError::at(body.offset, format!("in client {name}: {e}"))
                })?;
                scenario.spans.clients.insert(name.clone(), decl_pos);
                scenario.clients.push((name, h));
            }
            "service" => {
                let name = p.ident()?;
                let cap = if p.eat_kw("cap") {
                    Some(p.nat()?)
                } else {
                    None
                };
                let body = p.braced_block()?;
                let h = parse_hist(body.text).map_err(|e| {
                    ScenarioError::at(
                        body.offset + e.offset,
                        format!("in service {name}: {}", e.message),
                    )
                })?;
                let publish = match cap {
                    Some(c) => {
                        scenario
                            .repository
                            .try_publish_bounded(Location::new(name.clone()), h, c)
                    }
                    None => scenario
                        .repository
                        .try_publish(Location::new(name.clone()), h),
                };
                publish.map_err(|e| ScenarioError::at(body.offset, e.to_string()))?;
                scenario.spans.services.insert(name, decl_pos);
            }
            other => {
                return Err(ScenarioError::at(
                    p.pos,
                    format!(
                        "expected `policy`, `budget`, `client`, `service` or `faults`, \
                         found `{other}`"
                    ),
                ))
            }
        }
    }
    // A budget may attach to a name with no qualitative definition of
    // its own; register a trivially satisfied automaton so framings on
    // that name resolve during validity checking.
    for b in &scenario.budgets {
        if scenario.registry.get(b.policy.name()).is_none() {
            let mut builder = UsageBuilder::new(b.policy.name(), Vec::<String>::new());
            builder.state();
            scenario
                .registry
                .register(builder.build().expect("trivial automaton is well-formed"));
        }
    }
    Ok(scenario)
}

struct Block<'a> {
    text: &'a str,
    offset: usize,
}

struct P<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ScenarioError> {
        Err(ScenarioError::at(self.pos, message))
    }

    /// The position of the next token (whitespace and comments skipped).
    fn peek_pos(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        loop {
            while self.pos < bytes.len() && (bytes[self.pos] as char).is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.input[self.pos..].starts_with("//") {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn ident(&mut self) -> Result<String, ScenarioError> {
        self.skip_ws();
        let bytes = self.input.as_bytes();
        let start = self.pos;
        if self.pos < bytes.len()
            && ((bytes[self.pos] as char).is_ascii_alphabetic() || bytes[self.pos] == b'_')
        {
            while self.pos < bytes.len()
                && ((bytes[self.pos] as char).is_ascii_alphanumeric() || bytes[self.pos] == b'_')
            {
                self.pos += 1;
            }
            Ok(self.input[start..self.pos].to_owned())
        } else {
            self.err("expected identifier")
        }
    }

    fn nat(&mut self) -> Result<usize, ScenarioError> {
        self.skip_ws();
        let bytes = self.input.as_bytes();
        let start = self.pos;
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| ScenarioError::at(start, "number out of range"))
    }

    fn int(&mut self) -> Result<i64, ScenarioError> {
        self.skip_ws();
        let bytes = self.input.as_bytes();
        let start = self.pos;
        if self.pos < bytes.len() && bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && bytes[start] == b'-') {
            return self.err("expected an integer");
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| ScenarioError::at(start, "integer out of range"))
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(kw) {
            let after = self.input[self.pos + kw.len()..].chars().next();
            if after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                return false;
            }
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), ScenarioError> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected `{tok}`"))
        }
    }

    /// Consumes a `{ … }` block with balanced inner braces, returning
    /// the inner text.
    fn braced_block(&mut self) -> Result<Block<'a>, ScenarioError> {
        self.expect("{")?;
        let start = self.pos;
        let bytes = self.input.as_bytes();
        let mut depth = 1usize;
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let text = &self.input[start..i];
                        self.pos = i + 1;
                        return Ok(Block {
                            text,
                            offset: start,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.err("unbalanced `{`")
    }
}

/// Parses a quantitative budget declaration:
///
/// ```text
/// budget <policy-name> {
///   bound 100;
///   charge by_arg 0;     // the event `charge` costs its first argument
///   spend flat 10;       // the event `spend` costs 10 per occurrence
/// }
/// ```
///
/// The policy name refers to a framing/session policy whose activation
/// windows are charged; it need not have a `policy` definition of its
/// own (a budget can attach to a purely qualitative policy, or to a
/// name only used for framing).
fn parse_budget(p: &mut P<'_>) -> Result<sufs_policy::cost::CostBound, ScenarioError> {
    use sufs_policy::cost::{CostBound, CostModel};
    let name = p.ident()?;
    p.expect("{")?;
    let mut model = CostModel::new();
    let mut bound: Option<u64> = None;
    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        let word = p.ident()?;
        if word == "bound" {
            bound = Some(p.nat()? as u64);
            p.expect(";")?;
            continue;
        }
        let kind = p.ident()?;
        match kind.as_str() {
            "flat" => {
                let c = p.nat()? as u64;
                model = model.flat(&word, c);
            }
            "by_arg" => {
                let idx = p.nat()?;
                model = model.by_arg(&word, idx);
            }
            other => {
                return p.err(format!(
                    "expected `flat` or `by_arg` after event `{word}`, found `{other}`"
                ))
            }
        }
        p.expect(";")?;
    }
    let bound =
        bound.ok_or_else(|| ScenarioError::at(p.pos, format!("budget {name} has no `bound`")))?;
    Ok(CostBound {
        policy: sufs_hexpr::PolicyRef::nullary(name),
        model,
        bound,
    })
}

/// Parses a fault-injection block:
///
/// ```text
/// faults {
///   crash 0.01;        // per-step crash probability
///   drop 0.05;         // per-synch message-loss probability
///   revoke 0.002;      // per-step capacity-revocation probability
///   stall 0.02;        // per-step stall probability
///   stall_steps 4;     // how long a stalled service stays frozen
///   max_crashes 1;     // cap on total crashes per run
///   timeout 20;        // blocked-step budget before the first retry
///   retries 2;         // retries (with doubling budget) before giving up
///   seed 7;            // the deterministic fault-schedule seed
/// }
/// ```
///
/// Every setting is optional; rates default to zero, so an empty block
/// arms the timeout machinery without injecting anything. The settings
/// and their validation are shared with the command line's
/// `--faults key=value,…` spec ([`FaultPlan::parse`]).
fn parse_faults(p: &mut P<'_>) -> Result<FaultPlan, ScenarioError> {
    p.expect("{")?;
    let mut spec = String::new();
    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        let key = p.ident()?;
        p.skip_ws();
        let start = p.pos;
        let bytes = p.input.as_bytes();
        while p.pos < bytes.len()
            && (bytes[p.pos].is_ascii_digit() || bytes[p.pos] == b'.' || bytes[p.pos] == b'-')
        {
            p.pos += 1;
        }
        if p.pos == start {
            return p.err(format!("expected a number after `{key}`"));
        }
        let value = &p.input[start..p.pos];
        p.expect(";")?;
        if !spec.is_empty() {
            spec.push(',');
        }
        spec.push_str(&format!("{key}={value}"));
    }
    FaultPlan::parse(&spec).map_err(|e| ScenarioError::at(p.pos, format!("in faults block: {e}")))
}

/// Parses a `policy name(params) { … }` definition into a usage
/// automaton.
fn parse_policy(p: &mut P<'_>) -> Result<sufs_policy::UsageAutomaton, ScenarioError> {
    let name = p.ident()?;
    let mut params = Vec::new();
    if p.eat("(") && !p.eat(")") {
        loop {
            params.push(p.ident()?);
            if !p.eat(",") {
                break;
            }
        }
        p.expect(")")?;
    }
    p.expect("{")?;
    let mut builder = UsageBuilder::new(name, params.clone());
    let mut states: BTreeMap<String, usize> = BTreeMap::new();
    let mut start: Option<String> = None;
    let mut offending: Vec<String> = Vec::new();
    let mut transitions: Vec<(String, Option<String>, Guard, String)> = Vec::new();
    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        let word = p.ident()?;
        match word.as_str() {
            "start" => {
                start = Some(p.ident()?);
                p.expect(";")?;
            }
            "offending" => {
                offending.push(p.ident()?);
                while !p.eat(";") {
                    offending.push(p.ident()?);
                }
            }
            from => {
                let from = from.to_owned();
                p.expect("--")?;
                // event pattern: `*` or `name(x0)` / bare `name`
                let event = if p.eat("*") {
                    None
                } else {
                    let ev = p.ident()?;
                    if p.eat("(") {
                        // argument placeholders are positional; names are
                        // documentation only
                        if !p.eat(")") {
                            loop {
                                p.ident()?;
                                if !p.eat(",") {
                                    break;
                                }
                            }
                            p.expect(")")?;
                        }
                    }
                    Some(ev)
                };
                let guard = if p.eat_kw("if") {
                    parse_guard(p, &params)?
                } else {
                    Guard::True
                };
                p.expect("->")?;
                let to = p.ident()?;
                p.expect(";")?;
                transitions.push((from, event, guard, to));
            }
        }
    }
    // Materialise states in first-mention order: start, then the rest.
    let state_id = |builder: &mut UsageBuilder, states: &mut BTreeMap<String, usize>, n: &str| {
        if let Some(&q) = states.get(n) {
            q
        } else {
            let q = builder.state();
            states.insert(n.to_owned(), q);
            q
        }
    };
    let start_name =
        start.ok_or_else(|| ScenarioError::at(p.pos, "policy has no `start` state"))?;
    let q0 = state_id(&mut builder, &mut states, &start_name);
    builder.start(q0);
    for (from, event, guard, to) in transitions {
        let qf = state_id(&mut builder, &mut states, &from);
        let qt = state_id(&mut builder, &mut states, &to);
        match event {
            Some(ev) => {
                builder.on(qf, ev, guard, qt);
            }
            None => {
                builder.on_any(qf, guard, qt);
            }
        }
    }
    for o in offending {
        let q = state_id(&mut builder, &mut states, &o);
        builder.offending(q);
    }
    builder
        .build()
        .map_err(|e| ScenarioError::at(p.pos, e.to_string()))
}

/// `guard := term (('and'|'or') term)*`, left-associative, `and`/`or`
/// not mixed without parentheses (rejected for clarity).
fn parse_guard(p: &mut P<'_>, params: &[String]) -> Result<Guard, ScenarioError> {
    let first = parse_guard_term(p, params)?;
    let mut acc = first;
    let mut mode: Option<bool> = None; // Some(true)=and, Some(false)=or
    loop {
        let is_and = if p.eat_kw("and") {
            true
        } else if p.eat_kw("or") {
            false
        } else {
            return Ok(acc);
        };
        if let Some(m) = mode {
            if m != is_and {
                return p.err("mixing `and` and `or` requires parentheses");
            }
        }
        mode = Some(is_and);
        let rhs = parse_guard_term(p, params)?;
        acc = if is_and { acc.and(rhs) } else { acc.or(rhs) };
    }
}

fn parse_guard_term(p: &mut P<'_>, params: &[String]) -> Result<Guard, ScenarioError> {
    if p.eat_kw("not") {
        return Ok(parse_guard_term(p, params)?.not());
    }
    if p.eat("(") {
        let g = parse_guard(p, params)?;
        p.expect(")")?;
        return Ok(g);
    }
    // xN <op> operand
    let lhs = p.ident()?;
    let Some(idx) = lhs.strip_prefix('x').and_then(|n| n.parse::<usize>().ok()) else {
        return p.err(format!(
            "guard left-hand side must be an argument placeholder x0, x1, …, found `{lhs}`"
        ));
    };
    p.skip_ws();
    if p.eat_kw("in") {
        let set = p.ident()?;
        return Ok(Guard::InSet(idx, set));
    }
    if p.eat_kw("not_in") {
        let set = p.ident()?;
        return Ok(Guard::NotInSet(idx, set));
    }
    let op = if p.eat("<=") {
        CmpOp::Le
    } else if p.eat(">=") {
        CmpOp::Ge
    } else if p.eat("==") {
        CmpOp::Eq
    } else if p.eat("!=") {
        CmpOp::Ne
    } else if p.eat("<") {
        CmpOp::Lt
    } else if p.eat(">") {
        CmpOp::Gt
    } else {
        return p.err("expected a comparison operator or `in`/`not_in`");
    };
    // operand: integer literal, parameter name, or bare identifier
    // (a string literal).
    p.skip_ws();
    let c = p.input[p.pos..].chars().next();
    let operand = match c {
        Some(c) if c.is_ascii_digit() || c == '-' => Operand::Lit(sufs_hexpr::Value::Int(p.int()?)),
        _ => {
            let name = p.ident()?;
            if params.iter().any(|q| q == &name) {
                Operand::param(name)
            } else {
                Operand::Lit(sufs_hexpr::Value::Str(name))
            }
        }
    };
    Ok(Guard::Cmp(idx, op, operand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::{Event, ParamValue, PolicyRef};

    const HOTEL_SCENARIO: &str = r#"
        // Fig. 1 as text.
        policy hotel(bl, p, t) {
          start q1;
          offending q6;
          q1 -- sgn(x0) if x0 in bl     -> q6;
          q1 -- sgn(x0) if x0 not_in bl -> q2;
          q2 -- p(x0)   if x0 <= p      -> q3;
          q2 -- p(x0)   if x0 > p       -> q4;
          q4 -- ta(x0)  if x0 >= t      -> q5;
          q4 -- ta(x0)  if x0 < t       -> q6;
        }

        client c1 {
          open 1 phi hotel({1},45,100) {
            int[req -> eps]; ext[cobo -> int[pay -> eps] | noav -> eps]
          }
        }

        service br {
          ext[req -> eps];
          open 3 { int[idc -> eps]; ext[bok -> eps | una -> eps] };
          int[cobo -> ext[pay -> eps] | noav -> eps]
        }

        service s3 {
          #sgn(3); #p(90); #ta(100);
          ext[idc -> int[bok -> eps | una -> eps]]
        }
    "#;

    #[test]
    fn parses_the_hotel_scenario() {
        let sc = parse_scenario(HOTEL_SCENARIO).unwrap();
        assert_eq!(sc.clients.len(), 1);
        assert_eq!(sc.repository.len(), 2);
        assert!(sc.client("c1").is_some());
        assert!(sc.client("nope").is_none());
        assert!(sc.registry.get("hotel").is_some());
    }

    #[test]
    fn textual_policy_matches_the_catalog_one() {
        let sc = parse_scenario(HOTEL_SCENARIO).unwrap();
        let phi1 = PolicyRef::new(
            "hotel",
            [
                ParamValue::set([1i64]),
                ParamValue::int(45),
                ParamValue::int(100),
            ],
        );
        let textual = sc.registry.instantiate(&phi1).unwrap();
        let mut catalog_reg = PolicyRegistry::new();
        catalog_reg.register(sufs_policy::catalog::hotel_policy());
        let reference = catalog_reg.instantiate(&phi1).unwrap();

        let traces: Vec<Vec<Event>> = vec![
            vec![Event::new("sgn", [1i64])],
            vec![
                Event::new("sgn", [4i64]),
                Event::new("p", [50i64]),
                Event::new("ta", [90i64]),
            ],
            vec![
                Event::new("sgn", [3i64]),
                Event::new("p", [90i64]),
                Event::new("ta", [100i64]),
            ],
            vec![Event::new("sgn", [2i64]), Event::new("p", [10i64])],
        ];
        for t in traces {
            assert_eq!(
                textual.forbids(t.iter()),
                reference.forbids(t.iter()),
                "disagreement on {t:?}"
            );
        }
    }

    #[test]
    fn scenario_verifies_end_to_end() {
        let sc = parse_scenario(HOTEL_SCENARIO).unwrap();
        let report =
            crate::verify::verify(sc.client("c1").unwrap(), &sc.repository, &sc.registry).unwrap();
        // With only br and s3 published, the single valid plan is
        // {r1↦br, r3↦s3}.
        assert_eq!(report.valid_plans().count(), 1);
    }

    #[test]
    fn budgets_parse_and_check() {
        use sufs_net::symbolic::{symbolic_successors, SymState};
        use sufs_policy::cost::{check_cost_bound_lts, CostVerdict};
        let src = r#"
            budget wallet { bound 20; charge by_arg 0; fee flat 5; }
            client buyer {
              open 1 phi wallet { int[buy -> eps]; ext[done -> eps] }
            }
            service shop { ext[buy -> #fee; #charge(10); int[done -> eps]] }
            service pricey { ext[buy -> #charge(30); int[done -> eps]] }
        "#;
        let sc = parse_scenario(src).unwrap();
        assert_eq!(sc.budgets.len(), 1);
        assert_eq!(sc.budgets[0].bound, 20);
        // The budget-only policy resolves (trivial automaton registered).
        assert!(sc.registry.get("wallet").is_some());
        let client = sc.client("buyer").unwrap().clone();
        let check = |loc: &str| {
            let plan = sufs_net::Plan::new().with(1u32, loc);
            check_cost_bound_lts(
                SymState::initial("client", client.clone()),
                |s| symbolic_successors(s, &plan, &sc.repository),
                &sc.budgets[0],
                1 << 16,
            )
            .unwrap()
        };
        assert_eq!(check("shop"), CostVerdict::Within { worst: 15 });
        assert_eq!(check("pricey"), CostVerdict::Exceeded { witness: Some(30) });
    }

    #[test]
    fn faults_block_parses() {
        let src = r#"
            faults {
              crash 0.01;
              drop 0.05;
              stall 0.1;
              stall_steps 6;
              max_crashes 2;
              timeout 20;
              retries 2;
              seed 7;
            }
            client c { open 1 { int[req -> eps] } }
            service s { ext[req -> eps] }
        "#;
        let sc = parse_scenario(src).unwrap();
        let f = sc.faults.expect("faults block parsed");
        assert_eq!(f.seed, 7);
        assert_eq!(f.stall_steps, 6);
        assert_eq!(f.max_crashes, 2);
        assert_eq!(f.timeout_steps, 20);
        assert_eq!(f.max_retries, 2);
        assert!((f.crash_rate - 0.01).abs() < 1e-12);
        assert!((f.drop_rate - 0.05).abs() < 1e-12);
        assert!((f.stall_rate - 0.1).abs() < 1e-12);
        // An empty block arms the machinery with all-zero rates.
        let sc = parse_scenario("faults { }").unwrap();
        let f = sc.faults.expect("empty faults block parsed");
        assert_eq!(f.crash_rate, 0.0);
    }

    #[test]
    fn faults_block_rejects_bad_settings() {
        let err = parse_scenario("faults { crash 1.5; }").unwrap_err();
        assert!(
            err.message.contains("outside [0, 1]"),
            "got: {}",
            err.message
        );
        let err = parse_scenario("faults { flux 0.1; }").unwrap_err();
        assert!(
            err.message.contains("unknown fault setting"),
            "got: {}",
            err.message
        );
        let err = parse_scenario("faults { crash; }").unwrap_err();
        assert!(
            err.message.contains("expected a number"),
            "got: {}",
            err.message
        );
    }

    #[test]
    fn budget_without_bound_rejected() {
        let err = parse_scenario("budget w { fee flat 1; }").unwrap_err();
        assert!(err.message.contains("no `bound`"));
    }

    #[test]
    fn bounded_services_parse() {
        let sc = parse_scenario("service x cap 2 { ext[a -> eps] }").unwrap();
        assert_eq!(sc.repository.capacity(&Location::new("x")), Some(Some(2)));
    }

    #[test]
    fn wildcard_and_boolean_guards() {
        let src = r#"
            policy strange(limit) {
              start s0;
              offending bad;
              s0 -- * if x0 > limit and x0 < 100 -> bad;
              s0 -- probe(x0) if not (x0 == ok or x0 == fine) -> bad;
            }
        "#;
        let sc = parse_scenario(src).unwrap();
        let inst = sc
            .registry
            .instantiate(&PolicyRef::new("strange", [ParamValue::int(10)]))
            .unwrap();
        assert!(inst.forbids([Event::new("anything", [50i64])].iter()));
        assert!(inst.respects([Event::new("anything", [150i64])].iter()));
        assert!(inst.forbids([Event::new("probe", [sufs_hexpr::Value::str("meh")])].iter()));
        assert!(inst.respects([Event::new("probe", [sufs_hexpr::Value::str("ok")])].iter()));
    }

    #[test]
    fn error_reporting() {
        assert!(parse_scenario("client x {")
            .unwrap_err()
            .to_string()
            .contains("unbalanced"));
        assert!(parse_scenario("widget w { }").is_err());
        assert!(parse_scenario("client c { mu h. h }").is_err()); // parses but…
        let err = parse_scenario("service s { mu h. h }").unwrap_err();
        assert!(err.message.contains("recursion"), "got: {}", err.message);
        let err = parse_scenario("policy p() { offending q; }").unwrap_err();
        assert!(err.message.contains("start"));
        let err = parse_scenario(
            "policy p(a) { start s; s -- e(x0) if x0 in a or x0 > 1 and x0 < 2 -> s; }",
        )
        .unwrap_err();
        assert!(err.message.contains("parentheses"));
    }
}
