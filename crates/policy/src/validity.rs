//! Static validity model checking (§3.1).
//!
//! Validity of history expressions is non-regular because framings nest;
//! the paper follows \[5,4\] and regularises it by tracking openings in a
//! stack-like fashion. Here the same idea is implemented by running, in
//! product with the transition system under analysis, one automaton per
//! policy instance together with its **activation depth**: a product
//! state is *bad* iff some instance is in an offending state while its
//! depth is positive. Since the expression's LTS is finite and framings
//! are well nested (depths are bounded by the syntactic nesting), the
//! product is finite and validity is a plain safety/reachability check.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::ops::ControlFlow;

use crate::instance::PolicyInstance;
use crate::registry::{PolicyError, PolicyRegistry};
use sufs_hexpr::{Event, Label, Lts, PolicyRef};

/// A security violation found by the model checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityViolation {
    /// The violated policy instance.
    pub policy: PolicyRef,
    /// A shortest label path from the initial state to the violation.
    pub witness: Vec<Label>,
}

impl fmt::Display for SecurityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy {} violated after [", self.policy)?;
        for (i, l) in self.witness.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

/// The outcome of validity checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable history is valid.
    Valid,
    /// Some reachable history violates an active policy.
    Violation(SecurityViolation),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }
}

/// An error preventing the check from running at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityError {
    /// A policy reference could not be resolved.
    Policy(PolicyError),
    /// The product state space exceeded the bound.
    BoundExceeded(usize),
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::Policy(e) => write!(f, "{e}"),
            ValidityError::BoundExceeded(b) => {
                write!(f, "validity product exceeded {b} states")
            }
        }
    }
}

impl std::error::Error for ValidityError {}

impl From<PolicyError> for ValidityError {
    fn from(e: PolicyError) -> Self {
        ValidityError::Policy(e)
    }
}

/// Per-policy-instance tracking inside a product state: the automaton
/// state set (fed every event from the very beginning — history
/// dependence) and the activation depth (the multiset `AP`).
type Tracks = Vec<(BTreeSet<usize>, usize)>;

/// Model-checks validity of the transition system rooted at `initial`
/// with successor function `succ`, under the policies of `registry`:
/// the system is explored ([`Lts::explore`]), its policies are read off
/// its labels ([`GraphLabels::of`]) and [`check_explored`] walks the
/// product.
///
/// Labels are interpreted as follows: events feed every policy
/// automaton; `⌞φ` / `open_{r,φ}` increment the depth of `φ`;
/// `⌟φ` / `close_{r,φ}` decrement it; everything else is silent.
///
/// # Errors
///
/// Returns [`ValidityError::Policy`] if a mentioned policy is unknown or
/// ill-instantiated, and [`ValidityError::BoundExceeded`] if more than
/// `bound` states of the system, or of the product before its first bad
/// state, are reachable.
///
/// # Examples
///
/// ```
/// use sufs_hexpr::{parse_hist, semantics::successors};
/// use sufs_policy::{catalog, registry::PolicyRegistry, validity::check_validity};
///
/// let mut reg = PolicyRegistry::new();
/// reg.register(catalog::no_after("read", "write"));
///
/// let bad = parse_hist("frame no_write_after_read [ #read; #write ]").unwrap();
/// let verdict = check_validity(bad, |h| successors(h), &reg, 10_000).unwrap();
/// assert!(!verdict.is_valid());
/// ```
pub fn check_validity<K, F>(
    initial: K,
    succ: F,
    registry: &PolicyRegistry,
    bound: usize,
) -> Result<Verdict, ValidityError>
where
    K: Eq + Hash,
    F: FnMut(&K) -> Vec<(Label, K)>,
{
    let graph =
        Lts::explore(initial, bound, succ).map_err(|e| ValidityError::BoundExceeded(e.bound))?;
    check_explored(&graph, &GraphLabels::of(&graph).policies, registry, bound)
}

/// What one pass over the labels of an explored transition system
/// finds: the policies its edges mention, in breadth-first order of
/// first occurrence (the instance order [`check_validity`] uses), and
/// the distinct events its edges fire, sorted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphLabels {
    /// Every policy reference on a framing or session label.
    pub policies: Vec<PolicyRef>,
    /// Every event label.
    pub events: Vec<Event>,
}

impl GraphLabels {
    /// Scans every edge of `graph` once, in state-id order. [`Lts`] ids
    /// are breadth-first discovery order, so the policies come out in
    /// the order a breadth-first walk of the graph meets them.
    pub fn of<K>(graph: &Lts<K, Label>) -> GraphLabels {
        let mut policies: Vec<&PolicyRef> = Vec::new();
        let mut events: BTreeSet<&Event> = BTreeSet::new();
        for (_, label, _) in graph.iter_edges() {
            if let Label::Ev(e) = label {
                events.insert(e);
            } else if let Some(p) = policy_of(label) {
                if !policies.contains(&p) {
                    policies.push(p);
                }
            }
        }
        GraphLabels {
            policies: policies.into_iter().cloned().collect(),
            events: events.into_iter().cloned().collect(),
        }
    }
}

/// [`check_validity`] over an already explored transition system,
/// reading its edges by reference. `policies` are the graph's
/// [`GraphLabels::policies`]; the verdict and its witness are those
/// `check_validity` returns from the graph's initial state.
///
/// The product of the graph with one track per policy instance is
/// searched breadth first and the search stops at the first edge into
/// a bad product state, which is never stored: its witness is the
/// breadth-first path to the edge's source followed by the edge.
///
/// # Errors
///
/// As [`check_validity`].
pub fn check_explored<K>(
    graph: &Lts<K, Label>,
    policies: &[PolicyRef],
    registry: &PolicyRegistry,
    bound: usize,
) -> Result<Verdict, ValidityError> {
    let instances = policies
        .iter()
        .map(|p| registry.instantiate(p))
        .collect::<Result<Vec<_>, _>>()?;
    let tracks: Tracks = instances.iter().map(|i| (i.initial(), 0)).collect();
    let (product, bad) = Lts::search((graph.initial(), tracks), bound, |(id, tracks), out| {
        for (label, to) in graph.edges(*id) {
            let mut t2 = tracks.clone();
            apply_label(label, &instances, &mut t2);
            let offended = t2
                .iter()
                .zip(&instances)
                .position(|((set, depth), inst)| *depth > 0 && inst.offends(set));
            if let Some(pos) = offended {
                return ControlFlow::Break((pos, label));
            }
            out.push((label, (*to, t2)));
        }
        ControlFlow::Continue(())
    })
    .map_err(|e| ValidityError::BoundExceeded(e.bound))?;
    Ok(match bad {
        None => Verdict::Valid,
        Some((at, (pos, label))) => {
            let mut witness: Vec<Label> = product.path_to(at).into_iter().cloned().collect();
            witness.push(label.clone());
            Verdict::Violation(SecurityViolation {
                policy: instances[pos].reference().clone(),
                witness,
            })
        }
    })
}

fn policy_of(label: &Label) -> Option<&PolicyRef> {
    match label {
        Label::FrameOpen(p) | Label::FrameClose(p) => Some(p),
        Label::Open(_, Some(p)) | Label::Close(_, Some(p)) => Some(p),
        _ => None,
    }
}

fn apply_label(label: &Label, instances: &[PolicyInstance], tracks: &mut Tracks) {
    match label {
        Label::Ev(e) => {
            for (i, (set, _)) in tracks.iter_mut().enumerate() {
                *set = instances[i].step(set, e);
            }
        }
        Label::FrameOpen(p) | Label::Open(_, Some(p)) => {
            if let Some(i) = instances.iter().position(|inst| inst.reference() == p) {
                tracks[i].1 += 1;
            }
        }
        Label::FrameClose(p) | Label::Close(_, Some(p)) => {
            if let Some(i) = instances.iter().position(|inst| inst.reference() == p) {
                tracks[i].1 = tracks[i].1.saturating_sub(1);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use sufs_hexpr::semantics::successors;
    use sufs_hexpr::{parse_hist, Hist, HistLts};

    fn reg() -> PolicyRegistry {
        let mut r = PolicyRegistry::new();
        r.register(catalog::no_after("read", "write"));
        r.register(catalog::at_most("tick", 1));
        r
    }

    /// The verdict of `src`, which the explored-graph entry point must
    /// reproduce, witness included.
    fn check(src: &str) -> Verdict {
        let h = parse_hist(src).unwrap();
        let verdict = check_validity(h.clone(), |x: &Hist| successors(x), &reg(), 100_000).unwrap();
        let graph = HistLts::build(&h).unwrap();
        let labels = GraphLabels::of(&graph);
        let explored = check_explored(&graph, &labels.policies, &reg(), 100_000).unwrap();
        assert_eq!(explored, verdict, "{src}");
        verdict
    }

    #[test]
    fn graph_labels_collect_policies_and_events_in_one_pass() {
        let h = parse_hist(
            "#b; frame at_most_1_tick [ #tick; open 1 phi no_write_after_read { int[a -> #a] } ]",
        )
        .unwrap();
        let labels = GraphLabels::of(&HistLts::build(&h).unwrap());
        assert_eq!(
            labels.policies,
            [
                PolicyRef::nullary("at_most_1_tick"),
                PolicyRef::nullary("no_write_after_read")
            ]
        );
        let names: Vec<String> = labels.events.iter().map(|e| e.to_string()).collect();
        assert_eq!(names, ["#a", "#b", "#tick"]);
    }

    #[test]
    fn framed_violation_found_with_witness() {
        let v = check("frame no_write_after_read [ #read; #write ]");
        match v {
            Verdict::Violation(sv) => {
                assert_eq!(sv.policy, PolicyRef::nullary("no_write_after_read"));
                assert_eq!(sv.witness.len(), 3); // ⌞φ, #read, #write
                assert!(sv.to_string().contains("no_write_after_read"));
            }
            Verdict::Valid => panic!("expected a violation"),
        }
    }

    #[test]
    fn violation_outside_framing_is_ok() {
        // write then read inside the frame: harmless order.
        assert!(check("frame no_write_after_read [ #write; #read ]").is_valid());
        // read-write entirely before the framing opens is a violation of
        // history dependence once the framing *does* open:
        assert!(!check("#read; #write; frame no_write_after_read [ #noop ]").is_valid());
        // but closing the frame before the write is fine:
        assert!(check("frame no_write_after_read [ #read ]; #write").is_valid());
    }

    #[test]
    fn branch_sensitive_checking() {
        // Only one branch violates: angelic semantics would avoid it, but
        // validity of the expression requires *all* histories valid.
        let v = check("frame no_write_after_read [ #read; ext[safe -> eps | risky -> #write] ]");
        assert!(!v.is_valid());
        let v = check("frame no_write_after_read [ #read; ext[safe -> eps | risky -> #noop] ]");
        assert!(v.is_valid());
    }

    #[test]
    fn recursion_with_bounded_policy() {
        // A loop firing `tick` twice violates at_most_1_tick.
        let v = check("frame at_most_1_tick [ mu h. int[go -> #tick; h | stop -> eps] ]");
        assert!(!v.is_valid());
        // One tick is fine.
        let v = check("frame at_most_1_tick [ int[go -> #tick; int[stop -> eps]] ]");
        assert!(v.is_valid());
    }

    #[test]
    fn open_with_policy_activates_it() {
        // open r phi φ { … } activates φ for the session body.
        let v = check("open 1 phi no_write_after_read { int[a -> #read; #write] }");
        assert!(!v.is_valid());
        let v = check("open 1 phi no_write_after_read { int[a -> #write; #read] }");
        assert!(v.is_valid());
        // Without the policy the same body is unconstrained.
        let v = check("open 1 { int[a -> #read; #write] }");
        assert!(v.is_valid());
    }

    #[test]
    fn nested_framings_multiset_depth() {
        // φ⟦ φ⟦ ε ⟧ · read · write ⟧: after the inner close φ is still
        // active (depth 1), so the violation is caught.
        let v = check(
            "frame no_write_after_read [ frame no_write_after_read [ #noop ]; #read; #write ]",
        );
        assert!(!v.is_valid());
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let h = parse_hist("frame ghost [ #a ]").unwrap();
        let err = check_validity(h, |x: &Hist| successors(x), &reg(), 1000).unwrap_err();
        assert!(matches!(err, ValidityError::Policy(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn bound_exceeded_reported() {
        let h = parse_hist("frame no_write_after_read [ #a; #b; #c; #d ]").unwrap();
        let err = check_validity(h, |x: &Hist| successors(x), &reg(), 2).unwrap_err();
        assert!(matches!(err, ValidityError::BoundExceeded(2)));
    }

    #[test]
    fn valid_expression_with_no_policies() {
        assert!(check("#read; #write; #read").is_valid());
    }
}
