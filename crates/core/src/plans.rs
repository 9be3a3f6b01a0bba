//! Plan enumeration: all ways of binding the requests of a composed
//! service to repository locations.
//!
//! Serving a client request may expose further requests (the selected
//! service opens its own sessions, as the broker does in §2), so
//! enumeration closes over newly exposed requests: a plan is *complete*
//! when every request reachable through its own bindings is bound.
//!
//! The search is organised around search nodes (a partial plan plus the
//! queue of requests still to bind) walked depth-first by an explicit
//! stack, so deep request chains cost O(n) queue work instead of the
//! former `Vec::remove(0)` quadratic shuffle, and a *prune* hook can cut
//! a whole subtree the moment a single binding is known bad — the
//! compliance cut shared by the pruned reference (`verify::synthesize`)
//! and the composed product. Distinct plans are deduplicated **during**
//! enumeration, so duplicates can never count toward the
//! [`PlanSpaceExceeded`] cap.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use sufs_hexpr::requests::requests;
use sufs_hexpr::{Hist, Location, RequestId};
use sufs_net::{Plan, Repository};

/// An error raised when the plan space is too large to enumerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpaceExceeded {
    /// The configured cap.
    pub cap: usize,
}

impl fmt::Display for PlanSpaceExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "more than {} candidate plans", self.cap)
    }
}

impl std::error::Error for PlanSpaceExceeded {}

/// The default cap on enumerated plans.
pub const DEFAULT_PLAN_CAP: usize = 100_000;

/// A node of the plan search tree: a partial plan plus the requests
/// still waiting for a binding, in discovery order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SearchNode {
    /// The bindings committed so far.
    plan: Plan,
    /// Requests not yet bound (front = next to bind).
    pending: VecDeque<RequestId>,
}

impl SearchNode {
    /// The root node for `client`: an empty plan over its requests.
    fn root(client: &Hist) -> SearchNode {
        SearchNode {
            plan: Plan::new(),
            pending: requests(client).into_iter().map(|r| r.id).collect(),
        }
    }

    /// Drops already-bound requests from the front of the queue (shared
    /// identifiers bind once) and returns the next request to bind, or
    /// `None` when the plan is complete.
    fn next_request(&mut self) -> Option<RequestId> {
        while let Some(&r) = self.pending.front() {
            if self.plan.service_for(r).is_some() {
                self.pending.pop_front();
            } else {
                return Some(r);
            }
        }
        None
    }

    /// The child node binding `r` to `loc`, closing the queue over the
    /// requests the selected `service` exposes.
    fn bind_child(&self, r: RequestId, loc: &Location, service: &Hist) -> SearchNode {
        let mut plan = self.plan.clone();
        plan.bind(r, loc.clone());
        let mut pending = self.pending.clone();
        for exposed in requests(service) {
            if plan.service_for(exposed.id).is_none() && !pending.contains(&exposed.id) {
                pending.push_back(exposed.id);
            }
        }
        SearchNode { plan, pending }
    }
}

/// Depth-first search below `start`. `prune(plan, r, loc)` may cut the
/// subtree rooted at extending `plan` with `r ↦ loc` before it is
/// expanded; `emit` receives every complete plan and may abort the
/// search by returning an error. Returns the number of subtrees cut.
fn search<PF, EF>(
    start: SearchNode,
    repo: &Repository,
    prune: &mut PF,
    emit: &mut EF,
) -> Result<usize, PlanSpaceExceeded>
where
    PF: FnMut(&Plan, RequestId, &Location) -> bool,
    EF: FnMut(Plan) -> Result<(), PlanSpaceExceeded>,
{
    let mut pruned = 0usize;
    let mut stack = vec![start];
    while let Some(mut node) = stack.pop() {
        let Some(r) = node.next_request() else {
            emit(node.plan)?;
            continue;
        };
        node.pending.pop_front();
        // Children are pushed in reverse repository order so the stack
        // pops them in the repository's (sorted) order — keeping the
        // visit order of the old recursive implementation.
        let entries: Vec<(&Location, &Hist)> = repo.iter().collect();
        for (loc, service) in entries.into_iter().rev() {
            if prune(&node.plan, r, loc) {
                pruned += 1;
                continue;
            }
            stack.push(node.bind_child(r, loc, service));
        }
    }
    Ok(pruned)
}

/// Enumerates every complete plan for `client` over `repo`, up to `cap`
/// **distinct** plans.
///
/// Requests exposed by selected services are bound too; a request
/// identifier is bound at most once (identifiers are globally unique per
/// the paper's assumption), so enumeration always terminates. Plans are
/// deduplicated as they are found, so only distinct plans count toward
/// the cap.
///
/// # Errors
///
/// Returns [`PlanSpaceExceeded`] if more than `cap` distinct plans
/// exist.
///
/// # Examples
///
/// ```
/// use sufs_core::plans::enumerate_plans;
/// use sufs_hexpr::builder::*;
/// use sufs_net::Repository;
///
/// let client = request(1, None, send("q", eps()));
/// let mut repo = Repository::new();
/// repo.publish("s1", recv("q", eps()));
/// repo.publish("s2", recv("q", eps()));
/// let plans = enumerate_plans(&client, &repo, 100).unwrap();
/// assert_eq!(plans.len(), 2); // r1 ↦ s1 or r1 ↦ s2
/// ```
pub fn enumerate_plans(
    client: &Hist,
    repo: &Repository,
    cap: usize,
) -> Result<Vec<Plan>, PlanSpaceExceeded> {
    let (plans, _) = surviving_plans(client, repo, cap, &mut |_, _, _| false)?;
    Ok(plans.into_iter().collect())
}

/// The distinct complete plans `prune` does not cut, in plan order, up
/// to `cap` of them, plus the number of subtrees cut: the candidate set
/// shared by the pruned reference and the composed product.
///
/// # Errors
///
/// Returns [`PlanSpaceExceeded`] if more than `cap` distinct plans
/// survive.
pub(crate) fn surviving_plans<PF>(
    client: &Hist,
    repo: &Repository,
    cap: usize,
    prune: &mut PF,
) -> Result<(BTreeSet<Plan>, usize), PlanSpaceExceeded>
where
    PF: FnMut(&Plan, RequestId, &Location) -> bool,
{
    let mut seen: BTreeSet<Plan> = BTreeSet::new();
    let pruned = search(SearchNode::root(client), repo, prune, &mut |plan| {
        if seen.contains(&plan) {
            return Ok(()); // duplicate: free, never counts toward the cap
        }
        if seen.len() >= cap {
            return Err(PlanSpaceExceeded { cap });
        }
        seen.insert(plan);
        Ok(())
    })?;
    Ok((seen, pruned))
}

/// The requests of the whole composed service under a plan: the client's
/// requests plus those exposed by every service the plan selects,
/// paired with the location bound to each (or `None` if unbound).
pub fn composed_requests(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
) -> Vec<(
    sufs_hexpr::requests::RequestInfo,
    Option<sufs_hexpr::Location>,
)> {
    let mut seen: Vec<RequestId> = Vec::new();
    let mut out = Vec::new();
    let mut frontier: Vec<Hist> = vec![client.clone()];
    while let Some(h) = frontier.pop() {
        for info in requests(&h) {
            if seen.contains(&info.id) {
                continue;
            }
            seen.push(info.id);
            let bound = plan.service_for(info.id).cloned();
            if let Some(loc) = &bound {
                if let Some(service) = repo.get(loc) {
                    frontier.push(service.clone());
                }
            }
            out.push((info, bound));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::Location;

    fn repo(pairs: &[(&str, Hist)]) -> Repository {
        let mut r = Repository::new();
        for (loc, h) in pairs {
            r.publish(*loc, h.clone());
        }
        r
    }

    #[test]
    fn no_requests_yields_empty_plan() {
        let plans = enumerate_plans(&ev0("a"), &Repository::new(), 10).unwrap();
        assert_eq!(plans, vec![Plan::new()]);
    }

    #[test]
    fn cartesian_product_over_independent_requests() {
        let client = Hist::seq(
            request(1, None, send("a", eps())),
            request(2, None, send("b", eps())),
        );
        let repo = repo(&[
            ("s1", recv("a", eps())),
            ("s2", recv("b", eps())),
            ("s3", recv("a", eps())),
        ]);
        let plans = enumerate_plans(&client, &repo, 100).unwrap();
        // 3 choices for r1 × 3 for r2.
        assert_eq!(plans.len(), 9);
        for p in &plans {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn nested_requests_are_closed_over() {
        // Client asks r1; the broker (a candidate for r1) asks r3.
        let client = request(1, None, send("q", eps()));
        let broker = Hist::seq(recv("q", eps()), request(3, None, send("w", eps())));
        let leafsrv = recv("w", eps());
        let repo = repo(&[("br", broker), ("leaf", leafsrv)]);
        let plans = enumerate_plans(&client, &repo, 100).unwrap();
        // r1↦br exposes r3 (2 choices); r1↦leaf leaves nothing exposed.
        // Total: 2 (r1↦br, r3↦{br,leaf}) + 1 (r1↦leaf) = 3.
        assert_eq!(plans.len(), 3);
        let with_broker: Vec<&Plan> = plans
            .iter()
            .filter(|p| p.service_for(sufs_hexpr::RequestId::new(1)) == Some(&Location::new("br")))
            .collect();
        assert_eq!(with_broker.len(), 2);
        for p in with_broker {
            assert!(p.service_for(sufs_hexpr::RequestId::new(3)).is_some());
        }
    }

    #[test]
    fn cap_is_enforced() {
        let client = Hist::seq(
            request(1, None, send("a", eps())),
            request(2, None, send("a", eps())),
        );
        let repo = repo(&[
            ("s1", recv("a", eps())),
            ("s2", recv("a", eps())),
            ("s3", recv("a", eps())),
        ]);
        let err = enumerate_plans(&client, &repo, 4).unwrap_err();
        assert_eq!(err, PlanSpaceExceeded { cap: 4 });
        assert!(err.to_string().contains('4'));
    }

    #[test]
    fn cap_boundary_with_shared_request_ids() {
        // Both candidate services for r1 and r2 expose the *same* nested
        // request id r3, so naive counting could bill the shared id
        // several times. Exactly 8 distinct plans exist
        // (2 × 2 × 2 choices): a cap of 8 must succeed, 7 must fail.
        let client = Hist::seq(
            request(1, None, send("a", eps())),
            request(2, None, send("a", eps())),
        );
        let sub = |l: &str| Hist::seq(recv("a", eps()), request(3, None, send(l, eps())));
        let repo = repo(&[("s1", sub("w")), ("s2", sub("w"))]);
        let plans = enumerate_plans(&client, &repo, 8).unwrap();
        assert_eq!(plans.len(), 8);
        // No duplicates survive enumeration.
        let mut dedup = plans.clone();
        dedup.dedup();
        assert_eq!(dedup, plans);
        let err = enumerate_plans(&client, &repo, 7).unwrap_err();
        assert_eq!(err, PlanSpaceExceeded { cap: 7 });
    }

    #[test]
    fn cap_boundary_exact_fit_succeeds() {
        // 3 × 3 = 9 distinct plans: cap 9 is enough, 8 is not.
        let client = Hist::seq(
            request(1, None, send("a", eps())),
            request(2, None, send("a", eps())),
        );
        let repo = repo(&[
            ("s1", recv("a", eps())),
            ("s2", recv("a", eps())),
            ("s3", recv("a", eps())),
        ]);
        assert_eq!(enumerate_plans(&client, &repo, 9).unwrap().len(), 9);
        assert!(enumerate_plans(&client, &repo, 8).is_err());
    }

    #[test]
    fn deep_duplicate_chain_enumerates_in_linear_time() {
        // A pathological client repeating one request id thousands of
        // times: the bound-request skip loop must be O(1) per entry
        // (the old `Vec::remove(0)` made this quadratic).
        // The syntactic walk over the n-deep `Seq` spine is recursive,
        // so give the test thread a deep stack (debug frames are large).
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let n = 10_000;
                let client = Hist::seq_all((0..n).map(|_| request(1, None, send("q", eps()))));
                let repo = repo(&[("s", recv("q", eps()))]);
                let start = std::time::Instant::now();
                let plans = enumerate_plans(&client, &repo, 10).unwrap();
                assert_eq!(plans.len(), 1);
                assert_eq!(plans[0].len(), 1);
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(5),
                    "deep chain took {:?}",
                    start.elapsed()
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn pruning_cuts_subtrees() {
        let client = Hist::seq(
            request(1, None, send("a", eps())),
            request(2, None, send("a", eps())),
        );
        let repo = repo(&[("bad", recv("a", eps())), ("good", recv("a", eps()))]);
        let mut out = Vec::new();
        let cut = search(
            SearchNode::root(&client),
            &repo,
            &mut |_, _, loc| loc == &Location::new("bad"),
            &mut |p| {
                out.push(p);
                Ok(())
            },
        )
        .unwrap();
        // `bad` is cut once for r1 (cutting 2 leaves) and once for r2
        // under r1↦good: 1 surviving plan, 2 cuts.
        assert_eq!(out, vec![Plan::new().with(1u32, "good").with(2u32, "good")]);
        assert_eq!(cut, 2);
    }

    #[test]
    fn composed_requests_follow_bindings() {
        let client = request(1, None, send("q", eps()));
        let broker = Hist::seq(recv("q", eps()), request(3, None, send("w", eps())));
        let repo = repo(&[("br", broker), ("leaf", recv("w", eps()))]);
        let plan = Plan::new().with(1u32, "br").with(3u32, "leaf");
        let rs = composed_requests(&client, &plan, &repo);
        assert_eq!(rs.len(), 2);
        // An unbound nested request is reported with None.
        let partial = Plan::new().with(1u32, "br");
        let rs = composed_requests(&client, &partial, &repo);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().any(|(i, b)| i.id.index() == 3 && b.is_none()));
    }

    #[test]
    fn empty_repository_binds_nothing() {
        let client = request(1, None, send("q", eps()));
        let plans = enumerate_plans(&client, &Repository::new(), 10).unwrap();
        assert!(plans.is_empty());
    }
}
