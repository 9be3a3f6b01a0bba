//! Joint verification of multi-client networks.
//!
//! Plans are verified per client (§5 considers "one of them at a time"),
//! which is sound for security — histories are per component — and for
//! compliance of unbounded services. With the §5 *bounded availability*
//! extension, however, two individually valid plans can deadlock
//! **jointly**: if client A holds the last replica of `s₁` while waiting
//! for `s₂`, and client B holds `s₂` while waiting for `s₁`, neither can
//! proceed (a classic circular wait that no single-client analysis can
//! see). [`verify_network`] therefore explores the *joint* symbolic
//! state space — the product of the components' session trees under the
//! shared load — and reports reachable global deadlocks. The search runs
//! on the workspace's one explorer (`Lts::search`), which stores each
//! joint state once and stops at the first deadlocked one.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

use crate::verify::{verify_plan, PlanVerdict, VerifyError};
use sufs_hexpr::{Hist, Label, Location, Lts};
use sufs_net::semantics::active_services;
use sufs_net::symbolic::{symbolic_successors_with_load, SymState};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

/// One client of a multi-client network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// The client's location (must not collide with repository names).
    pub name: Location,
    /// The client's behaviour.
    pub client: Hist,
    /// The plan orchestrating its requests.
    pub plan: Plan,
}

impl ClientSpec {
    /// Creates a client specification.
    pub fn new(name: impl Into<Location>, client: Hist, plan: Plan) -> Self {
        ClientSpec {
            name: name.into(),
            client,
            plan,
        }
    }
}

/// A reachable global deadlock of the joint exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointDeadlock {
    /// A shortest schedule to the deadlock: which component moved, with
    /// what label.
    pub path: Vec<(usize, Label)>,
    /// The indices of the components that are stuck (not terminated) at
    /// the deadlocked state.
    pub stuck_components: Vec<usize>,
}

impl fmt::Display for JointDeadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "joint deadlock of components {:?} after [",
            self.stuck_components
        )?;
        for (i, (c, l)) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}:{l}")?;
        }
        write!(f, "]")
    }
}

/// The outcome of verifying a whole network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkReport {
    /// The per-client verdicts (security, compliance, progress).
    pub per_client: Vec<PlanVerdict>,
    /// A reachable joint deadlock, if any (capacity contention).
    pub joint_deadlock: Option<JointDeadlock>,
}

impl NetworkReport {
    /// Returns `true` when every client's plan is valid *and* no joint
    /// deadlock is reachable: the whole network may run monitor-free.
    pub fn is_valid(&self) -> bool {
        self.per_client.iter().all(PlanVerdict::is_valid) && self.joint_deadlock.is_none()
    }
}

/// Verifies a multi-client network: every client's plan individually
/// (as [`verify_plan`]) plus joint deadlock-freedom under shared
/// capacities.
///
/// # Errors
///
/// Returns a [`VerifyError`] on ill-formed inputs, unresolvable
/// policies, or when the joint product exceeds `bound` states.
pub fn verify_network(
    clients: &[ClientSpec],
    repo: &Repository,
    registry: &PolicyRegistry,
    bound: usize,
) -> Result<NetworkReport, VerifyError> {
    let mut per_client = Vec::with_capacity(clients.len());
    for spec in clients {
        per_client.push(verify_plan(&spec.client, &spec.plan, repo, registry)?);
    }
    let joint_deadlock = find_joint_deadlock(clients, repo, bound)?;
    Ok(NetworkReport {
        per_client,
        joint_deadlock,
    })
}

/// Searches the joint symbolic state space for a global deadlock.
///
/// A *global* deadlock is a reachable joint state where no component
/// can move yet not all have terminated. A component that is stuck
/// forever while another loops endlessly (partial starvation under a
/// divergent peer) is not a global deadlock and is not reported; for
/// terminating clients — the common case — the two notions coincide,
/// because the live components eventually finish and expose the stuck
/// one.
///
/// The joint states are searched breadth first and the search stops at
/// the first deadlocked one, so the schedule is a shortest one and a
/// deadlock met before the bound is reported even when more than
/// `bound` joint states are reachable.
///
/// # Errors
///
/// Returns [`VerifyError::BoundExceeded`] if the search reaches more
/// than `bound` joint states before it meets a deadlock.
pub fn find_joint_deadlock(
    clients: &[ClientSpec],
    repo: &Repository,
    bound: usize,
) -> Result<Option<JointDeadlock>, VerifyError> {
    let initial: Vec<SymState> = clients
        .iter()
        .map(|s| SymState::initial(s.name.clone(), s.client.clone()))
        .collect();
    let (graph, deadlock) = Lts::search(initial, bound, |joint: &Vec<SymState>, out| {
        // Shared load across every component.
        let mut load: BTreeMap<Location, usize> = BTreeMap::new();
        for comp in joint {
            for (loc, n) in active_services(&comp.sess, repo) {
                *load.entry(loc).or_insert(0) += n;
            }
        }
        for (i, comp) in joint.iter().enumerate() {
            for (label, next) in symbolic_successors_with_load(comp, &clients[i].plan, repo, &load)
            {
                let mut njoint = joint.clone();
                njoint[i] = next;
                out.push(((i, label), njoint));
            }
        }
        if !out.is_empty() || joint.iter().all(SymState::is_terminated) {
            return ControlFlow::Continue(());
        }
        let stuck = joint.iter().enumerate().filter(|(_, s)| !s.is_terminated());
        ControlFlow::Break(stuck.map(|(i, _)| i).collect())
    })
    .map_err(|e| VerifyError::BoundExceeded(e.bound))?;
    Ok(deadlock.map(|(at, stuck_components)| JointDeadlock {
        path: graph.path_to(at),
        stuck_components,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;

    fn two_step_client(first: &str, second: &str, r1: u32, r2: u32) -> Hist {
        // Holds a session with `first` open while also opening `second`
        // (nested), then closes both.
        let _ = (first, second);
        request(
            r1,
            None,
            seq([
                send("a", eps()),
                request(r2, None, send("b", eps())),
                send("done", eps()),
            ]),
        )
    }

    #[test]
    fn circular_capacity_wait_is_detected() {
        // srv1 and srv2 each have one replica. Client A: holds srv1,
        // needs srv2. Client B: holds srv2, needs srv1.
        let mut repo = Repository::new();
        repo.publish_bounded("srv1", holder_and_inner(), 1);
        repo.publish_bounded("srv2", holder_and_inner(), 1);
        let a = ClientSpec::new(
            "a",
            two_step_client("srv1", "srv2", 1, 2),
            Plan::new().with(1u32, "srv1").with(2u32, "srv2"),
        );
        let b = ClientSpec::new(
            "b",
            two_step_client("srv2", "srv1", 3, 4),
            Plan::new().with(3u32, "srv2").with(4u32, "srv1"),
        );
        // Each plan is individually fine…
        let reg = PolicyRegistry::new();
        let report = verify_network(&[a.clone(), b.clone()], &repo, &reg, 1 << 18).unwrap();
        for v in &report.per_client {
            assert!(v.is_valid(), "individual plan rejected: {v:?}");
        }
        // …but jointly they can deadlock.
        assert!(!report.is_valid());
        let dl = report.joint_deadlock.expect("circular wait must be found");
        assert_eq!(dl.stuck_components, vec![0, 1]);
        assert!(dl.to_string().contains("joint deadlock"));
    }

    /// A service usable both as the outer "holder" and the inner one.
    fn holder_and_inner() -> Hist {
        offer([("a", offer([("done", eps())]).clone()), ("b", eps())])
    }

    #[test]
    fn capacity_two_resolves_the_contention() {
        let mut repo = Repository::new();
        repo.publish_bounded("srv1", holder_and_inner(), 2);
        repo.publish_bounded("srv2", holder_and_inner(), 2);
        let a = ClientSpec::new(
            "a",
            two_step_client("srv1", "srv2", 1, 2),
            Plan::new().with(1u32, "srv1").with(2u32, "srv2"),
        );
        let b = ClientSpec::new(
            "b",
            two_step_client("srv2", "srv1", 3, 4),
            Plan::new().with(3u32, "srv2").with(4u32, "srv1"),
        );
        let reg = PolicyRegistry::new();
        let report = verify_network(&[a, b], &repo, &reg, 1 << 18).unwrap();
        assert!(report.joint_deadlock.is_none());
        assert!(report.is_valid());
    }

    #[test]
    fn independent_clients_have_no_joint_deadlock() {
        let mut repo = Repository::new();
        repo.publish("srv", recv("q", choose([("ok", eps())])));
        let client = request(1, None, seq([send("q", eps()), offer([("ok", eps())])]));
        let reg = PolicyRegistry::new();
        let specs: Vec<ClientSpec> = (0..3)
            .map(|i| {
                ClientSpec::new(
                    format!("c{i}"),
                    client.clone(),
                    Plan::new().with(1u32, "srv"),
                )
            })
            .collect();
        let report = verify_network(&specs, &repo, &reg, 1 << 18).unwrap();
        assert!(report.is_valid());
    }

    #[test]
    fn bound_is_reported() {
        let mut repo = Repository::new();
        repo.publish("srv", recv("q", choose([("ok", eps())])));
        let client = request(1, None, seq([send("q", eps()), offer([("ok", eps())])]));
        let specs: Vec<ClientSpec> = (0..3)
            .map(|i| {
                ClientSpec::new(
                    format!("c{i}"),
                    client.clone(),
                    Plan::new().with(1u32, "srv"),
                )
            })
            .collect();
        let err = find_joint_deadlock(&specs, &repo, 2).unwrap_err();
        assert!(matches!(err, VerifyError::BoundExceeded(2)));
    }
}
