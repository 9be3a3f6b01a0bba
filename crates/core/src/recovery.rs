//! Plan failover: precomputed chains of statically valid fallback
//! plans.
//!
//! §5 guarantees that *any* statically valid plan runs securely with
//! the monitor off — so when a bound service dies mid-run, the
//! component may re-bind to *another* valid plan and restart without
//! re-verifying anything at run time. This module computes those
//! fallback chains once, up front, from the same [`verify`](crate::verify::verify) pass that
//! certified the primary plan, and packages them as the
//! [`RecoveryTable`] consumed by `sufs_net`'s scheduler.
//!
//! The recovery point is well-defined: the failed component's history
//! is Φ-closed (each dangling policy frame gets its `⌟φ`, so every
//! policy window is checked separately and the restart cannot smuggle
//! a violation across windows), its session tree is reset to the
//! original client leaf, and execution resumes under the next plan in
//! the chain that binds no dead location.

use crate::verify::{verify_with_cap, VerifyError};
use sufs_hexpr::Hist;
use sufs_net::faults::RecoveryTable;
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

/// The default candidate-plan cap, mirroring [`crate::verify::verify`].
const DEFAULT_PLAN_CAP: usize = 10_000;

/// All statically valid plans for `client`, in the deterministic order
/// the verifier enumerates them: the head is the primary plan, the tail
/// the fallbacks.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the client is ill-formed, a policy
/// cannot be resolved, or the plan space exceeds the default cap.
pub fn fallback_chain(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<Vec<Plan>, VerifyError> {
    fallback_chain_with_cap(client, repo, registry, DEFAULT_PLAN_CAP)
}

/// [`fallback_chain`] with an explicit cap on the candidate-plan space.
///
/// # Errors
///
/// As [`fallback_chain`].
pub fn fallback_chain_with_cap(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    plan_cap: usize,
) -> Result<Vec<Plan>, VerifyError> {
    let report = verify_with_cap(client, repo, registry, plan_cap)?;
    Ok(report.valid_plans().cloned().collect())
}

/// Builds the per-component [`RecoveryTable`] for a network of
/// `clients`: component `i` gets the full chain of valid plans for
/// `clients[i]`. A client with no valid plan gets an empty chain — it
/// can time out but never fail over.
///
/// # Errors
///
/// Returns the first [`VerifyError`] hit while verifying any client.
pub fn recovery_table(
    clients: &[Hist],
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<RecoveryTable, VerifyError> {
    recovery_table_with_cap(clients, repo, registry, DEFAULT_PLAN_CAP)
}

/// [`recovery_table`] with an explicit cap on each client's plan space.
///
/// # Errors
///
/// As [`recovery_table`].
pub fn recovery_table_with_cap(
    clients: &[Hist],
    repo: &Repository,
    registry: &PolicyRegistry,
    plan_cap: usize,
) -> Result<RecoveryTable, VerifyError> {
    let mut table = RecoveryTable::new();
    for client in clients {
        table.push_chain(fallback_chain_with_cap(client, repo, registry, plan_cap)?);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::{Location, RequestId};

    fn booking_client() -> Hist {
        request(
            1,
            None,
            seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
        )
    }

    fn compliant_service() -> Hist {
        recv("req", choose([("ok", eps()), ("no", eps())]))
    }

    #[test]
    fn chain_lists_every_valid_plan_in_order() {
        let mut repo = Repository::new();
        repo.publish("s1", compliant_service());
        repo.publish("s2", compliant_service());
        repo.publish("bad", recv("req", choose([("later", eps())])));
        let chain = fallback_chain(&booking_client(), &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(chain.len(), 2);
        let bound: Vec<&Location> = chain
            .iter()
            .map(|p| p.service_for(RequestId::new(1)).unwrap())
            .collect();
        assert!(bound.contains(&&Location::new("s1")));
        assert!(bound.contains(&&Location::new("s2")));
        // Deterministic: same inputs, same order.
        let again = fallback_chain(&booking_client(), &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(chain, again);
    }

    #[test]
    fn table_has_one_chain_per_client() {
        let mut repo = Repository::new();
        repo.publish("s1", compliant_service());
        repo.publish("s2", compliant_service());
        let clients = [booking_client(), booking_client()];
        let table = recovery_table(&clients, &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.chain(0).len(), 2);
        assert_eq!(table.chain(1).len(), 2);
        // Out-of-range component: empty chain, no panic.
        assert!(table.chain(7).is_empty());
    }

    #[test]
    fn unsatisfiable_client_gets_an_empty_chain() {
        let repo = Repository::new();
        let clients = [booking_client()];
        let table = recovery_table(&clients, &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(table.len(), 1);
        assert!(table.chain(0).is_empty());
    }
}
