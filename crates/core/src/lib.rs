//! The primary contribution of *Secure and Unfailing Services*: static
//! synthesis of **valid plans**.
//!
//! Given a client and a repository of published services, this crate
//! enumerates every candidate orchestration ([`plans`]), checks each for
//! security (validity of all reachable histories against the activated
//! policies) *and* compliance (every session eventually progresses, per
//! request via Theorem 1's product automaton and globally via symbolic
//! reachability), and returns the set of valid plans with counterexample
//! witnesses for the rejected ones ([`mod@verify`], [`report`]).
//!
//! Executing a network under a valid plan is guaranteed never to violate
//! a security policy and never to block on a missing communication —
//! so the run-time monitor can be switched off (§5). The `sufs-net`
//! schedulers and the workspace integration tests validate this claim
//! empirically on thousands of randomly scheduled executions.
//!
//! # Example
//!
//! ```
//! use sufs_core::verify::verify;
//! use sufs_hexpr::builder::*;
//! use sufs_net::Repository;
//! use sufs_policy::PolicyRegistry;
//!
//! // A client booking through request 1 and two candidate services.
//! let client = request(1, None, seq([
//!     send("req", eps()),
//!     offer([("ok", eps()), ("no", eps())]),
//! ]));
//! let mut repo = Repository::new();
//! repo.publish("reliable", recv("req", choose([("ok", eps()), ("no", eps())])));
//! repo.publish("flaky", recv("req", choose([("ok", eps()), ("later", eps())])));
//!
//! let report = verify(&client, &repo, &PolicyRegistry::new()).unwrap();
//! println!("{report}");
//! assert_eq!(report.valid_plans().count(), 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod discover;
pub mod multi;
pub mod plans;
pub mod product;
pub mod recovery;
pub mod report;
pub mod scenario;
pub mod verify;

pub use cache::{CacheStats, StateFingerprints, VerifyCache};
pub use discover::{discover, discover_matches, DiscoveryCandidate};
pub use multi::{find_joint_deadlock, verify_network, ClientSpec, JointDeadlock, NetworkReport};
pub use plans::{composed_requests, enumerate_plans, PlanSpaceExceeded};
pub use product::{ProductInfo, ProductStats, ProductStore};
pub use recovery::{
    fallback_chain, fallback_chain_with_cap, recovery_table, recovery_table_with_cap,
};
pub use report::VerifyReport;
pub use verify::{
    synthesize, verify, verify_plan, verify_with_cap, Engine, PlanVerdict, SynthStats, Synthesis,
    SynthesisOptions, VerifyError, Violation,
};
