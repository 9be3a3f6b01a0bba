//! Security policies for services: parametric usage automata, execution
//! histories with framings, and validity model checking.
//!
//! This crate implements the security half of *Secure and Unfailing
//! Services*:
//!
//! * [`usage`] — parametric usage automata in the style of Bartoletti's
//!   usage automata \[3\]; the paper's Fig. 1 policy `φ(bl, p, t)` ships in
//!   [`catalog::hotel_policy`];
//! * [`guard`] — the guard language on transitions (set membership and
//!   threshold comparisons against policy parameters);
//! * [`instance`] — instantiated policies runnable on ground events,
//!   following the *default-accept* discipline: the automaton accepts the
//!   **forbidden** traces;
//! * [`history`] — histories `η ∈ (Ev ∪ Frm)*` with flattening `η♭`,
//!   active-policy multisets `AP(η)`, balance, and the history-dependent
//!   validity `⊨ η` of §3.1;
//! * [`validity`] — static validity model checking of an arbitrary
//!   finite transition system (e.g. a history expression's LTS) against
//!   all the policies it activates, with witness extraction;
//! * [`registry`] — the name → automaton resolution used everywhere.
//!
//! # Example: the paper's Fig. 1 policy
//!
//! ```
//! use sufs_policy::{catalog, registry::PolicyRegistry};
//! use sufs_hexpr::{Event, ParamValue, PolicyRef};
//!
//! let mut reg = PolicyRegistry::new();
//! reg.register(catalog::hotel_policy());
//!
//! // C1's instantiation: black list {1}, price ≤ 45, rating ≥ 100.
//! let phi1 = PolicyRef::new("hotel", [
//!     ParamValue::set([1i64]), ParamValue::int(45), ParamValue::int(100),
//! ]);
//! let inst = reg.instantiate(&phi1).unwrap();
//!
//! // Hotel S4 signs, then publishes price 50 and rating 90: forbidden.
//! let s4 = [Event::new("sgn", [4i64]), Event::new("p", [50i64]), Event::new("ta", [90i64])];
//! assert!(inst.forbids(s4.iter()));
//! ```

#![warn(missing_docs)]

pub mod automata_bridge;
pub mod catalog;
pub mod cost;
pub mod guard;
pub mod history;
pub mod instance;
pub mod registry;
pub mod regularize;
pub mod usage;
pub mod validity;

pub use guard::{CmpOp, Guard, Operand};
pub use history::{History, HistoryItem};
pub use instance::PolicyInstance;
pub use registry::{PolicyError, PolicyRegistry};
pub use usage::{UsageAutomaton, UsageBuilder};
pub use validity::{
    check_explored, check_validity, GraphLabels, SecurityViolation, ValidityError, Verdict,
};
