//! Networks of services: plans, sessions, the operational semantics of
//! §3, the run-time monitor, and schedulers.
//!
//! A network `N` is a parallel composition of components, each a client
//! evolving into a tree of (possibly nested) sessions with services
//! drawn from a trusted [`repository::Repository`]. A
//! [`plan::Plan`] binds each service request to a location; the
//! semantics ([`semantics`]) implements the rules *Open*, *Close* (with
//! the frame-flushing function `Φ`), *Session*, *Net*, *Access* and
//! *Synch* exactly as in the paper.
//!
//! Executions are driven by [`scheduler::Scheduler`], configurable along
//! the two axes the paper discusses:
//!
//! * **monitor on/off** ([`monitor::MonitorMode`]) — the validity
//!   premise `⊨ η` of the rules, made incremental in
//!   [`monitor::ValidityMonitor`]; §5's headline is that statically
//!   verified plans can run with the monitor off;
//! * **angelic/committed choice** ([`scheduler::ChoiceMode`]) — the
//!   paper's angelic semantics only enables mutually agreeable
//!   communications, while the committed mode lets a sender pick any of
//!   its outputs "regardless of the environment", exposing
//!   non-compliance as a [`scheduler::DeadlockReason::UnmatchedSend`].
//!
//! [`symbolic`] provides the finite, history-less state space that the
//! static verifier (the `sufs-core` crate) model-checks, and [`trace`]
//! renders executions in the style of the paper's Fig. 3.

#![warn(missing_docs)]

pub mod faults;
pub mod monitor;
pub mod network;
pub mod plan;
pub mod repository;
pub mod scheduler;
pub mod semantics;
pub mod session;
pub mod symbolic;
pub mod trace;

pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan, RecoveryTable};
pub use monitor::{MonitorMode, ValidityMonitor};
pub use network::{Component, Network};
pub use plan::Plan;
pub use repository::{PublishError, RepoEvent, Repository};
pub use scheduler::{ChoiceMode, DeadlockReason, Outcome, RunResult, Scheduler, TraceStep};
pub use semantics::{component_steps, sess_steps, SessStep, StepAction};
pub use session::{pending_frame_closes, Sess};
pub use symbolic::{find_stuck, symbolic_successors, StuckState, SymState};
