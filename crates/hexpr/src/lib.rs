//! History expressions for secure and unfailing services.
//!
//! This crate implements the *history expressions* of Basile, Degano and
//! Ferrari, "Secure and Unfailing Services" (Definition 1):
//!
//! ```text
//! H ::= ε | h | μh.H | Σᵢ aᵢ.Hᵢ | ⊕ᵢ āᵢ.Hᵢ | α | H·H | open_{r,φ} H close_{r,φ} | φ⟦H⟧
//! ```
//!
//! A history expression abstracts the behaviour of a service: the security
//! relevant *events* `α` it fires, the *communications* it performs on
//! channels (external choices `Σ` over inputs, internal choices `⊕` over
//! outputs), the service *requests* it makes (`open_{r,φ} … close_{r,φ}`)
//! and the security *framings* `φ⟦H⟧` it activates.
//!
//! The crate provides:
//!
//! * the abstract syntax ([`Hist`]) with smart constructors and the
//!   structural equivalence `ε·H ≡ H ≡ H·ε` baked into a canonical form,
//! * the stand-alone operational semantics ([`semantics::successors`]),
//! * the one bounded breadth-first explorer ([`lts::Lts::search`]) that
//!   builds every reachability graph of the workspace and runs every
//!   search that stops at its first find, and the finite
//!   LTS of an expression built by it ([`lts::HistLts`]); finiteness is
//!   guaranteed by the well-formedness discipline of [`wf`] (guarded
//!   tail recursion),
//! * the projection on communication actions `H!` ([`projection::project`]),
//! * observable ready sets (Definition 3, [`ready::ready_sets`]),
//! * service-request extraction ([`requests`]),
//! * a parser ([`parser::parse_hist`]) and pretty printer for a concrete
//!   textual syntax.
//!
//! # Example
//!
//! ```
//! use sufs_hexpr::parse_hist;
//!
//! // A hotel service: sign, publish price and rating, then either confirm
//! // the booking or report unavailability (an internal choice).
//! let hotel = parse_hist(
//!     "#sgn(1); #price(45); #rating(80); ext[idc -> int[bok -> eps | una -> eps]]",
//! ).unwrap();
//! assert!(sufs_hexpr::wf::check(&hotel).is_ok());
//! ```

#![warn(missing_docs)]

pub mod bpa;
pub mod builder;
pub mod display;
pub mod event;
pub mod hist;
pub mod ident;
pub mod label;
pub mod lts;
pub mod parser;
pub mod projection;
pub mod ready;
pub mod requests;
pub mod semantics;
pub mod shash;
pub mod value;
pub mod wf;

pub use event::{Event, PolicyRef};
pub use hist::Hist;
pub use ident::{Channel, EventName, Location, RecVar, RequestId};
pub use label::{Dir, Label};
pub use lts::{HistLts, Lts};
pub use parser::{parse_hist, ParseError};
pub use value::{ParamValue, Value};
