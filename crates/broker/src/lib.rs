//! The orchestration broker daemon: the paper's `Br` as a long-running
//! service.
//!
//! In *Secure and Unfailing Services* the broker mediates between
//! clients and a trusted repository of published services, synthesizing
//! **valid plans** — orchestrations that are secure and never get
//! stuck. This crate makes that broker operational over time: a TCP
//! daemon hosting a *dynamic* repository (services and policies are
//! published, updated and retracted at runtime) that answers plan
//! queries from incrementally patched composed products over one
//! long-lived cache of pure verification facts, executes runs with the fault-injection and plan
//! failover machinery, and reports itself through a `stats` command.
//!
//! The wire protocol is length-prefixed JSON ([`proto`], [`json`]) —
//! hand-rolled, because the workspace builds offline with no external
//! crates. See `docs/BROKER.md` for the message reference and
//! `sufs serve` / `sufs publish` / `sufs plan` / `sufs run-remote` /
//! `sufs stats` for the command-line front end.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod json;
pub mod lint;
pub mod metrics;
pub mod proto;
pub mod replication;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use client::{BrokerClient, ReconnectPolicy};
pub use json::{Json, JsonError};
pub use metrics::Metrics;
pub use proto::FrameError;
pub use replication::{AckMode, ElectionMode, Role};
pub use server::{synth_stats_json, verdict_json, Broker, BrokerConfig, BrokerHandle};
