//! `mtm-serve` — tuning as a service.
//!
//! A long-running, multi-tenant daemon that multiplexes many concurrent
//! tuning sessions over the `mtm-runner`/`mtm-bayesopt`/`mtm-stormsim`
//! stack, holding the workspace's determinism contract end to end: a
//! session executed by the service is **bitwise-identical** to the same
//! experiment run by the batch CLI, including across crashes.
//!
//! - [`spec`] — what one session runs ([`SessionSpec`]), mirroring the
//!   batch grid's cell construction exactly.
//! - [`store`] — the sharded, crash-safe session store: per-session
//!   journal, meta and trace logs, all [`mtm_obs::segment`] torn-tail
//!   JSONL, plus compaction bounding restart replay cost.
//! - [`dispatch`] — deterministic admission (journaled reject/queue
//!   decisions, per-tenant quotas, backpressure) and the worker pool.
//! - [`proto`] — the schema-versioned, length-prefixed JSONL wire
//!   protocol (`submit | poll | steer | cancel | snapshot`).
//! - [`daemon`] / [`client`] — the TCP/Unix-socket front-end and the
//!   blocking client the CLI uses.
//!
//! See DESIGN.md §14 for the architecture and the README's "Service
//! quickstart" for a walkthrough.

pub mod client;
pub mod daemon;
pub mod dispatch;
pub mod proto;
pub mod spec;
pub mod store;

pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, Endpoint};
pub use dispatch::{DispatchConfig, Dispatcher, Quotas};
pub use proto::{
    decode_frame, encode_frame, FrameStatus, Request, Response, SessionState, SessionView,
    PROTO_VERSION,
};
pub use spec::SessionSpec;
pub use store::{SessionStore, STORE_VERSION};
