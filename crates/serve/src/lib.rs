//! `easeml-serve` — the persistent HTTP CI service of the ease.ml/ci
//! reproduction.
//!
//! The paper presents ease.ml/ci as a *system* wired into a team's CI
//! loop: developers push commits, the service evaluates the test
//! condition with `(ε, δ)` guarantees, returns pass/fail, and tracks
//! when the labelled testset is exhausted. This crate is that layer for
//! the reproduction: a dependency-free HTTP/1.1 service on
//! [`std::net::TcpListener`] whose connection handling fans out on the
//! workspace's [`easeml_par`] pool, with durable state under a data
//! directory.
//!
//! * [`registry`] — the project registry and the commit gate, fed
//!   either by client-measured evaluation counts or by raw prediction
//!   vectors the *server* measures against its own (possibly lazily
//!   labelled) testset (mirrors [`easeml_ci_core::CiEngine`]'s
//!   adaptivity semantics; both feeds share one gate code path);
//! * [`store`] — append-only per-project journals, atomic snapshots,
//!   digest-anchored per-era testset blobs, restart recovery with
//!   replay verification (predictions ops are re-*measured* from their
//!   stored vectors);
//! * [`server`] — routing, connection handling, boot and graceful
//!   shutdown;
//! * [`obs`] — always-on observability: sharded metrics registry with
//!   `GET /metrics` text exposition, and per-request stage tracing with
//!   a slow-request ring at `GET /admin/trace`;
//! * [`http`] — minimal HTTP/1.1 parsing/writing plus a small blocking
//!   client for tests and load generation;
//! * [`json`] — hand-rolled JSON (the workspace is offline), shared with
//!   the bench writers.
//!
//! # Quick start
//!
//! ```no_run
//! use easeml_serve::server::{ServeConfig, Server};
//!
//! let config = ServeConfig::new("127.0.0.1:8642", "./easeml-data");
//! let server = Server::bind(&config).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.run().expect("serve");
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod fault;
mod hash;
pub mod http;
pub mod json;
mod net;
pub mod obs;
mod record;
pub mod registry;
pub mod server;
pub mod store;
pub mod vfs;

pub use error::ServeError;
pub use http::{Client, Request, Response, RetryPolicy};
pub use json::Value;
pub use registry::{
    CommitSubmission, EvalCounts, MeasuredTestset, PredictionsSubmission, Project, TestsetSpec,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use store::{Durability, Registry};
