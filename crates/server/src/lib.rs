//! # staged-server — the assembled DBMS
//!
//! Two complete servers over the same storage / SQL / planner / engine
//! substrate:
//!
//! * [`StagedServer`] — the paper's design (Figure 3): client requests are
//!   encapsulated into packets that flow through the five top-level stages
//!   **connect → parse → optimize → execute → disconnect**, each an
//!   independent queue + worker pool on a [`staged_core::StagedRuntime`].
//!   DDL and transaction-control statements bypass the optimizer, and
//!   prepared statements route straight from connect to execute, exactly
//!   the self-routing behaviours of §4.1. SELECT plans are executed on the
//!   staged page-push engine (or on the Volcano engine, configurable).
//!   Back-pressure on the connect queue gives the overload behaviour of
//!   §5.2 ([`StagedServer::try_submit`]).
//! * [`ThreadedServer`] — the work-centric baseline of §3.1: a pool of N
//!   threads, each picking a client from one input queue and running the
//!   entire pipeline as direct procedure calls.
//!
//! Both share [`pipeline`], so correctness is identical by construction and
//! the architectural comparison is apples-to-apples.
//!
//! The [`net`] module opens both servers to real TCP traffic with the text
//! wire protocol of `PROTOCOL.md`. Since PR 10 the front end is
//! **event-driven**: one reader thread multiplexes every connection with a
//! `poll(2)` readiness loop (the thread-per-connection reader is gone for
//! both servers), parses line frames incrementally from per-connection
//! buffers, and submits statements without blocking — the staged server
//! admits through its bounded `net` stage, the threaded baseline through
//! its pool queue, and when either queue is full the loop simply stops
//! reading that socket, so back-pressure reaches TCP. The two servers
//! still answer byte-identical responses.
//!
//! The [`replication`] module adds STAR-style asymmetric roles on top:
//! either server acts as a **primary**, shipping committed WAL records to
//! subscribed [`ReplicaServer`]s over a `REPLICATE` feed, while replicas
//! apply the feed transactionally and serve snapshot reads only. Both
//! that feed and the `SUBSCRIBE` change feeds (committed changes streamed
//! as `CHANGE` lines, whole transactions at a time, in commit order) are
//! served by one [`log_tail::LogTail`] per primary: one registry, one
//! bounded-outbox discipline, and one read of each new WAL record for
//! every consumer (a dedicated `replication` stage pumps it on the staged
//! server).

#![deny(missing_docs)]

pub mod log_tail;
pub mod net;
pub mod pipeline;
pub mod replication;
pub mod session;
pub mod staged_server;
pub mod threaded;
pub mod types;

pub use log_tail::{LogTail, ReactivityHub, ReplicationHub, SubscriptionStats};
pub use net::{serve, NetConfig, NetHandle, NetStats};
pub use replication::{ReplicaConfig, ReplicaServer, ReplicaSession, ReplicaStatus};
pub use session::TxnRuntime;
pub use staged_server::{StagedServer, StagedSession};
pub use threaded::{ThreadedServer, ThreadedSession};
pub use types::{QueryOutput, Request, Response, ServerConfig, ServerError};
