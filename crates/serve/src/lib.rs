//! nas-serve: spanner-as-a-service — a long-lived distance/stretch query
//! daemon with epoch-versioned snapshot swap.
//!
//! The bench binaries build a spanner, measure it, and exit; the
//! construction cost is paid once per process per question. This crate
//! keeps the expensive artifacts — the graph, the spanner, and their warm
//! distance oracles — resident behind a tiny HTTP/1.1 surface, so a build
//! is paid once and then amortized over arbitrarily many distance/stretch
//! queries.
//!
//! # Architecture
//!
//! The crate splits state from protocol:
//!
//! * [`store`] owns the data plane. A [`Snapshot`] is one
//!   immutable build — graph, spanner, both oracles, and the build record
//!   (wall time, rounds, messages, stretch envelope). The
//!   [`Store`] holds the current snapshot behind an
//!   epoch-versioned `RwLock<Arc<Snapshot>>`: readers clone the `Arc` (a
//!   refcount bump) and answer from a consistent snapshot for the whole
//!   request; [`Store::rebuild`](store::Store::rebuild) constructs the next
//!   snapshot **without holding any reader-visible lock** and then swaps
//!   the pointer, bumping the epoch. In-flight reads during a rebuild keep
//!   the pre-swap snapshot alive through their `Arc` and stay internally
//!   consistent; the swap is atomic from the readers' perspective.
//! * [`handlers`] owns the protocol plane: one module per endpoint family
//!   ([`handlers::distance`], [`handlers::batch`], [`handlers::admin`]),
//!   a [`route`](handlers::route) dispatcher, and the server-side request
//!   [`Metrics`](handlers::Metrics). Handlers never touch sockets — they
//!   map a parsed [`Request`](http::Request) plus a
//!   [`Ctx`](handlers::Ctx) to a [`Response`](http::Response), which keeps
//!   every endpoint unit-testable without a listener.
//! * [`http`] is a hand-rolled, std-only HTTP/1.1 subset: an incremental
//!   [`RequestParser`](http::RequestParser) (push bytes in, drain complete
//!   requests out — keep-alive and pipelining fall out of the buffering),
//!   strict `Content-Length` framing with size caps, and a serializer.
//!   No hyper, no tokio: the workspace is offline and dependency-free, so
//!   the protocol layer is too.
//! * [`json`] is the matching hand-rolled JSON subset: a recursive-descent
//!   parser with a depth cap for request bodies, and string-building
//!   helpers for responses (the workspace's `serde` is an offline no-op
//!   stand-in, so there is no derive-based serialization to lean on).
//! * [`server`] is the execution model: one acceptor thread feeding a
//!   fixed set of connection workers over a condvar queue
//!   (thread-per-connection semantics with a bounded thread count), with
//!   cooperative shutdown. Batch fills inside a request shard over the
//!   process-wide `nas-par` pool, which serializes concurrent broadcasts
//!   internally.
//! * [`client`] is a minimal blocking keep-alive client — just enough for
//!   the reference benchmark's serve workload (`perfbench`,
//!   `serve-zipf-churn`) and the integration tests.
//!
//! # Endpoints
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `GET /health` | liveness + current epoch |
//! | `GET /stats` | build record, oracle stats, request counters |
//! | `GET /distance?src=&dst=[&mode=]` | one pair, exact/spanner/both |
//! | `POST /batch` | many pairs through the pooled batch path |
//! | `POST /rebuild` | build new snapshot off the reader path, swap |
//! | `POST /reload` | stream a graph file off disk, build, swap |
//! | `POST /shutdown` | stop accepting, drain, exit |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod handlers;
pub mod http;
pub mod json;
pub mod server;
pub mod store;

pub use client::{Client, ClientResponse};
pub use server::{ServeConfig, Server, ServerHandle};
pub use store::{BuildSpec, QueryMode, Snapshot, Store, Workload};
