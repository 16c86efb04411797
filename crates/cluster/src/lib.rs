//! # geotp-cluster — the scale-out middleware tier
//!
//! The paper's middleware is a single coordinator in front of the
//! geo-distributed data sources; this crate promotes it to a *tier*: N
//! coordinators sharing the same data sources, scaled out behind a
//! client-facing session router, with the failure handling a production
//! deployment needs:
//!
//! * **membership** ([`MembershipTable`]) — a deterministic lease/epoch table
//!   on the simulated network: coordinators renew leases against a control
//!   node; a partitioned or crashed coordinator's lease lapses and the
//!   cluster declares it dead;
//! * **routing** ([`SessionRouter`]) — consistent hashing with session
//!   affinity: sessions stick to their coordinator while it lives, and only
//!   a dead coordinator's sessions move on failover;
//! * **fencing** — gtrid spaces are partitioned per coordinator (the index
//!   rides the gtrid's upper bits), every decision is epoch-stamped, and a
//!   declared-dead coordinator's epoch is sealed out of its commit log and
//!   every data source before anything is adopted — a split-brained
//!   coordinator can keep trying, but nothing it decides is accepted;
//! * **peer takeover** ([`CoordinatorCluster::take_over`]) — a surviving
//!   coordinator adopts the dead peer's prepared/in-doubt branches via
//!   gtrid-scoped `XA RECOVER` and drives them to completion from the sealed
//!   commit log, while the data sources abort the dead peer's unprepared
//!   branches (and nobody else's);
//! * **open-loop load** ([`run_open_loop`]) — a fixed-arrival-rate driver
//!   that exposes the tier's capacity (and its queueing tail) instead of the
//!   closed-loop ceiling, for the scale-out experiments;
//! * **graceful degradation** ([`AdmissionGate`]) — bounded FIFO admission
//!   queues with queue-time deadlines and explicit load shedding per
//!   coordinator, load-aware routing away from saturated coordinators, and
//!   an idle-session reaper ([`SessionReaperConfig`]) keeping per-session
//!   state memory-lean under flash crowds.

pub mod admission;
pub mod cluster;
pub mod deploy;
pub mod membership;
pub mod openloop;
pub mod ring;

pub use admission::{
    AdmissionGate, AdmissionPolicy, AdmissionReject, AdmissionTicket, CoordinatorLoad, ShedReason,
};
pub use cluster::{
    ClusterConfig, ClusterSessionService, CoordinatorCluster, SessionReaperConfig, TakeoverReport,
    SUPERVISOR_INTERVAL,
};
pub use deploy::{build_tier, wire, TierLayout, Wiring};
pub use membership::{MembershipConfig, MembershipTable, RenewError, SlotState};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use ring::SessionRouter;
