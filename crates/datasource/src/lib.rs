//! # geotp-datasource — data sources and geo-agents
//!
//! The second layer of the GeoTP architecture (paper §III-B): each data source
//! node hosts a storage engine (the stand-in for MySQL/PostgreSQL) together
//! with a **geo-agent**. The geo-agent owns
//!
//! * a connection pool towards the middleware and towards the *other*
//!   geo-agents,
//! * a local transaction manager tracking branch state,
//! * the **decentralized prepare** path (§IV-A): when the last statement of a
//!   branch finishes, the agent immediately prepares the branch in its
//!   co-located database (one LAN round trip plus the engine's prepare cost)
//!   and pushes the vote to the middleware asynchronously,
//! * the **early abort** path (§IV-A): when a statement fails, the agent
//!   proactively asks peer data sources to roll back the sibling branches,
//!   bypassing the middleware and saving half a WAN round trip.
//!
//! The middleware talks to a data source through a [`DsConnection`], which
//! charges the simulated WAN latency for every request/response pair, exactly
//! like a TCP connection over the emulated network in the paper's testbed.

pub mod connection;
pub mod messages;
pub mod server;

pub use connection::DsConnection;
pub use messages::{
    AgentNotification, DsOperation, PrepareVote, StatementOutcome, StatementRequest,
    StatementResponse,
};
pub use server::{DataSource, DataSourceConfig, DataSourceStats};
