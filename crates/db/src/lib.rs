//! `imadg-db`: the deployment façade.
//!
//! Wires the substrate crates into the paper's Fig. 1 topology: a primary
//! (RAC) cluster generating redo, a standby (RAC) cluster maintained by
//! parallel redo apply, the DBIM-on-ADG infrastructure keeping the
//! standby's column store consistent at every published QuerySCN, and the
//! placement policies (Fig. 2) that split the in-memory working set across
//! the two sides.

pub mod cluster;
pub mod mira;
pub mod node;
pub mod placement;
pub mod primary;
pub mod query;
pub mod router;
pub mod standby;

pub use cluster::{AdgCluster, ClusterConfig, ClusterThreads, PromotionReport, StandbySpec};
pub use mira::{MiraInstance, MiraStandby};
pub use node::{Node, NodeBuilder, NodeRole};
pub use placement::{Placement, StandbySelector};
pub use primary::PrimaryInstance;
pub use query::{execute_request, QueryOutput, QueryRequest};
pub use router::{FallbackReason, RouteDecision, RouteTarget, StandbyEstimate};
pub use standby::{StandbyCluster, StandbyInstance, StandbyStatus, StandbyThreads};

// Re-export the vocabulary users need to drive a cluster.
pub use imadg_common::{
    Dba, Error, FaultPlan, ImcsConfig, InstanceId, LinkMode, MetricsRegistry, MetricsSnapshot,
    ObjectId, PipelineTrace, QueryProfile, RecoveryConfig, Result, Scn, SystemConfig, TenantId,
    TraceEvent, TraceStage, TransportConfig, TxnId, UnitTiming,
};
pub use imadg_imcs::{
    AggregateResult, CmpOp, ColdTier, Expr, ExprPredicate, Filter, ImExpression, Predicate,
    ScanStats, TierReport,
};
pub use imadg_storage::{ColumnDef, ColumnType, Row, Schema, TableSpec, Value};
