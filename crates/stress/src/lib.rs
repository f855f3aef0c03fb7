//! # doclite-stress
//!
//! The concurrent workload driver: N worker threads share one target —
//! a standalone [`doclite_docstore::Database`] or a sharded
//! [`doclite_sharding::Mongos`] router — and push mixed TPC-DS operation
//! streams through it under a fixed-rate or max-throughput schedule,
//! recording coordinated-omission-corrected latencies into lock-free
//! log-bucketed histograms.
//!
//! The paper this repository reproduces measures one analytical query at
//! a time on an idle system; this subsystem is the harness for the
//! questions the paper leaves open — what the same deployments do under
//! sustained concurrent traffic.
//!
//! ```no_run
//! use doclite_core::{Deployment, SetupOptions};
//! use doclite_stress::{run_stress, OpMix, RateMode, StressConfig, StressEnv};
//!
//! let env = StressEnv::setup(Deployment::Standalone, 0.002, &SetupOptions::default()).unwrap();
//! let workload = env.workload(OpMix::read_only());
//! let result = run_stress(&workload, &StressConfig { threads: 4, ..StressConfig::default() });
//! println!("{}", result.summary());
//! ```

pub mod dist;
pub mod driver;
pub mod hist;
pub mod reconfig;
pub mod report;
pub mod sched;
pub mod views;
pub mod workload;

pub use dist::Distribution;
pub use driver::{run_stress, worker_seed, StressConfig, StressResult, Workload};
pub use hist::LogHistogram;
pub use views::{run_views, ViewsConfig, ViewsReport, VIEWS_SCHEMA};
pub use reconfig::{
    derive_sale_doc, run_scenario, IntervalStat, ReconfigConfig, ReconfigReport,
    ReconfigScenario, ScenarioResult, RECONFIG_SCHEMA,
};
pub use report::{CellResult, Scaling, StressReport, SCHEMA};
pub use sched::{RateLimiter, RateMode};
pub use workload::{MixedWorkload, OpKind, OpMix, StressEnv};

/// Compile-time concurrency contract: everything the driver shares
/// across worker threads must be `Send + Sync`. A regression here fails
/// the build of this function, not a test at runtime.
#[allow(dead_code)]
fn assert_driver_targets_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<doclite_docstore::Database>();
    check::<doclite_docstore::wal::DurableDb>();
    check::<doclite_sharding::Mongos>();
    check::<doclite_sharding::ShardedCluster>();
    check::<doclite_core::Environment>();
    check::<StressEnv>();
    check::<LogHistogram>();
    check::<RateLimiter>();
}
