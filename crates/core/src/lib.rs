//! # doclite-core
//!
//! The thesis's contributions, reproduced: the data-migration algorithm
//! (Fig 4.3), the denormalized-collection creation and `EmbedDocuments`
//! algorithms (Figs 4.6/4.7), the normalized-model query-translation
//! algorithm (Fig 4.8), the four workload queries in both data models,
//! the Table 4.1 experiment matrix, and the measurement machinery behind
//! Tables 4.3–4.5 and Figures 4.9–4.11.

pub mod denormalize;
pub mod experiment;
pub mod fastdn;
pub mod migrate;
pub mod normalize;
pub mod queries;
pub mod report;
pub mod selectivity;
pub mod store;
pub mod translate;

pub use denormalize::{
    create_denormalized, denormalized_name, embed_documents, embed_store_returns, EmbedSpec,
};
pub use experiment::{
    run_experiment, setup_environment, DataModel, Deployment, Environment, ExperimentSpec,
    QueryTiming, SetupOptions, WORKLOAD_TABLES,
};
pub use fastdn::{build_denormalized_fast, create_denormalized_fast};
pub use migrate::{migrate_all, migrate_table, load_table_direct, MigrateError, MigrationReport};
pub use normalize::{normalize, run_plan, Fig48Plan};
pub use queries::{denormalized_pipeline, output_collection, run_denormalized, run_normalized};
pub use report::{fmt_duration, TextTable};
pub use selectivity::{measure as measure_selectivity, Selectivity};
pub use store::Store;
pub use translate::{translate_denormalized, TranslateError, Translation};

/// Compile-time proof that an [`Environment`] (and the `Store` view the
/// workloads call through) can be shared across stress worker threads.
#[allow(dead_code)]
fn assert_shared_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Environment>();
    fn check_store(s: &Environment) -> &(dyn Store + Send + Sync) {
        match s {
            Environment::Standalone(db) => db,
            Environment::Sharded(c) => c.router(),
        }
    }
    let _ = check_store;
}
