//! The aggregation framework: "data processing pipelines" (thesis
//! Section 4.1.3.1) whose stages filter, reshape, group, and sort the
//! documents flowing through them.

pub mod accum;
pub mod expr;
pub mod kernel;
pub mod parallel;
pub mod reference;
pub mod stage;
pub mod stream;

pub use accum::Accumulator;
pub use expr::Expr;
pub use kernel::{sort_documents, CompiledExpr, CompiledSortSpec, LookupMeta, LookupSource};
pub use parallel::{auto_morsel_size, run_parallel};
pub use stage::{GroupId, Pipeline, ProjectField, Stage};
pub use stream::{execute_streaming, DocStream};
