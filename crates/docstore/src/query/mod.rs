//! The query subsystem: the match language, its evaluator, and the
//! index-selecting planner.

pub mod filter;
pub mod matcher;
pub mod planner;

pub use filter::{CmpOp, Filter};
pub use matcher::{compile, matches, matches_compiled, CompiledFilter};
pub use planner::{conjunctive_constraints, PathConstraint, Plan, PlanKind};
