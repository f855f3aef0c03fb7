//! Mixed TPC-DS operation streams over a prepared environment.
//!
//! One [`StressEnv`] loads the thesis workload tables (plus the
//! denormalized fact collections) onto a standalone database or a
//! 3-shard cluster, then hands out [`MixedWorkload`]s: weighted streams
//! of ticket point reads, `$in` semi-join lookups, sale-line inserts,
//! field updates, and the paper's translated analytical aggregations.

use crate::driver::Workload;
use doclite_bson::{doc, Value};
use doclite_core::{
    denormalized_pipeline, setup_environment, DataModel, Deployment, Environment, ExperimentSpec,
    SetupOptions,
};
use doclite_docstore::{Filter, IndexDef, Pipeline, Result, UpdateSpec};
use doclite_tpcds::gen::LINES_PER_TICKET;
use doclite_tpcds::{Generator, QueryId, QueryParams, TableId};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::atomic::{AtomicI64, Ordering};

/// One operation kind in a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `find` on `store_sales` by one ticket number (targeted on the
    /// cluster; index-backed everywhere).
    PointRead,
    /// `$in` semi-join lookup over a batch of ticket numbers — the
    /// access shape of the paper's Query 50 fact probe.
    InLookup,
    /// Insert one new sale line with a fresh, monotonically growing
    /// ticket number (drives chunk growth and splits on the cluster).
    Insert,
    /// Targeted single-document field update on an existing ticket.
    Update,
    /// One of the paper's translated analytical aggregations over the
    /// denormalized fact collections.
    Analytical,
}

impl OpKind {
    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::PointRead => "point_read",
            OpKind::InLookup => "in_lookup",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Analytical => "analytical",
        }
    }
}

/// A weighted operation mix.
#[derive(Clone, Debug)]
pub struct OpMix {
    name: &'static str,
    weighted: Vec<(OpKind, u32)>,
    total: u32,
}

impl OpMix {
    /// Builds a mix from `(kind, weight)` pairs.
    pub fn new(name: &'static str, weighted: impl Into<Vec<(OpKind, u32)>>) -> Self {
        let weighted = weighted.into();
        let total = weighted.iter().map(|(_, w)| *w).sum();
        assert!(total > 0, "mix needs positive total weight");
        OpMix { name, weighted, total }
    }

    /// The mix's report label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Samples one kind according to the weights.
    pub fn pick(&self, rng: &mut SmallRng) -> OpKind {
        let mut roll = rng.random_range(0..self.total);
        for (kind, w) in &self.weighted {
            if roll < *w {
                return *kind;
            }
            roll -= w;
        }
        self.weighted.last().expect("non-empty").0
    }

    /// 100% ticket point reads.
    pub fn read_only() -> Self {
        OpMix::new("read_only", [(OpKind::PointRead, 1)])
    }

    /// The mixed OLTP+analytical stream: 40% point reads, 20% `$in`
    /// lookups, 20% inserts, 15% updates, 5% analytical aggregations.
    pub fn mixed() -> Self {
        OpMix::new(
            "mixed",
            [
                (OpKind::PointRead, 40),
                (OpKind::InLookup, 20),
                (OpKind::Insert, 20),
                (OpKind::Update, 15),
                (OpKind::Analytical, 5),
            ],
        )
    }

    /// 100% analytical aggregations.
    pub fn analytical() -> Self {
        OpMix::new("analytical", [(OpKind::Analytical, 1)])
    }
}

/// A loaded deployment plus the key-space metadata the ops draw from.
pub struct StressEnv {
    env: Environment,
    deployment: Deployment,
    /// Highest ticket number the generator loaded; point reads and
    /// updates draw uniformly from `1..=max_ticket`.
    max_ticket: i64,
    /// Next fresh ticket for inserts (strictly above the loaded range,
    /// shared across all workers).
    insert_seq: AtomicI64,
    /// The four workload aggregations with any trailing `$out` removed,
    /// so concurrent runs don't fight over output collections.
    analytical: Vec<(String, Pipeline)>,
}

impl StressEnv {
    /// Loads the workload tables (denormalized model, so the analytical
    /// pipelines have their source collections) onto the deployment and
    /// prepares the op streams.
    pub fn setup(deployment: Deployment, sf: f64, opts: &SetupOptions) -> Result<Self> {
        let spec = ExperimentSpec {
            id: match deployment {
                Deployment::Standalone => 91,
                Deployment::Sharded => 92,
            },
            sf,
            model: DataModel::Denormalized,
            deployment,
        };
        let env = setup_environment(&spec, opts)?;
        if deployment == Deployment::Standalone {
            // The paper's standalone deployment keeps the normalized base
            // collections unindexed; the interactive ops need the ticket
            // index, exactly as the sharded side gets one for free from
            // its shard key.
            env.store()
                .create_index("store_sales", IndexDef::single("ss_ticket_number"))?;
        }
        let gen = Generator::new(sf);
        let rows = gen.row_count(TableId::StoreSales);
        let max_ticket = ((rows.saturating_sub(1)) / LINES_PER_TICKET + 1) as i64;
        let params = QueryParams::for_scale(sf);
        let analytical = QueryId::ALL
            .iter()
            .map(|&q| {
                let (source, p) = denormalized_pipeline(q, &params);
                (source, strip_trailing_out(&p))
            })
            .collect();
        Ok(StressEnv {
            env,
            deployment,
            max_ticket,
            insert_seq: AtomicI64::new(max_ticket + 1),
            analytical,
        })
    }

    /// The underlying environment.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The deployment this environment runs on.
    pub fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// Report label for the deployment.
    pub fn deployment_label(&self) -> &'static str {
        match self.deployment {
            Deployment::Standalone => "standalone",
            Deployment::Sharded => "sharded",
        }
    }

    /// Highest preloaded ticket number.
    pub fn max_ticket(&self) -> i64 {
        self.max_ticket
    }

    /// A workload running `mix` against this environment.
    pub fn workload(&self, mix: OpMix) -> MixedWorkload<'_> {
        MixedWorkload { env: self, mix }
    }
}

/// Removes a trailing `$out` stage so the pipeline returns its results
/// instead of materializing into a shared collection (which concurrent
/// runs would drop and rebuild under each other).
fn strip_trailing_out(p: &Pipeline) -> Pipeline {
    let body = p.body().expect("a workload pipeline's only $out is its last stage");
    body.iter().cloned().fold(Pipeline::new(), Pipeline::stage)
}

/// `$in` lookup batch size (Query 50 probes tickets in small batches).
const IN_BATCH: usize = 8;

/// A weighted operation stream bound to an environment. Shared by all
/// worker threads via `&MixedWorkload`.
pub struct MixedWorkload<'a> {
    env: &'a StressEnv,
    mix: OpMix,
}

impl MixedWorkload<'_> {
    /// The mix's report label.
    pub fn name(&self) -> &'static str {
        self.mix.name()
    }

    fn random_ticket(&self, rng: &mut SmallRng) -> i64 {
        rng.random_range(1..=self.env.max_ticket)
    }
}

impl Workload for MixedWorkload<'_> {
    fn run(&self, op_id: u64, rng: &mut SmallRng) -> Result<()> {
        let store = self.env.env.store();
        match self.mix.pick(rng) {
            OpKind::PointRead => {
                let t = self.random_ticket(rng);
                let docs = store.find("store_sales", &Filter::eq("ss_ticket_number", t));
                if docs.is_empty() {
                    return Err(doclite_docstore::Error::InvalidQuery(format!(
                        "point read lost ticket {t}"
                    )));
                }
            }
            OpKind::InLookup => {
                let keys: Vec<Value> = (0..IN_BATCH)
                    .map(|_| Value::Int64(self.random_ticket(rng)))
                    .collect();
                let docs = store.find(
                    "store_sales",
                    &Filter::In { path: "ss_ticket_number".into(), values: keys },
                );
                if docs.is_empty() {
                    return Err(doclite_docstore::Error::InvalidQuery(
                        "$in lookup lost all tickets".into(),
                    ));
                }
            }
            OpKind::Insert => {
                let t = self.env.insert_seq.fetch_add(1, Ordering::Relaxed);
                store.insert_one(
                    "store_sales",
                    doc! {
                        "ss_ticket_number" => t,
                        "ss_item_sk" => rng.random_range(1..=1000i64),
                        "ss_quantity" => rng.random_range(1..=100i64),
                        "ss_sales_price" => (rng.random_range(100..=10_000i64) as f64) / 100.0,
                        "ss_stress_origin" => op_id as i64
                    },
                )?;
            }
            OpKind::Update => {
                let t = self.random_ticket(rng);
                store.update(
                    "store_sales",
                    &Filter::eq("ss_ticket_number", t),
                    &UpdateSpec::set("ss_stress_touch", op_id as i64),
                    false,
                    false,
                )?;
            }
            OpKind::Analytical => {
                let (source, pipeline) =
                    &self.env.analytical[op_id as usize % self.env.analytical.len()];
                store.aggregate(source, pipeline)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_docstore::Stage;
    use rand::SeedableRng;

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = OpMix::new("t", [(OpKind::PointRead, 90), (OpKind::Insert, 10)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 5000;
        let reads = (0..n)
            .filter(|_| mix.pick(&mut rng) == OpKind::PointRead)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((0.85..0.95).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn strip_trailing_out_removes_only_trailing_out() {
        let p = Pipeline::new()
            .stage(Stage::Limit(5))
            .stage(Stage::Out("dest".into()));
        let s = strip_trailing_out(&p);
        assert_eq!(s.stages().len(), 1);
        assert!(matches!(s.stages()[0], Stage::Limit(5)));
        let no_out = Pipeline::new().stage(Stage::Limit(5));
        assert_eq!(strip_trailing_out(&no_out).stages().len(), 1);
    }

    #[test]
    fn workload_pipelines_lose_their_out_stage() {
        let params = QueryParams::for_scale(0.01);
        for &q in &QueryId::ALL {
            let (_, p) = denormalized_pipeline(q, &params);
            let s = strip_trailing_out(&p);
            assert!(
                !s.stages().iter().any(|st| matches!(st, Stage::Out(_))),
                "{q:?} still has $out"
            );
        }
    }

    #[test]
    fn every_op_kind_runs_against_a_small_standalone_env() {
        let env = StressEnv::setup(Deployment::Standalone, 0.001, &SetupOptions {
            network: doclite_sharding::NetworkModel::free(),
            ..SetupOptions::default()
        })
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for (i, kind) in [
            OpKind::PointRead,
            OpKind::InLookup,
            OpKind::Insert,
            OpKind::Update,
            OpKind::Analytical,
        ]
        .iter()
        .enumerate()
        {
            let w = env.workload(OpMix::new("one", [(*kind, 1)]));
            w.run(i as u64, &mut rng)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        // Inserts landed above the preloaded ticket range.
        let inserted = env.environment().store().find(
            "store_sales",
            &Filter::eq("ss_ticket_number", env.max_ticket() + 1),
        );
        assert_eq!(inserted.len(), 1);
    }
}
