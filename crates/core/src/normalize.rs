//! The normalized-model translation algorithm (thesis Fig 4.8) as a
//! function of the Appendix B pipeline: [`normalize`] reads a query's
//! denormalized pipeline and the TPC-DS FK catalog (the one
//! [`crate::translate`] maps columns with) and derives the plan;
//! [`run_plan`] executes it.
//!
//! * **Step i** — each conjunct of the leading `$match` whose paths all
//!   sit under one foreign key filters that dimension, with the prefix
//!   stripped (`ss_cdemo_sk.cd_gender` → `cd_gender` on
//!   `customer_demographics`).
//! * **Step ii** — the fact is semi-joined on the surviving keys by `$in`
//!   into the intermediate collection. Conjuncts on fact fields, and
//!   `$exists` of an embedded key, filter it there.
//! * **Step iii** — every foreign key under which the stages up to the
//!   first `$group` / `$project` read a path is embedded, fetching only
//!   the keys the intermediate rows reference. A path two levels deep
//!   (`ss_customer_sk.c_current_addr_sk.ca_city`) expands the dimension's
//!   own foreign key first.
//! * **Step iv** — the pipeline without its leading `$match` runs over
//!   the intermediate collection.
//!
//! The derivation stays inside the match / project / group fragment; any
//! other input is a [`crate::TranslateError`] naming the stage or
//! conjunct.

use crate::denormalize::{embed_documents_from, expanded_dimension_docs};
use crate::queries::{filter_dim_pks, semi_join_into};
use crate::store::Store;
use crate::translate::{err, TResult};
use doclite_bson::{Document, Value};
use doclite_docstore::agg::accum::spec_expr;
use doclite_docstore::query::matcher::matches;
use doclite_docstore::{Filter, GroupId, Pipeline, ProjectField, Result, Stage};
use doclite_tpcds::schema::{foreign_keys_of, table_def, ForeignKey, TableDef, TableId};

/// Step i for one dimension: the `fk.ref_table` documents matching
/// `filter` give the keys the fact's `fk.column` may hold.
#[derive(Clone, Debug, PartialEq)]
pub struct DimFilter {
    pub fk: ForeignKey,
    pub filter: Filter,
}

impl DimFilter {
    /// The keys of the dimension documents the filter keeps.
    pub fn keys(&self, store: &dyn Store) -> Vec<Value> {
        filter_dim_pks(store, self.fk.ref_table.name(), &self.filter, self.fk.ref_column)
    }
}

/// Step iii for one foreign key: `fk.column` of the intermediate rows is
/// replaced by the document it references, whose own foreign keys
/// `nested` are expanded first.
#[derive(Clone, Debug, PartialEq)]
pub struct Embed {
    pub fk: ForeignKey,
    pub nested: Vec<ForeignKey>,
}

/// A normalized-model plan: the four steps of Fig 4.8.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig48Plan {
    pub fact: TableId,
    /// Step i, in the order the `$match` names the dimensions.
    pub dim_filters: Vec<DimFilter>,
    /// Step ii's filter on the fact, beside the `$in` semi-joins.
    pub extra: Filter,
    /// `query{N}_intermediate` for a pipeline ending in
    /// `$out: query{N}_output`, else `{fact}_intermediate`.
    pub intermediate: String,
    /// Step iii, in the order the pipeline first reads each dimension.
    pub embeds: Vec<Embed>,
    /// Step iv.
    pub aggregate: Pipeline,
}

impl Fig48Plan {
    /// Steps ii–iv, given step i's keys in `dim_filters` order.
    pub fn finish(&self, store: &dyn Store, keys: &[Vec<Value>]) -> Result<Vec<Document>> {
        let referenced = self.semi_join(store, keys)?;
        self.embed(store, referenced)?;
        store.aggregate(&self.intermediate, &self.aggregate)
    }

    /// Step ii: materializes the fact rows whose foreign keys hold step
    /// i's `keys` into the intermediate collection. Returns, per embed,
    /// the keys those rows reference.
    pub fn semi_join(&self, store: &dyn Store, keys: &[Vec<Value>]) -> Result<Vec<Vec<Value>>> {
        let constraints: Vec<(&str, &[Value])> =
            self.dim_filters.iter().zip(keys).map(|(d, k)| (d.fk.column, &k[..])).collect();
        let referenced: Vec<&str> = self.embeds.iter().map(|e| e.fk.column).collect();
        let (fact, extra) = (self.fact.name(), self.extra.clone());
        Ok(semi_join_into(store, fact, &constraints, extra, &self.intermediate, &referenced)?.1)
    }

    /// Step iii: embeds, per foreign key, the documents among its
    /// `referenced` keys. Returns the number of embed statements sent.
    pub fn embed(&self, store: &dyn Store, referenced: Vec<Vec<Value>>) -> Result<usize> {
        let mut statements = 0;
        for (e, keys) in self.embeds.iter().zip(referenced) {
            let docs = expanded_dimension_docs(store, &e.fk, Some(keys), &e.nested);
            let (field, pk) = (e.fk.column, e.fk.ref_column);
            let report = embed_documents_from(store, &self.intermediate, field, pk, docs)?;
            statements += report.dim_docs;
        }
        Ok(statements)
    }
}

/// Runs a plan, its step-i filters one after another (the thesis: "the
/// entire query was performed on a single thread").
pub fn run_plan(store: &dyn Store, plan: &Fig48Plan) -> Result<Vec<Document>> {
    let keys: Vec<Vec<Value>> = plan.dim_filters.iter().map(|d| d.keys(store)).collect();
    plan.finish(store, &keys)
}

/// Derives the Fig 4.8 plan of `pipeline`, a pipeline over `fact`'s
/// denormalized collection.
pub fn normalize(fact: TableId, pipeline: &Pipeline) -> TResult<Fig48Plan> {
    let (def, fks) = (table_def(fact), foreign_keys_of(fact));
    let (head, rest) = match pipeline.stages() {
        [Stage::Match(f), rest @ ..] => (conjuncts(f), rest),
        stages => (Vec::new(), stages),
    };
    let (dim_filters, extra) = split_match(&def, &fks, head)?;
    let is_end = |s: &Stage| matches!(s, Stage::Group { .. } | Stage::Project(_));
    let Some(end) = rest.iter().position(is_end) else {
        return err("no $group or $project: the rows would carry every dimension");
    };
    let query = pipeline.out_target().and_then(|o| o.strip_suffix("_output"));
    Ok(Fig48Plan {
        fact,
        dim_filters,
        extra,
        intermediate: format!("{}_intermediate", query.unwrap_or(fact.name())),
        embeds: embeds_read(&def, &fks, &rest[..=end])?,
        aggregate: rest.iter().cloned().fold(Pipeline::new(), Pipeline::stage),
    })
}

/// Steps i and ii: the leading `$match`'s conjuncts, as dimension
/// filters and the fact's own filter.
fn split_match(
    def: &TableDef,
    fks: &[ForeignKey],
    conjuncts: Vec<Filter>,
) -> TResult<(Vec<DimFilter>, Filter)> {
    let mut dims: Vec<(&ForeignKey, Vec<Filter>)> = Vec::new();
    let mut extra = Vec::new();
    for c in conjuncts {
        let paths = c.referenced_paths();
        let mut owners: Vec<Option<&ForeignKey>> = Vec::new();
        let mut bare = false;
        for path in &paths {
            let at = locate(def, fks, path)?;
            bare |= at.is_some_and(|(_, tail)| tail.is_empty());
            if !owners.contains(&at.map(|(fk, _)| fk)) {
                owners.push(at.map(|(fk, _)| fk));
            }
        }
        let fk = match owners[..] {
            [] | [None] => {
                extra.push(c);
                continue;
            }
            [Some(fk)] => fk,
            _ => return err(format!("{paths:?}: one conjunct spans two foreign keys or the fact")),
        };
        let (key, dim) = (format!("{}.{}", fk.column, fk.ref_column), fk.ref_table);
        if c == Filter::exists(key) || c == Filter::exists(fk.column) {
            extra.push(Filter::exists(fk.column));
            continue;
        }
        if bare {
            return err(format!("{paths:?}: compares the embedded {dim} whole"));
        }
        let mut filter = c.clone();
        rebase(&mut filter, fk.column.len() + 1);
        if matches(&filter, &Document::new()) {
            return err(format!("{paths:?}: keeps rows without a {dim}, which no semi-join can"));
        }
        match dims.iter_mut().find(|(d, _)| *d == fk) {
            Some((_, parts)) => parts.push(filter),
            None => dims.push((fk, vec![filter])),
        }
    }
    let dims = dims
        .into_iter()
        .map(|(fk, parts)| DimFilter { fk: fk.clone(), filter: Filter::and(parts) });
    Ok((dims.collect(), Filter::and(extra)))
}

/// Step iii: the foreign keys under which `stages` read a path.
fn embeds_read(def: &TableDef, fks: &[ForeignKey], stages: &[Stage]) -> TResult<Vec<Embed>> {
    let mut embeds: Vec<Embed> = Vec::new();
    for stage in stages {
        let mut paths = Vec::new();
        match stage {
            Stage::Match(f) => paths = f.referenced_paths(),
            Stage::Sort(keys) => paths.extend(keys.iter().map(|(p, _)| p.as_str())),
            Stage::Limit(_) | Stage::Skip(_) => {}
            Stage::Group { id, fields } => {
                if let GroupId::Expr(e) = id {
                    e.collect_paths(&mut paths);
                }
                fields.iter().for_each(|(_, acc)| spec_expr(acc).collect_paths(&mut paths));
            }
            Stage::Project(fields) if fields.iter().all(|(_, f)| *f == ProjectField::Exclude) => {
                return err("an exclusion $project passes every embedded dimension on");
            }
            Stage::Project(fields) => {
                for (name, field) in fields {
                    match field {
                        ProjectField::Include => paths.push(name),
                        ProjectField::Compute(e) => e.collect_paths(&mut paths),
                        ProjectField::Exclude => {}
                    }
                }
            }
            other => {
                return err(format!("{other:?} before the first $group / $project is outside the \
                                    match / project / group fragment"));
            }
        }
        for path in paths {
            let Some((fk, tail)) = locate(def, fks, path)? else { continue };
            let i = embeds.iter().position(|e| e.fk == *fk).unwrap_or_else(|| {
                embeds.push(Embed { fk: fk.clone(), nested: Vec::new() });
                embeds.len() - 1
            });
            // The whole document carries every nested dimension; a path
            // through one of its foreign keys, that one.
            let (next, _) = tail.split_once('.').unwrap_or((tail, ""));
            for inner in foreign_keys_of(fk.ref_table) {
                if (tail.is_empty() || inner.column == next) && !embeds[i].nested.contains(&inner) {
                    embeds[i].nested.push(inner);
                }
            }
        }
    }
    Ok(embeds)
}

/// The top-level conjuncts of a filter.
fn conjuncts(f: &Filter) -> Vec<Filter> {
    match f {
        Filter::True => Vec::new(),
        Filter::And(parts) => parts.iter().flat_map(conjuncts).collect(),
        other => vec![other.clone()],
    }
}

/// Where `path` points: a field of the fact `def` (`None`), or under one
/// of `fks` with the rest of the path (empty when the path is the key).
fn locate<'f, 'p>(
    def: &TableDef,
    fks: &'f [ForeignKey],
    path: &'p str,
) -> TResult<Option<(&'f ForeignKey, &'p str)>> {
    let (head, rest) = path.split_once('.').unwrap_or((path, ""));
    match fks.iter().find(|fk| fk.column == head) {
        Some(fk) => Ok(Some((fk, rest))),
        None if def.column_index(head).is_some() => Ok(None),
        None => err(format!("`{path}`: {head} is no column or foreign key of {}", def.id)),
    }
}

/// Cuts the first `cut` bytes (a foreign key and its dot) off every path.
fn rebase(f: &mut Filter, cut: usize) {
    match f {
        Filter::True => {}
        Filter::Cmp { path, .. }
        | Filter::In { path, .. }
        | Filter::Nin { path, .. }
        | Filter::Exists { path, .. } => {
            path.drain(..cut);
        }
        Filter::And(fs) | Filter::Or(fs) | Filter::Nor(fs) => {
            fs.iter_mut().for_each(|f| rebase(f, cut))
        }
        Filter::Not(f) => rebase(f, cut),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{denormalized_pipeline, fact_of};
    use doclite_docstore::Accumulator;
    use doclite_tpcds::{QueryId, QueryParams};
    use TableId::*;

    fn params() -> QueryParams {
        QueryParams::for_scale(0.01)
    }

    fn plan(q: QueryId) -> TResult<Fig48Plan> {
        normalize(fact_of(q), &denormalized_pipeline(q, &params()).1)
    }

    fn dims(plan: &Fig48Plan) -> Vec<TableId> {
        plan.dim_filters.iter().map(|d| d.fk.ref_table).collect()
    }

    /// Each embed as (dimension, the foreign keys expanded inside it).
    fn embeds(plan: &Fig48Plan) -> Vec<(TableId, Vec<&str>)> {
        let nested = |e: &Embed| e.nested.iter().map(|n| n.column).collect();
        plan.embeds.iter().map(|e| (e.fk.ref_table, nested(e))).collect()
    }

    /// The error for a pipeline of `head` then a count.
    fn rejection(head: Pipeline) -> String {
        let pipeline = head.group(GroupId::Null, [("n", Accumulator::count())]);
        normalize(StoreSales, &pipeline).expect_err("outside the fragment").0
    }

    #[test]
    fn q7_filters_three_dimensions_and_embeds_item() {
        let (p, q7) = (plan(QueryId::Q7).unwrap(), params().q7);
        assert_eq!(dims(&p), [CustomerDemographics, Promotion, DateDim]);
        let cd = Filter::and([
            Filter::eq("cd_gender", q7.gender),
            Filter::eq("cd_marital_status", q7.marital_status),
            Filter::eq("cd_education_status", q7.education_status),
        ]);
        let promo =
            Filter::or([Filter::eq("p_channel_email", "N"), Filter::eq("p_channel_event", "N")]);
        let filters: Vec<&Filter> = p.dim_filters.iter().map(|d| &d.filter).collect();
        assert_eq!(filters, [&cd, &promo, &Filter::eq("d_year", q7.year)]);
        assert_eq!(p.extra, Filter::exists("ss_item_sk"));
        assert_eq!(embeds(&p), [(Item, vec![])]);
        assert_eq!(p.intermediate, "query7_intermediate");
        let (_, pipeline) = denormalized_pipeline(QueryId::Q7, &params());
        assert_eq!(p.aggregate.stages(), &pipeline.stages()[1..], "step iv keeps the $out");
    }

    #[test]
    fn q21_filters_item_and_date_and_embeds_three_dimensions() {
        let p = plan(QueryId::Q21).unwrap();
        assert_eq!(dims(&p), [Item, DateDim]);
        let q21 = params().q21;
        let price = Filter::between("i_current_price", q21.price_lo, q21.price_hi);
        assert_eq!(p.dim_filters[0].filter, price, "a between stays one filter");
        assert_eq!(p.extra, Filter::exists("inv_warehouse_sk"));
        assert_eq!(embeds(&p), [(Warehouse, vec![]), (Item, vec![]), (DateDim, vec![])]);
        assert_eq!(p.intermediate, "query21_intermediate");
    }

    #[test]
    fn q46_embeds_customer_with_its_current_address() {
        let p = plan(QueryId::Q46).unwrap();
        assert_eq!(dims(&p), [Store, DateDim, HouseholdDemographics]);
        let exists = Filter::and([Filter::exists("ss_addr_sk"), Filter::exists("ss_customer_sk")]);
        assert_eq!(p.extra, exists);
        assert_eq!(
            embeds(&p),
            [(Customer, vec!["c_current_addr_sk"]), (CustomerAddress, vec![])]
        );
        assert_eq!(p.intermediate, "query46_intermediate");
    }

    #[test]
    fn q50_fact_to_fact_edge_is_not_in_the_catalog() {
        let e = plan(QueryId::Q50).unwrap_err().0;
        assert!(e.contains("ss_return is no column or foreign key of store_sales"), "{e}");
    }

    #[test]
    fn inputs_outside_the_fragment_are_errors_not_panics() {
        let both = Filter::or([
            Filter::eq("ss_cdemo_sk.cd_gender", "M"),
            Filter::eq("ss_promo_sk.p_channel_email", "N"),
        ]);
        let e = rejection(Pipeline::new().match_stage(both));
        assert!(e.contains("spans two foreign keys"), "{e}");
        let e = rejection(Pipeline::new().match_stage(Filter::eq("ss_nope.x", 1i64)));
        assert!(e.contains("ss_nope is no column or foreign key"), "{e}");
        let e = rejection(Pipeline::new().unwind("ss_item_sk"));
        assert!(e.starts_with("Unwind(") && e.contains("outside the"), "{e}");
        let e = rejection(Pipeline::new().lookup("item", "ss_item_sk", "i_item_sk", "item"));
        assert!(e.starts_with("Lookup {") && e.contains("outside the"), "{e}");
        // A dimension filter that keeps a row whose dimension is absent
        // has no semi-join form.
        let e = rejection(Pipeline::new().match_stage(Filter::ne("ss_item_sk.i_color", "red")));
        assert!(e.contains("keeps rows without a item"), "{e}");
        let e = rejection(Pipeline::new().match_stage(Filter::eq("ss_item_sk", 1i64)));
        assert!(e.contains("compares the embedded item whole"), "{e}");
        let e = normalize(StoreSales, &Pipeline::new().sort([("ss_item_sk.i_item_id", 1)]));
        assert!(e.unwrap_err().0.contains("no $group or $project"));
        let e = rejection(Pipeline::new().project([("_id", ProjectField::Exclude)]));
        assert!(e.contains("exclusion $project"), "{e}");
    }

    #[test]
    fn reading_a_whole_dimension_expands_its_foreign_keys() {
        let pipeline = Pipeline::new()
            .match_stage(Filter::eq("ss_quantity", 3i64))
            .project([("ss_customer_sk", ProjectField::Include)]);
        let p = normalize(StoreSales, &pipeline).unwrap();
        assert!(p.dim_filters.is_empty());
        assert_eq!(p.extra, Filter::eq("ss_quantity", 3i64));
        assert_eq!(
            embeds(&p),
            [(Customer, vec!["c_current_cdemo_sk", "c_current_hdemo_sk", "c_current_addr_sk"])]
        );
        assert_eq!(p.intermediate, "store_sales_intermediate");
    }
}
