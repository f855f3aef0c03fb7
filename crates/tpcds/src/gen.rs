//! The deterministic, seeded data generator (the reproduction's `dsdgen`).
//!
//! Every row is generated independently from a per-row RNG seeded by
//! `(generator seed, table, row index)`, so generation is reproducible,
//! random-access (a `store_returns` row can re-derive the `store_sales`
//! line it returns without storing anything), and streamable.
//!
//! Distribution choices are documented inline; each exists to make the
//! four workload queries select plausible fractions of data:
//!
//! * sales dates are uniform over 1998-01-01..2002-12-31 (Q7's
//!   `d_year = 2001` selects ~20%, Q46's weekend days of 1998–2000 select
//!   ~17% of 60%);
//! * `customer_demographics` is the positional cross-product dsdgen uses,
//!   so Q7's `(M, M, 4 yr Degree)` filter selects exactly 1/70 of it;
//! * `household_demographics` is likewise positional: `hd_dep_count = 2`
//!   or `hd_vehicle_count = 3` selects 1/10 + 1/6 − 1/60;
//! * `store_returns` rows reference real `store_sales` lines and return
//!   1–130 days after the sale, giving Q50's day-range buckets mass;
//! * inventory snapshots are weekly over the same five years, so Q21's
//!   ±30-day window around 2002-05-29 captures ~9 weeks.

use crate::counts::{row_count, INVENTORY_WEEKS};
use crate::dates::Date;
use crate::schema::{table_def, TableId};
use crate::text;
use doclite_bson::{Document, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated column value.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    Null,
    Int(i64),
    Dec(f64),
    Str(String),
}

impl Cell {
    /// Renders the `.dat` field text (empty string for NULL, as dsdgen).
    pub fn to_dat_field(&self) -> String {
        match self {
            Cell::Null => String::new(),
            Cell::Int(i) => i.to_string(),
            Cell::Dec(d) => format!("{d:.2}"),
            Cell::Str(s) => s.clone(),
        }
    }

    /// Converts to a document value (used when bypassing `.dat` files);
    /// a string moves into the value.
    pub fn into_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int64(i),
            Cell::Dec(d) => Value::Double(d),
            Cell::Str(s) => Value::String(s),
        }
    }

    fn str(s: impl Into<String>) -> Cell {
        Cell::Str(s.into())
    }

    fn dec2(d: f64) -> Cell {
        Cell::Dec((d * 100.0).round() / 100.0)
    }
}

/// First calendar day with sales activity.
pub const SALES_START: Date = Date { year: 1998, month: 1, day: 1 };
/// Number of selling days (1998-01-01 ..= 2002-12-31).
pub const SALES_DAYS: i64 = 1826;
/// First weekly inventory snapshot.
pub const INVENTORY_START: Date = Date { year: 1998, month: 1, day: 6 };
/// Average sale lines per register ticket.
pub const LINES_PER_TICKET: u64 = 12;
/// Average lines per catalog/web order.
pub const LINES_PER_ORDER: u64 = 8;
/// Probability that a nullable foreign key is NULL.
const NULL_PROB: f64 = 0.02;

/// The seeded generator for one dataset.
#[derive(Clone, Copy, Debug)]
pub struct Generator {
    sf: f64,
    seed: u64,
}

impl Generator {
    /// A generator at a scale factor with the default seed.
    pub fn new(sf: f64) -> Self {
        Self::with_seed(sf, 0x7C05_D5EE_D5EE_D00C)
    }

    /// A generator with an explicit seed.
    pub fn with_seed(sf: f64, seed: u64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        Generator { sf, seed }
    }

    /// The scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.sf
    }

    /// Rows this generator produces for a table.
    pub fn row_count(&self, table: TableId) -> u64 {
        row_count(table, self.sf)
    }

    fn rng(&self, table: TableId, stream: u64, idx: u64) -> SmallRng {
        // splitmix-style mixing of (seed, table, stream, idx).
        let mut z = self
            .seed
            .wrapping_add((table as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(idx.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SmallRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Generates row `idx` (0-based) of a table.
    pub fn row(&self, table: TableId, idx: u64) -> Vec<Cell> {
        assert!(idx < self.row_count(table), "row {idx} out of range for {table}");
        match table {
            TableId::StoreSales => self.store_sales_row(idx),
            TableId::StoreReturns => self.store_returns_row(idx),
            TableId::Inventory => self.inventory_row(idx),
            TableId::CatalogSales => self.catalog_sales_row(idx),
            TableId::CatalogReturns => self.catalog_returns_row(idx),
            TableId::WebSales => self.web_sales_row(idx),
            TableId::WebReturns => self.web_returns_row(idx),
            TableId::DateDim => self.date_dim_row(idx),
            TableId::TimeDim => self.time_dim_row(idx),
            TableId::Item => self.item_row(idx),
            TableId::Customer => self.customer_row(idx),
            TableId::CustomerAddress => self.customer_address_row(idx),
            TableId::CustomerDemographics => customer_demographics_row(idx),
            TableId::HouseholdDemographics => household_demographics_row(idx),
            TableId::IncomeBand => income_band_row(idx),
            TableId::Promotion => self.promotion_row(idx),
            TableId::Reason => reason_row(idx),
            TableId::ShipMode => ship_mode_row(idx),
            TableId::Store => self.store_row(idx),
            TableId::Warehouse => self.warehouse_row(idx),
            TableId::CallCenter => self.call_center_row(idx),
            TableId::CatalogPage => self.catalog_page_row(idx),
            TableId::WebPage => self.web_page_row(idx),
            TableId::WebSite => self.web_site_row(idx),
        }
    }

    /// Streams all rows of a table.
    pub fn rows(&self, table: TableId) -> impl Iterator<Item = Vec<Cell>> + '_ {
        (0..self.row_count(table)).map(move |i| self.row(table, i))
    }

    /// Generates row `idx` directly as a document (column names as keys,
    /// NULL columns omitted — the migration algorithm's convention).
    pub fn document(&self, table: TableId, idx: u64) -> Document {
        let def = table_def(table);
        // Collected, so the field vector is sized for the whole row and
        // wrapped once.
        let cells = self.row(table, idx);
        def.columns
            .iter()
            .zip(cells)
            .filter(|(_, cell)| *cell != Cell::Null)
            .map(|(col, cell)| (col.name.to_owned(), cell.into_value()))
            .collect()
    }

    /// Streams all documents of a table.
    pub fn documents(&self, table: TableId) -> impl Iterator<Item = Document> + '_ {
        (0..self.row_count(table)).map(move |i| self.document(table, i))
    }

    // ----- shared derivations ------------------------------------------

    fn maybe_null(&self, rng: &mut SmallRng, cell: Cell) -> Cell {
        if rng.random::<f64>() < NULL_PROB {
            Cell::Null
        } else {
            cell
        }
    }

    fn sales_date(&self, rng: &mut SmallRng) -> Date {
        SALES_START.plus_days(rng.random_range(0..SALES_DAYS))
    }

    fn fk(&self, rng: &mut SmallRng, table: TableId) -> i64 {
        rng.random_range(1..=self.row_count(table) as i64)
    }

    fn null_fk(&self, rng: &mut SmallRng, table: TableId) -> Cell {
        let v = self.fk(rng, table);
        self.maybe_null(rng, Cell::Int(v))
    }

    /// A nullable reference into time_dim.
    fn null_time(&self, rng: &mut SmallRng) -> Cell {
        let v = rng.random_range(0..self.row_count(TableId::TimeDim) as i64);
        self.maybe_null(rng, Cell::Int(v))
    }

    /// The per-ticket attributes shared by all lines of one store-sales
    /// ticket: (sold_date, customer, cdemo, hdemo, addr, store).
    fn ticket_attrs(&self, ticket: u64) -> (Date, i64, i64, i64, i64, i64) {
        let mut rng = self.rng(TableId::StoreSales, 1, ticket);
        let date = self.sales_date(&mut rng);
        let customer = self.fk(&mut rng, TableId::Customer);
        let cdemo = self.fk(&mut rng, TableId::CustomerDemographics);
        let hdemo = self.fk(&mut rng, TableId::HouseholdDemographics);
        let addr = self.fk(&mut rng, TableId::CustomerAddress);
        let store = self.fk(&mut rng, TableId::Store);
        (date, customer, cdemo, hdemo, addr, store)
    }

    // ----- fact tables --------------------------------------------------

    fn store_sales_row(&self, idx: u64) -> Vec<Cell> {
        let ticket = idx / LINES_PER_TICKET + 1;
        let (date, customer, cdemo, hdemo, addr, store) = self.ticket_attrs(ticket);
        let mut rng = self.rng(TableId::StoreSales, 0, idx);

        let item = self.fk(&mut rng, TableId::Item);
        let promo = self.fk(&mut rng, TableId::Promotion);
        let time_sk = rng.random_range(0..self.row_count(TableId::TimeDim) as i64);
        let quantity = rng.random_range(1..=100i64);
        let wholesale = rng.random_range(1.00..=100.0f64);
        let list = wholesale * rng.random_range(1.0..=2.0f64);
        let discount = rng.random_range(0.0..=1.0f64);
        let sales = list * (1.0 - discount * 0.8);
        let q = quantity as f64;
        let ext_discount = q * (list - sales);
        let ext_sales = q * sales;
        let ext_wholesale = q * wholesale;
        let ext_list = q * list;
        let tax = ext_sales * 0.08;
        let coupon = if rng.random::<f64>() < 0.1 { ext_sales * rng.random_range(0.0..=0.5) } else { 0.0 };
        let net_paid = ext_sales - coupon;
        let net_paid_inc_tax = net_paid + tax;
        let net_profit = net_paid - ext_wholesale;

        vec![
            self.maybe_null(&mut rng, Cell::Int(date.date_sk())),
            self.maybe_null(&mut rng, Cell::Int(time_sk)),
            Cell::Int(item),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(store)),
            self.maybe_null(&mut rng, Cell::Int(promo)),
            Cell::Int(ticket as i64),
            Cell::Int(quantity),
            Cell::dec2(wholesale),
            Cell::dec2(list),
            Cell::dec2(sales),
            Cell::dec2(ext_discount),
            Cell::dec2(ext_sales),
            Cell::dec2(ext_wholesale),
            Cell::dec2(ext_list),
            Cell::dec2(tax),
            Cell::dec2(coupon),
            Cell::dec2(net_paid),
            Cell::dec2(net_paid_inc_tax),
            Cell::dec2(net_profit),
        ]
    }

    /// The `store_sales` line a `store_returns` row refunds.
    pub fn returned_sale_line(&self, ret_idx: u64) -> u64 {
        let ss = self.row_count(TableId::StoreSales);
        (ret_idx.wrapping_mul(10).wrapping_add(3)) % ss
    }

    fn store_returns_row(&self, idx: u64) -> Vec<Cell> {
        let sale_idx = self.returned_sale_line(idx);
        let ticket = sale_idx / LINES_PER_TICKET + 1;
        let (sold_date, customer, cdemo, hdemo, addr, store) = self.ticket_attrs(ticket);
        // Re-derive the sold line's item deterministically.
        let mut sale_rng = self.rng(TableId::StoreSales, 0, sale_idx);
        let item = self.fk(&mut sale_rng, TableId::Item);

        let mut rng = self.rng(TableId::StoreReturns, 0, idx);
        let returned = sold_date.plus_days(rng.random_range(1..=130i64));
        let reason = self.fk(&mut rng, TableId::Reason);
        let qty = rng.random_range(1..=50i64);
        let amt = rng.random_range(1.0..=500.0f64);
        let tax = amt * 0.08;
        let fee = rng.random_range(0.5..=100.0f64);
        let ship = rng.random_range(0.0..=50.0f64);
        let refunded = amt * rng.random_range(0.0..=1.0f64);
        let reversed = amt - refunded;

        vec![
            self.maybe_null(&mut rng, Cell::Int(returned.date_sk())),
            self.null_time(&mut rng),
            Cell::Int(item),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(store)),
            self.maybe_null(&mut rng, Cell::Int(reason)),
            Cell::Int(ticket as i64),
            Cell::Int(qty),
            Cell::dec2(amt),
            Cell::dec2(tax),
            Cell::dec2(amt + tax),
            Cell::dec2(fee),
            Cell::dec2(ship),
            Cell::dec2(refunded),
            Cell::dec2(reversed),
            Cell::dec2(0.0),
            Cell::dec2(amt * 0.5 + fee),
        ]
    }

    fn inventory_row(&self, idx: u64) -> Vec<Cell> {
        let total = self.row_count(TableId::Inventory);
        let items = self.row_count(TableId::Item);
        let warehouses = self.row_count(TableId::Warehouse);
        let per_week = (total / INVENTORY_WEEKS).max(1);
        let week = (idx / per_week).min(INVENTORY_WEEKS - 1);
        let within = idx % per_week;
        let item = within % items + 1;
        let warehouse = (within / items) % warehouses + 1;
        let date = INVENTORY_START.plus_days(week as i64 * 7);
        let mut rng = self.rng(TableId::Inventory, 0, idx);
        vec![
            Cell::Int(date.date_sk()),
            Cell::Int(item as i64),
            Cell::Int(warehouse as i64),
            {
                let qty = rng.random_range(0..=1000i64);
                self.maybe_null(&mut rng, Cell::Int(qty))
            },
        ]
    }

    fn catalog_sales_row(&self, idx: u64) -> Vec<Cell> {
        let order = idx / LINES_PER_ORDER + 1;
        let mut orng = self.rng(TableId::CatalogSales, 1, order);
        let date = self.sales_date(&mut orng);
        let bill_customer = self.fk(&mut orng, TableId::Customer);
        let bill_cdemo = self.fk(&mut orng, TableId::CustomerDemographics);
        let bill_hdemo = self.fk(&mut orng, TableId::HouseholdDemographics);
        let bill_addr = self.fk(&mut orng, TableId::CustomerAddress);
        let cc = self.fk(&mut orng, TableId::CallCenter);

        let mut rng = self.rng(TableId::CatalogSales, 0, idx);
        let item = self.fk(&mut rng, TableId::Item);
        let quantity = rng.random_range(1..=100i64);
        let wholesale = rng.random_range(1.0..=100.0f64);
        let list = wholesale * rng.random_range(1.0..=2.0);
        let sales = list * rng.random_range(0.2..=1.0);
        let q = quantity as f64;
        let ship_cost = rng.random_range(0.0..=50.0f64);
        let ship_date = date.plus_days(rng.random_range(1..=30));

        vec![
            self.maybe_null(&mut rng, Cell::Int(date.date_sk())),
            self.null_time(&mut rng),
            self.maybe_null(&mut rng, Cell::Int(ship_date.date_sk())),
            self.maybe_null(&mut rng, Cell::Int(bill_customer)),
            self.maybe_null(&mut rng, Cell::Int(bill_cdemo)),
            self.maybe_null(&mut rng, Cell::Int(bill_hdemo)),
            self.maybe_null(&mut rng, Cell::Int(bill_addr)),
            self.maybe_null(&mut rng, Cell::Int(bill_customer)),
            self.maybe_null(&mut rng, Cell::Int(bill_cdemo)),
            self.maybe_null(&mut rng, Cell::Int(bill_hdemo)),
            self.maybe_null(&mut rng, Cell::Int(bill_addr)),
            self.maybe_null(&mut rng, Cell::Int(cc)),
            self.null_fk(&mut rng, TableId::CatalogPage),
            self.null_fk(&mut rng, TableId::ShipMode),
            self.null_fk(&mut rng, TableId::Warehouse),
            Cell::Int(item),
            self.null_fk(&mut rng, TableId::Promotion),
            Cell::Int(order as i64),
            Cell::Int(quantity),
            Cell::dec2(wholesale),
            Cell::dec2(list),
            Cell::dec2(sales),
            Cell::dec2(q * (list - sales)),
            Cell::dec2(q * sales),
            Cell::dec2(q * wholesale),
            Cell::dec2(q * list),
            Cell::dec2(q * sales * 0.08),
            Cell::dec2(0.0),
            Cell::dec2(ship_cost),
            Cell::dec2(q * sales),
            Cell::dec2(q * sales * 1.08),
            Cell::dec2(q * sales + ship_cost),
            Cell::dec2(q * sales * 1.08 + ship_cost),
            Cell::dec2(q * (sales - wholesale)),
        ]
    }

    fn catalog_returns_row(&self, idx: u64) -> Vec<Cell> {
        let cs = self.row_count(TableId::CatalogSales);
        let sale_idx = (idx.wrapping_mul(10).wrapping_add(7)) % cs;
        let order = sale_idx / LINES_PER_ORDER + 1;
        let mut orng = self.rng(TableId::CatalogSales, 1, order);
        let sold = self.sales_date(&mut orng);
        let customer = self.fk(&mut orng, TableId::Customer);
        let cdemo = self.fk(&mut orng, TableId::CustomerDemographics);
        let hdemo = self.fk(&mut orng, TableId::HouseholdDemographics);
        let addr = self.fk(&mut orng, TableId::CustomerAddress);
        let cc = self.fk(&mut orng, TableId::CallCenter);
        let mut sale_rng = self.rng(TableId::CatalogSales, 0, sale_idx);
        let item = self.fk(&mut sale_rng, TableId::Item);

        let mut rng = self.rng(TableId::CatalogReturns, 0, idx);
        let returned = sold.plus_days(rng.random_range(1..=130));
        let amt = rng.random_range(1.0..=500.0f64);
        vec![
            self.maybe_null(&mut rng, Cell::Int(returned.date_sk())),
            self.null_time(&mut rng),
            Cell::Int(item),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(cc)),
            self.null_fk(&mut rng, TableId::CatalogPage),
            self.null_fk(&mut rng, TableId::ShipMode),
            self.null_fk(&mut rng, TableId::Warehouse),
            self.null_fk(&mut rng, TableId::Reason),
            Cell::Int(order as i64),
            Cell::Int(rng.random_range(1..=50i64)),
            Cell::dec2(amt),
            Cell::dec2(amt * 0.08),
            Cell::dec2(amt * 1.08),
            Cell::dec2(rng.random_range(0.5..=100.0)),
            Cell::dec2(rng.random_range(0.0..=50.0)),
            Cell::dec2(amt * 0.6),
            Cell::dec2(amt * 0.4),
            Cell::dec2(0.0),
            Cell::dec2(amt * 0.5),
        ]
    }

    fn web_sales_row(&self, idx: u64) -> Vec<Cell> {
        let order = idx / LINES_PER_ORDER + 1;
        let mut orng = self.rng(TableId::WebSales, 1, order);
        let date = self.sales_date(&mut orng);
        let customer = self.fk(&mut orng, TableId::Customer);
        let cdemo = self.fk(&mut orng, TableId::CustomerDemographics);
        let hdemo = self.fk(&mut orng, TableId::HouseholdDemographics);
        let addr = self.fk(&mut orng, TableId::CustomerAddress);

        let mut rng = self.rng(TableId::WebSales, 0, idx);
        let item = self.fk(&mut rng, TableId::Item);
        let quantity = rng.random_range(1..=100i64);
        let wholesale = rng.random_range(1.0..=100.0f64);
        let list = wholesale * rng.random_range(1.0..=2.0);
        let sales = list * rng.random_range(0.2..=1.0);
        let q = quantity as f64;
        let ship_cost = rng.random_range(0.0..=50.0f64);
        vec![
            self.maybe_null(&mut rng, Cell::Int(date.date_sk())),
            self.null_time(&mut rng),
            {
                let ship = date.plus_days(rng.random_range(1..=30)).date_sk();
                self.maybe_null(&mut rng, Cell::Int(ship))
            },
            Cell::Int(item),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.null_fk(&mut rng, TableId::WebPage),
            self.null_fk(&mut rng, TableId::WebSite),
            self.null_fk(&mut rng, TableId::ShipMode),
            self.null_fk(&mut rng, TableId::Warehouse),
            self.null_fk(&mut rng, TableId::Promotion),
            Cell::Int(order as i64),
            Cell::Int(quantity),
            Cell::dec2(wholesale),
            Cell::dec2(list),
            Cell::dec2(sales),
            Cell::dec2(q * (list - sales)),
            Cell::dec2(q * sales),
            Cell::dec2(q * wholesale),
            Cell::dec2(q * list),
            Cell::dec2(q * sales * 0.08),
            Cell::dec2(0.0),
            Cell::dec2(ship_cost),
            Cell::dec2(q * sales),
            Cell::dec2(q * sales * 1.08),
            Cell::dec2(q * sales + ship_cost),
            Cell::dec2(q * sales * 1.08 + ship_cost),
            Cell::dec2(q * (sales - wholesale)),
        ]
    }

    fn web_returns_row(&self, idx: u64) -> Vec<Cell> {
        let ws = self.row_count(TableId::WebSales);
        let sale_idx = (idx.wrapping_mul(10).wrapping_add(1)) % ws;
        let order = sale_idx / LINES_PER_ORDER + 1;
        let mut orng = self.rng(TableId::WebSales, 1, order);
        let sold = self.sales_date(&mut orng);
        let customer = self.fk(&mut orng, TableId::Customer);
        let cdemo = self.fk(&mut orng, TableId::CustomerDemographics);
        let hdemo = self.fk(&mut orng, TableId::HouseholdDemographics);
        let addr = self.fk(&mut orng, TableId::CustomerAddress);
        let mut sale_rng = self.rng(TableId::WebSales, 0, sale_idx);
        let item = self.fk(&mut sale_rng, TableId::Item);

        let mut rng = self.rng(TableId::WebReturns, 0, idx);
        let returned = sold.plus_days(rng.random_range(1..=130));
        let amt = rng.random_range(1.0..=500.0f64);
        vec![
            self.maybe_null(&mut rng, Cell::Int(returned.date_sk())),
            self.null_time(&mut rng),
            Cell::Int(item),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.maybe_null(&mut rng, Cell::Int(customer)),
            self.maybe_null(&mut rng, Cell::Int(cdemo)),
            self.maybe_null(&mut rng, Cell::Int(hdemo)),
            self.maybe_null(&mut rng, Cell::Int(addr)),
            self.null_fk(&mut rng, TableId::WebPage),
            self.null_fk(&mut rng, TableId::Reason),
            Cell::Int(order as i64),
            Cell::Int(rng.random_range(1..=50i64)),
            Cell::dec2(amt),
            Cell::dec2(amt * 0.08),
            Cell::dec2(amt * 1.08),
            Cell::dec2(rng.random_range(0.5..=100.0)),
            Cell::dec2(rng.random_range(0.0..=50.0)),
            Cell::dec2(amt * 0.6),
            Cell::dec2(amt * 0.4),
            Cell::dec2(0.0),
            Cell::dec2(amt * 0.5),
        ]
    }

    // ----- dimensions ---------------------------------------------------

    /// First calendar day of the generated `date_dim`: 1900-01-01 at full
    /// size, 1996-01-01 when shrunk (so the workload's 1998–2002 fact
    /// dates always resolve).
    pub fn date_dim_start(&self) -> Date {
        if self.row_count(TableId::DateDim) >= 73_049 {
            Date::new(1900, 1, 1)
        } else {
            Date::new(1996, 1, 1)
        }
    }

    fn date_dim_row(&self, idx: u64) -> Vec<Cell> {
        let date = self.date_dim_start().plus_days(idx as i64);
        let sk = date.date_sk();
        let dow = date.day_of_week();
        let month_seq = (date.year - 1900) as i64 * 12 + date.month as i64 - 1;
        let week_seq = date.days_since_1900() / 7 + 1;
        let qoy = (date.month - 1) / 3 + 1;
        let quarter_seq = (date.year - 1900) as i64 * 4 + qoy as i64 - 1;
        let first_dom = Date::new(date.year, date.month, 1).date_sk();
        let last_dom =
            Date::new(date.year, date.month, crate::dates::days_in_month(date.year, date.month))
                .date_sk();
        let weekend = if dow == 0 || dow == 6 { "Y" } else { "N" };
        vec![
            Cell::Int(sk),
            Cell::str(text::business_key(idx)),
            Cell::str(date.to_iso()),
            Cell::Int(month_seq),
            Cell::Int(week_seq),
            Cell::Int(quarter_seq),
            Cell::Int(i64::from(date.year)),
            Cell::Int(i64::from(dow)),
            Cell::Int(i64::from(date.month)),
            Cell::Int(i64::from(date.day)),
            Cell::Int(i64::from(qoy)),
            Cell::Int(i64::from(date.year)),
            Cell::Int(quarter_seq),
            Cell::Int(week_seq),
            Cell::str(text::DAY_NAMES[dow as usize]),
            Cell::str(format!("{}Q{}", date.year, qoy)),
            Cell::str("N"),
            Cell::str(weekend),
            Cell::str("N"),
            Cell::Int(first_dom),
            Cell::Int(last_dom),
            Cell::Int(sk - 365),
            Cell::Int(sk - 91),
            Cell::str("N"),
            Cell::str("N"),
            Cell::str("N"),
            Cell::str("N"),
            Cell::str("N"),
        ]
    }

    fn time_dim_row(&self, idx: u64) -> Vec<Cell> {
        let count = self.row_count(TableId::TimeDim);
        let second_of_day = idx * (86_400 / count.max(1)).max(1) % 86_400;
        let hour = second_of_day / 3600;
        let minute = (second_of_day % 3600) / 60;
        let second = second_of_day % 60;
        vec![
            Cell::Int(idx as i64),
            Cell::str(text::business_key(idx)),
            Cell::Int(second_of_day as i64),
            Cell::Int(hour as i64),
            Cell::Int(minute as i64),
            Cell::Int(second as i64),
            Cell::str(if hour < 12 { "AM" } else { "PM" }),
            Cell::str(text::pick(text::SHIFTS, hour / 8)),
            Cell::str(text::pick(text::SHIFTS, hour / 3)),
            Cell::str(text::pick(text::MEAL_TIMES, hour / 6)),
        ]
    }

    fn item_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::Item, 0, idx);
        // Prices skew low (squared uniform over 0.09..100). Every 25th
        // item is pinned inside Query 21's [0.99, 1.49] band so the band
        // has deterministic ~4% coverage at every scale (dsdgen's value
        // distributions guarantee predicate coverage the same way).
        let price = if idx.is_multiple_of(25) {
            rng.random_range(0.99..=1.49)
        } else {
            let u: f64 = rng.random();
            0.09 + u * u * 99.9
        };
        let wholesale = price * rng.random_range(0.4..=0.9);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str("1997-10-27"),
            Cell::Null,
            Cell::str(text::description(idx, 15)),
            Cell::dec2(price),
            Cell::dec2(wholesale),
            Cell::Int(rng.random_range(1..=10i64) * 1_000_000 + rng.random_range(1..=16i64) * 1000),
            Cell::str(format!("brand#{}", rng.random_range(1..=50i64))),
            Cell::Int(rng.random_range(1..=16i64)),
            Cell::str(text::pick(text::ITEM_CLASSES, idx)),
            Cell::Int(rng.random_range(1..=10i64)),
            Cell::str(text::pick(text::ITEM_CATEGORIES, idx / 20)),
            Cell::Int(rng.random_range(1..=1000i64)),
            Cell::str(format!("manufact#{}", rng.random_range(1..=100i64))),
            Cell::str(text::pick(&["small", "medium", "large", "extra large", "petite", "N/A"], idx)),
            Cell::str(format!("{:08x}", rng.random::<u32>())),
            Cell::str(text::pick(text::COLORS, rng.random_range(0..text::COLORS.len() as u64))),
            Cell::str(text::pick(text::UNITS, idx)),
            Cell::str(text::pick(text::CONTAINERS, idx)),
            Cell::Int(rng.random_range(1..=100i64)),
            Cell::str(text::description(idx.wrapping_mul(7), 5)),
        ]
    }

    fn customer_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::Customer, 0, idx);
        let first = text::pick(text::FIRST_NAMES, rng.random_range(0..1_000_000));
        let last = text::pick(text::LAST_NAMES, rng.random_range(0..1_000_000));
        let birth_year = rng.random_range(1930..=1992i64);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            self.null_fk(&mut rng, TableId::CustomerDemographics),
            self.null_fk(&mut rng, TableId::HouseholdDemographics),
            self.null_fk(&mut rng, TableId::CustomerAddress),
            {
                let d = Date::new(1998, 1, 1).plus_days(rng.random_range(0..SALES_DAYS)).date_sk();
                self.maybe_null(&mut rng, Cell::Int(d))
            },
            {
                let d = Date::new(1998, 1, 1).plus_days(rng.random_range(0..SALES_DAYS)).date_sk();
                self.maybe_null(&mut rng, Cell::Int(d))
            },
            Cell::str(text::pick(&["Mr.", "Mrs.", "Ms.", "Dr.", "Miss", "Sir"], rng.random_range(0..6))),
            Cell::str(first),
            Cell::str(last),
            Cell::str(if rng.random::<bool>() { "Y" } else { "N" }),
            Cell::Int(rng.random_range(1..=28i64)),
            Cell::Int(rng.random_range(1..=12i64)),
            Cell::Int(birth_year),
            Cell::str(text::pick(&["UNITED STATES", "CANADA", "MEXICO", "FRANCE", "JAPAN"], rng.random_range(0..100))),
            Cell::Null,
            Cell::str(format!("{first}.{last}@G3sM4P.com")),
            Cell::Int(Date::new(2002, 1, 1).plus_days(rng.random_range(0..365)).date_sk()),
        ]
    }

    fn customer_address_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::CustomerAddress, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str(rng.random_range(1..=1000i64).to_string()),
            Cell::str(text::pick(text::STREET_NAMES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STREET_TYPES, rng.random_range(0..1000))),
            Cell::str(format!("Suite {}", rng.random_range(0..=990i64) / 10 * 10)),
            Cell::str(text::pick(text::CITIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::COUNTIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STATES, rng.random_range(0..1000))),
            Cell::str(format!("{:05}", rng.random_range(10000..99999i64))),
            Cell::str("United States"),
            Cell::dec2(-(rng.random_range(5..=8i64) as f64)),
            Cell::str(text::pick(&["apartment", "condo", "single family"], rng.random_range(0..3))),
        ]
    }

    fn promotion_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::Promotion, 0, idx);
        // Channels are 'N' ~90% of the time, like dsdgen, so Query 7's
        // `(email = 'N' OR event = 'N')` keeps high selectivity.
        let flag = |rng: &mut SmallRng| {
            Cell::str(if rng.random::<f64>() < 0.9 { "N" } else { "Y" })
        };
        let start = Date::new(1998, 1, 1).plus_days(rng.random_range(0..SALES_DAYS));
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::Int(start.date_sk()),
            Cell::Int(start.plus_days(rng.random_range(10..=60)).date_sk()),
            Cell::Int(self.fk(&mut rng, TableId::Item)),
            Cell::dec2(1000.0),
            Cell::Int(rng.random_range(1..=5i64)),
            Cell::str(text::pick(&["ought", "able", "pri", "ese", "anti"], idx)),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            Cell::str(text::description(idx, 8)),
            Cell::str(text::pick(text::PROMO_PURPOSES, idx)),
            Cell::str("N"),
        ]
    }

    fn store_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::Store, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str("1997-03-13"),
            Cell::Null,
            Cell::Null,
            Cell::str(text::pick(text::STORE_NAMES, idx)),
            Cell::Int(rng.random_range(200..=300i64)),
            Cell::Int(rng.random_range(5_000_000..=10_000_000i64)),
            Cell::str("8AM-8PM"),
            Cell::str(format!(
                "{} {}",
                text::pick(text::FIRST_NAMES, rng.random_range(0..1000)),
                text::pick(text::LAST_NAMES, rng.random_range(0..1000))
            )),
            Cell::Int(rng.random_range(1..=10i64)),
            Cell::str("Unknown"),
            Cell::str(text::description(idx, 20)),
            Cell::str(format!(
                "{} {}",
                text::pick(text::FIRST_NAMES, rng.random_range(0..1000)),
                text::pick(text::LAST_NAMES, rng.random_range(0..1000))
            )),
            Cell::Int(rng.random_range(1..=5i64)),
            Cell::str("Unknown"),
            Cell::Int(rng.random_range(1..=6i64)),
            Cell::str("Unknown"),
            Cell::str(rng.random_range(1..=1000i64).to_string()),
            Cell::str(text::pick(text::STREET_NAMES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STREET_TYPES, rng.random_range(0..1000))),
            Cell::str(format!("Suite {}", rng.random_range(0..=99i64) * 10)),
            // Store cities draw from the biased pool: Midway/Fairview heavy,
            // matching the Query 46 predicate's intent. Every third store is
            // pinned to the biased head of the pool so the predicate keeps
            // matching rows even at scale factors with a dozen stores, where
            // a pure 20%-per-store draw has a real chance of missing entirely.
            {
                let draw = rng.random_range(0..1000);
                if idx.is_multiple_of(3) {
                    Cell::str(text::CITIES[(idx / 3) as usize % 4])
                } else {
                    Cell::str(text::pick(text::CITIES, draw))
                }
            },
            Cell::str(text::pick(text::COUNTIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STATES, rng.random_range(0..1000))),
            Cell::str(format!("{:05}", rng.random_range(10000..99999i64))),
            Cell::str("United States"),
            Cell::dec2(-5.0),
            Cell::dec2(rng.random_range(0.0..=0.11)),
        ]
    }

    fn warehouse_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::Warehouse, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str(text::pick(text::WAREHOUSE_NAMES, idx)),
            Cell::Int(rng.random_range(50_000..=1_000_000i64)),
            Cell::str(rng.random_range(1..=1000i64).to_string()),
            Cell::str(text::pick(text::STREET_NAMES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STREET_TYPES, rng.random_range(0..1000))),
            Cell::str(format!("Suite {}", rng.random_range(0..=99i64) * 10)),
            Cell::str(text::pick(text::CITIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::COUNTIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STATES, rng.random_range(0..1000))),
            Cell::str(format!("{:05}", rng.random_range(10000..99999i64))),
            Cell::str("United States"),
            Cell::dec2(-5.0),
        ]
    }

    fn call_center_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::CallCenter, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str("1998-01-01"),
            Cell::Null,
            Cell::Null,
            Cell::Int(Date::new(1998, 1, 1).date_sk()),
            Cell::str(format!("NY Metro_{idx}")),
            Cell::str("large"),
            Cell::Int(rng.random_range(100..=700i64)),
            Cell::Int(rng.random_range(10_000..=40_000i64)),
            Cell::str("8AM-8PM"),
            Cell::str(text::pick(text::FIRST_NAMES, rng.random_range(0..1000))),
            Cell::Int(rng.random_range(1..=6i64)),
            Cell::str("More than other authori"),
            Cell::str(text::description(idx, 20)),
            Cell::str(text::pick(text::LAST_NAMES, rng.random_range(0..1000))),
            Cell::Int(rng.random_range(1..=5i64)),
            Cell::str("Unknown"),
            Cell::Int(rng.random_range(1..=6i64)),
            Cell::str("Unknown"),
            Cell::str(rng.random_range(1..=1000i64).to_string()),
            Cell::str(text::pick(text::STREET_NAMES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STREET_TYPES, rng.random_range(0..1000))),
            Cell::str(format!("Suite {}", rng.random_range(0..=99i64) * 10)),
            Cell::str(text::pick(text::CITIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::COUNTIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STATES, rng.random_range(0..1000))),
            Cell::str(format!("{:05}", rng.random_range(10000..99999i64))),
            Cell::str("United States"),
            Cell::dec2(-5.0),
            Cell::dec2(rng.random_range(0.0..=0.12)),
        ]
    }

    fn catalog_page_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::CatalogPage, 0, idx);
        let start = Date::new(1998, 1, 1).plus_days((idx as i64 % 60) * 30);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::Int(start.date_sk()),
            Cell::Int(start.plus_days(90).date_sk()),
            Cell::str("DEPARTMENT"),
            Cell::Int(idx as i64 / 100 + 1),
            Cell::Int(idx as i64 % 100 + 1),
            Cell::str(text::description(idx, 12)),
            Cell::str(text::pick(&["bi-annual", "quarterly", "monthly"], rng.random_range(0..3))),
        ]
    }

    fn web_page_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::WebPage, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str("1997-09-03"),
            Cell::Null,
            Cell::Int(Date::new(1997, 9, 3).date_sk()),
            Cell::Int(Date::new(2000, 9, 3).date_sk()),
            Cell::str(if rng.random::<bool>() { "Y" } else { "N" }),
            self.null_fk(&mut rng, TableId::Customer),
            Cell::str("http://www.foo.com"),
            Cell::str(text::pick(&["welcome", "protected", "dynamic", "feedback", "general", "ad", "order"], rng.random_range(0..7))),
            Cell::Int(rng.random_range(1000..=8000i64)),
            Cell::Int(rng.random_range(2..=25i64)),
            Cell::Int(rng.random_range(1..=7i64)),
            Cell::Int(rng.random_range(0..=4i64)),
        ]
    }

    fn web_site_row(&self, idx: u64) -> Vec<Cell> {
        let mut rng = self.rng(TableId::WebSite, 0, idx);
        vec![
            Cell::Int(idx as i64 + 1),
            Cell::str(text::business_key(idx)),
            Cell::str("1997-08-16"),
            Cell::Null,
            Cell::str(format!("site_{idx}")),
            Cell::Int(Date::new(1997, 8, 16).date_sk()),
            Cell::Null,
            Cell::str("Unknown"),
            Cell::str(text::pick(text::FIRST_NAMES, rng.random_range(0..1000))),
            Cell::Int(rng.random_range(1..=6i64)),
            Cell::str("Unknown"),
            Cell::str(text::description(idx, 20)),
            Cell::str(text::pick(text::LAST_NAMES, rng.random_range(0..1000))),
            Cell::Int(rng.random_range(1..=6i64)),
            Cell::str(text::pick(&["pri", "able", "ought", "ese", "anti", "cally"], rng.random_range(0..6))),
            Cell::str(rng.random_range(1..=1000i64).to_string()),
            Cell::str(text::pick(text::STREET_NAMES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STREET_TYPES, rng.random_range(0..1000))),
            Cell::str(format!("Suite {}", rng.random_range(0..=99i64) * 10)),
            Cell::str(text::pick(text::CITIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::COUNTIES, rng.random_range(0..1000))),
            Cell::str(text::pick(text::STATES, rng.random_range(0..1000))),
            Cell::str(format!("{:05}", rng.random_range(10000..99999i64))),
            Cell::str("United States"),
            Cell::dec2(-5.0),
            Cell::dec2(rng.random_range(0.0..=0.12)),
        ]
    }
}

// Positional cross-product dimensions (no RNG: the row index encodes the
// combination, as in dsdgen).

fn customer_demographics_row(idx: u64) -> Vec<Cell> {
    // 1,920,800 = 2 genders × 5 marital × 7 education × 20 purchase ×
    // 4 credit × 7 dep × 7 dep_employed × 7 dep_college / 10 — positional
    // decomposition over the leading factors covers all combinations
    // uniformly at any row count.
    let gender = idx % 2;
    let marital = (idx / 2) % 5;
    let education = (idx / 10) % 7;
    let purchase = (idx / 70) % 20;
    let credit = (idx / 1400) % 4;
    let dep = (idx / 5600) % 7;
    let dep_emp = (idx / 39_200) % 7;
    let dep_col = (idx / 274_400) % 7;
    vec![
        Cell::Int(idx as i64 + 1),
        Cell::str(text::GENDERS[gender as usize]),
        Cell::str(text::MARITAL_STATUS[marital as usize]),
        Cell::str(text::EDUCATION[education as usize]),
        Cell::Int((purchase as i64 + 1) * 500),
        Cell::str(text::CREDIT_RATING[credit as usize]),
        Cell::Int(dep as i64),
        Cell::Int(dep_emp as i64),
        Cell::Int(dep_col as i64),
    ]
}

fn household_demographics_row(idx: u64) -> Vec<Cell> {
    // 7,200 = 20 income bands × 6 buy potentials × 10 dep counts ×
    // 6 vehicle counts.
    let income = idx % 20;
    let buy = (idx / 20) % 6;
    let dep = (idx / 120) % 10;
    let vehicle = (idx / 1200) % 6;
    vec![
        Cell::Int(idx as i64 + 1),
        Cell::Int(income as i64 + 1),
        Cell::str(text::BUY_POTENTIAL[buy as usize]),
        Cell::Int(dep as i64),
        Cell::Int(vehicle as i64),
    ]
}

fn income_band_row(idx: u64) -> Vec<Cell> {
    vec![
        Cell::Int(idx as i64 + 1),
        Cell::Int(idx as i64 * 10_000 + 1),
        Cell::Int((idx as i64 + 1) * 10_000),
    ]
}

fn reason_row(idx: u64) -> Vec<Cell> {
    vec![
        Cell::Int(idx as i64 + 1),
        Cell::str(text::business_key(idx)),
        Cell::str(text::pick(text::REASONS, idx)),
    ]
}

fn ship_mode_row(idx: u64) -> Vec<Cell> {
    vec![
        Cell::Int(idx as i64 + 1),
        Cell::str(text::business_key(idx)),
        Cell::str(text::pick(text::SHIP_MODE_TYPES, idx)),
        Cell::str(text::pick(text::SHIP_MODE_CODES, idx / 6)),
        Cell::str(text::pick(text::CARRIERS, idx)),
        Cell::str(format!("{}", 100 + idx)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::table_def;

    fn small() -> Generator {
        Generator::new(0.001)
    }

    #[test]
    fn rows_match_schema_arity_for_every_table() {
        let g = small();
        for t in TableId::ALL {
            let def = table_def(t);
            let n = g.row_count(t).min(50);
            for i in 0..n {
                let row = g.row(t, i);
                assert_eq!(row.len(), def.columns.len(), "{t} row {i}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Generator::new(0.01);
        let b = Generator::new(0.01);
        for t in [TableId::StoreSales, TableId::Item, TableId::Customer] {
            assert_eq!(a.row(t, 7), b.row(t, 7), "{t}");
        }
        let c = Generator::with_seed(0.01, 999);
        assert_ne!(a.row(TableId::StoreSales, 7), c.row(TableId::StoreSales, 7));
    }

    #[test]
    fn primary_keys_are_sequential_and_non_null() {
        let g = small();
        for t in [TableId::Item, TableId::Customer, TableId::Store, TableId::DateDim] {
            let def = table_def(t);
            let pk_idx = def.column_index(def.primary_key[0]).unwrap();
            let r0 = g.row(t, 0);
            let r1 = g.row(t, 1);
            assert!(matches!(r0[pk_idx], Cell::Int(_)), "{t}");
            if t != TableId::DateDim {
                assert_eq!(r0[pk_idx], Cell::Int(1), "{t}");
                assert_eq!(r1[pk_idx], Cell::Int(2), "{t}");
            }
        }
    }

    #[test]
    fn store_sales_lines_share_ticket_attributes() {
        let g = Generator::new(0.01);
        let def = table_def(TableId::StoreSales);
        let cust = def.column_index("ss_customer_sk").unwrap();
        let tick = def.column_index("ss_ticket_number").unwrap();
        // Lines 0..12 share ticket 1; nullable fields may be NULL, so
        // compare only non-null pairs.
        let rows: Vec<_> = (0..LINES_PER_TICKET).map(|i| g.row(TableId::StoreSales, i)).collect();
        assert!(rows.iter().all(|r| r[tick] == Cell::Int(1)));
        let customers: Vec<&Cell> =
            rows.iter().map(|r| &r[cust]).filter(|c| **c != Cell::Null).collect();
        assert!(customers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn store_returns_reference_real_sales() {
        let g = Generator::new(0.01);
        let sr_def = table_def(TableId::StoreReturns);
        let ss_def = table_def(TableId::StoreSales);
        for ret in 0..20u64 {
            let sale_idx = g.returned_sale_line(ret);
            let sr = g.row(TableId::StoreReturns, ret);
            let ss = g.row(TableId::StoreSales, sale_idx);
            assert_eq!(
                sr[sr_def.column_index("sr_ticket_number").unwrap()],
                ss[ss_def.column_index("ss_ticket_number").unwrap()],
                "ret {ret}"
            );
            assert_eq!(
                sr[sr_def.column_index("sr_item_sk").unwrap()],
                ss[ss_def.column_index("ss_item_sk").unwrap()],
                "ret {ret}"
            );
            // Return happens after the sale.
            let (Cell::Int(sold), Cell::Int(returned)) = (
                &ss[ss_def.column_index("ss_sold_date_sk").unwrap()],
                &sr[sr_def.column_index("sr_returned_date_sk").unwrap()],
            ) else {
                continue; // either date NULLed out
            };
            assert!(returned > sold, "ret {ret}: {returned} <= {sold}");
            assert!(returned - sold <= 130);
        }
    }

    #[test]
    fn fact_fks_stay_in_dimension_range() {
        let g = Generator::new(0.01);
        let def = table_def(TableId::StoreSales);
        let item_max = g.row_count(TableId::Item) as i64;
        let cust_max = g.row_count(TableId::Customer) as i64;
        let item_idx = def.column_index("ss_item_sk").unwrap();
        let cust_idx = def.column_index("ss_customer_sk").unwrap();
        for i in 0..500 {
            let row = g.row(TableId::StoreSales, i);
            if let Cell::Int(v) = row[item_idx] {
                assert!(v >= 1 && v <= item_max, "item {v}");
            }
            if let Cell::Int(v) = row[cust_idx] {
                assert!(v >= 1 && v <= cust_max, "customer {v}");
            }
        }
    }

    #[test]
    fn demographics_cross_product_covers_q7_filter() {
        // Exactly 1/70 of cdemo rows are (M, M, 4 yr Degree).
        let g = Generator::new(0.01);
        let n = g.row_count(TableId::CustomerDemographics);
        let hits = (0..n)
            .map(customer_demographics_row)
            .filter(|r| {
                r[1] == Cell::str("M") && r[2] == Cell::str("M") && r[3] == Cell::str("4 yr Degree")
            })
            .count();
        let expected = n as usize / 70;
        assert!(
            (hits as i64 - expected as i64).abs() <= 1,
            "hits {hits}, expected ~{expected}"
        );
    }

    #[test]
    fn household_demographics_cover_q46_filter() {
        let n = 7200u64;
        let hits = (0..n)
            .map(household_demographics_row)
            .filter(|r| r[3] == Cell::Int(2) || r[4] == Cell::Int(3))
            .count() as f64;
        let expected = (1.0 / 10.0 + 1.0 / 6.0 - 1.0 / 60.0) * n as f64;
        assert!((hits - expected).abs() < 1.0, "hits {hits} vs {expected}");
    }

    #[test]
    fn inventory_weeks_span_query_21_window() {
        let g = Generator::new(0.01);
        let def = table_def(TableId::Inventory);
        let date_idx = def.column_index("inv_date_sk").unwrap();
        let n = g.row_count(TableId::Inventory);
        let Cell::Int(first) = g.row(TableId::Inventory, 0)[date_idx] else { panic!() };
        let Cell::Int(last) = g.row(TableId::Inventory, n - 1)[date_idx] else { panic!() };
        let target = Date::new(2002, 5, 29).date_sk();
        assert!(first < target - 30, "first snapshot {first}");
        assert!(last > target + 30, "last snapshot {last}");
    }

    #[test]
    fn date_dim_rows_encode_calendar_correctly() {
        let g = Generator::new(1.0);
        let def = table_def(TableId::DateDim);
        // Row for 2002-05-29.
        let idx = Date::new(2002, 5, 29).days_since_1900() as u64;
        let row = g.row(TableId::DateDim, idx);
        assert_eq!(row[def.column_index("d_date").unwrap()], Cell::str("2002-05-29"));
        assert_eq!(row[def.column_index("d_year").unwrap()], Cell::Int(2002));
        assert_eq!(row[def.column_index("d_moy").unwrap()], Cell::Int(5));
        assert_eq!(row[def.column_index("d_dom").unwrap()], Cell::Int(29));
        assert_eq!(row[def.column_index("d_dow").unwrap()], Cell::Int(3)); // Wednesday
        assert_eq!(row[def.column_index("d_weekend").unwrap()], Cell::str("N"));
    }

    #[test]
    fn document_generation_omits_nulls() {
        let g = Generator::new(0.01);
        // Scan for a row with at least one NULL and check omission.
        let def = table_def(TableId::StoreSales);
        for i in 0..200 {
            let row = g.row(TableId::StoreSales, i);
            if let Some(pos) = row.iter().position(|c| *c == Cell::Null) {
                let doc = g.document(TableId::StoreSales, i);
                assert!(doc.get(def.columns[pos].name).is_none());
                assert!(doc.len() < def.columns.len());
                return;
            }
        }
        panic!("no NULL encountered in 200 rows — NULL_PROB broken?");
    }

    #[test]
    fn store_cities_include_query_46_targets() {
        let g = Generator::new(1.0);
        let def = table_def(TableId::Store);
        let city_idx = def.column_index("s_city").unwrap();
        let cities: Vec<String> = (0..g.row_count(TableId::Store))
            .map(|i| match &g.row(TableId::Store, i)[city_idx] {
                Cell::Str(s) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(
            cities.iter().any(|c| c == "Midway" || c == "Fairview"),
            "cities: {cities:?}"
        );
    }
}
