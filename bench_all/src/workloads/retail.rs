//! `retail_burst`: the rules of `examples/retail_analytics.rs`, verbatim,
//! over generated point-of-sale data arriving in bursts.
//!
//! Negation plus three aggregate strata: every update re-folds whole
//! groups and pays the engine's per-update fixed cost, while the deltas
//! themselves are tiny. Bursts make `DeltaQueue` coalescing decide latency.

use super::{Arrivals, DatalogInput, EditStream, Fact, Queries};
use crate::stats::Rng;
use incr_datalog::FactEdit;
use std::time::Duration;

pub const RULES: &str = "
    sold(P)          :- sale(T, P).
    category_hit(C)  :- sold(P), product(P, C).
    premium_sale(P)  :- sold(P), price(P, 25).
    stale_product(P) :- product(P, C), !sold(P).
    restock(C)       :- category_hit(C), product(P, C), stale_product(P).

    volume(C, count(T))    :- sale(T, P), product(P, C).
    revenue(C, sum(V))     :- sale(T, P), product(P, C), price(P, V).
    top_price(C, max(V))   :- sold(P), product(P, C), price(P, V).
";

const PRODUCTS: usize = 2_000;
const CATEGORIES: usize = 40;
const INITIAL_SALES: usize = 20_000;
const MAX_PRICE: usize = 50;
pub const BURST: usize = 10;
pub const BURST_PERIOD: Duration = Duration::from_millis(250);
/// Every this-many-th burst opens with a sale and the void of that sale.
const CANCEL_EVERY_BURSTS: usize = 10;

struct RetailStream {
    rng: Rng,
    /// `(ticket, product)` of every present sale.
    sales: Vec<(usize, usize)>,
    prices: Vec<usize>,
    next_ticket: usize,
    /// Updates produced so far: position in the burst pattern.
    produced: usize,
    /// The sale the next update must void (second half of a cancel pair).
    void_next: Option<(usize, usize)>,
}

fn sale_args(ticket: usize, product: usize) -> Vec<String> {
    vec![format!("t{ticket}"), format!("p{product}")]
}

fn price_args(product: usize, price: usize) -> Vec<String> {
    vec![format!("p{product}"), price.to_string()]
}

impl RetailStream {
    fn new_sale(&mut self) -> (usize, usize) {
        let sale = (self.next_ticket, self.rng.below(PRODUCTS));
        self.next_ticket += 1;
        sale
    }
}

impl EditStream for RetailStream {
    fn next_update(&mut self) -> Vec<FactEdit> {
        let at = self.produced;
        self.produced += 1;
        if let Some((t, p)) = self.void_next.take() {
            return vec![FactEdit::Remove {
                pred: "sale".into(),
                args: sale_args(t, p),
            }];
        }
        let add_sale = |(t, p): (usize, usize)| FactEdit::Add {
            pred: "sale".into(),
            args: sale_args(t, p),
        };
        let (burst, position) = (at / BURST, at % BURST);
        if position == 0 && burst % CANCEL_EVERY_BURSTS == CANCEL_EVERY_BURSTS - 1 {
            let sale = self.new_sale();
            self.void_next = Some(sale);
            return vec![add_sale(sale)];
        }
        match self.rng.below(100) {
            0..=59 => {
                let sale = self.new_sale();
                self.sales.push(sale);
                vec![add_sale(sale)]
            }
            60..=89 => {
                let (t, p) = self.sales.swap_remove(self.rng.below(self.sales.len()));
                vec![FactEdit::Remove {
                    pred: "sale".into(),
                    args: sale_args(t, p),
                }]
            }
            _ => {
                let p = self.rng.below(PRODUCTS);
                let old = self.prices[p];
                // A different price in 1..=MAX_PRICE.
                let new = 1 + (old + self.rng.below(MAX_PRICE - 1)) % MAX_PRICE;
                self.prices[p] = new;
                vec![
                    FactEdit::Remove {
                        pred: "price".into(),
                        args: price_args(p, old),
                    },
                    FactEdit::Add {
                        pred: "price".into(),
                        args: price_args(p, new),
                    },
                ]
            }
        }
    }
}

pub fn input(seed: u64) -> DatalogInput {
    let mut rng = Rng::new(seed ^ 0x005e_7a11);
    let mut facts: Vec<Fact> = Vec::with_capacity(2 * PRODUCTS + INITIAL_SALES);
    let mut prices = Vec::with_capacity(PRODUCTS);
    for p in 0..PRODUCTS {
        let category = rng.below(CATEGORIES);
        facts.push(("product", vec![format!("p{p}"), format!("c{category}")]));
        let price = 1 + rng.below(MAX_PRICE);
        prices.push(price);
        facts.push(("price", price_args(p, price)));
    }
    let sales: Vec<(usize, usize)> = (0..INITIAL_SALES)
        .map(|t| (t, rng.below(PRODUCTS)))
        .collect();
    facts.extend(sales.iter().map(|&(t, p)| ("sale", sale_args(t, p))));
    DatalogInput {
        rules: RULES,
        facts,
        stream: Box::new(RetailStream {
            rng,
            sales,
            prices,
            next_ticket: INITIAL_SALES,
            produced: 0,
            void_next: None,
        }),
        arrivals: Arrivals::Bursts {
            size: BURST,
            period: BURST_PERIOD,
        },
        queries: Queries {
            point_pred: "sold",
            point_args: |k| vec![format!("p{}", k % PRODUCTS)],
            scan_pattern: "revenue(?, ?)",
        },
        reader_thread: false,
        shard_pass: false,
    }
}
