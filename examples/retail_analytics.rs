//! The paper's motivating domain: LogicBlox "uses incremental computation
//! to support a suite of data mining and machine learning tools for
//! retail" (§I). This example keeps a retail rule base materialized while
//! point-of-sale data streams in, and runs the update through the real
//! threaded executor with the Hybrid scheduler.
//!
//! Run: `cargo run --example retail_analytics`

use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::sched::{Hybrid, LevelBased};

const RULES: &str = "
    % --- product catalog (base tables) ---
    product(widget, gadgets). product(sprocket, gadgets).
    product(tea, grocery). product(coffee, grocery).
    price(widget, 10). price(sprocket, 25). price(tea, 4). price(coffee, 7).

    % --- point-of-sale events (base table, streamed) ---
    sale(s1, widget). sale(s2, tea). sale(s3, widget).

    % --- derived analytics ---
    sold(P)          :- sale(T, P).
    category_hit(C)  :- sold(P), product(P, C).
    premium_sale(P)  :- sold(P), price(P, 25).
    stale_product(P) :- product(P, C), !sold(P).
    restock(C)       :- category_hit(C), product(P, C), stale_product(P).

    % --- aggregates (stratified, incrementally maintained) ---
    volume(C, count(T))    :- sale(T, P), product(P, C).
    revenue(C, sum(V))     :- sale(T, P), product(P, C), price(P, V).
    top_price(C, max(V))   :- sold(P), product(P, C), price(P, V).
";

fn main() {
    let mut engine = IncrementalEngine::new(RULES).expect("valid rule base");
    println!("initial materialization:");
    report(&engine);
    // `revenue` adds each category's distinct price points that sold.
    assert_aggregates(
        &engine,
        ["(gadgets, 2)", "(grocery, 1)"],
        ["(gadgets, 10)", "(grocery, 4)"],
        ["(gadgets, 10)", "(grocery, 4)"],
    );

    let dag = engine.dag().clone();
    println!(
        "\npredicate task graph: {} tasks, {} dependencies, {} levels",
        dag.node_count(),
        dag.edge_count(),
        dag.num_levels()
    );

    // Afternoon batch: two sales and a price change... sales only — price
    // is a separate base table we leave alone here.
    println!("\n-- batch 1: sprocket and coffee sell --");
    let mut sched = Hybrid::new(dag.clone());
    let rep = engine
        .update(
            &mut sched,
            &[
                FactEdit::add("sale", &["s4", "sprocket"]),
                FactEdit::add("sale", &["s5", "coffee"]),
            ],
        )
        .expect("update");
    println!(
        "re-ran {} predicate tasks ({} edges fired); scheduling cost: {} ops",
        rep.tasks_executed,
        rep.edges_fired,
        rep.sched_cost.total_ops()
    );
    report(&engine);
    assert!(engine.has("premium_sale", &["sprocket"]));
    assert!(!engine.has("stale_product", &["sprocket"]));
    assert_aggregates(
        &engine,
        ["(gadgets, 3)", "(grocery, 2)"],
        ["(gadgets, 35)", "(grocery, 11)"],
        ["(gadgets, 25)", "(grocery, 7)"],
    );

    // A return voids the only widget-free... remove both widget sales:
    // widget goes stale, its category needs restocking review.
    println!("\n-- batch 2: widget sales voided --");
    let mut sched = LevelBased::new(dag.clone());
    let rep = engine
        .update(
            &mut sched,
            &[
                FactEdit::remove("sale", &["s1", "widget"]),
                FactEdit::remove("sale", &["s3", "widget"]),
            ],
        )
        .expect("update");
    println!("re-ran {} predicate tasks", rep.tasks_executed);
    report(&engine);
    assert!(engine.has("stale_product", &["widget"]));
    assert!(
        engine.has("restock", &["gadgets"]),
        "gadgets still sell (sprocket) but widget is stale -> restock review"
    );
    // Only the groups the voids touched moved: gadgets lost two sales and
    // its 10 price point; its top price (sprocket, 25) stayed.
    assert_aggregates(
        &engine,
        ["(gadgets, 1)", "(grocery, 2)"],
        ["(gadgets, 25)", "(grocery, 11)"],
        ["(gadgets, 25)", "(grocery, 7)"],
    );

    println!("\n-- batch 3: the sprocket sale voided too --");
    let mut sched = LevelBased::new(dag);
    engine
        .update(&mut sched, &[FactEdit::remove("sale", &["s4", "sprocket"])])
        .expect("update");
    report(&engine);
    // Nothing in gadgets sold: the category has no volume, revenue or top
    // price left at all.
    assert_aggregates(&engine, ["(grocery, 2)"], ["(grocery, 11)"], ["(grocery, 7)"]);
}

/// `volume`, `revenue` and `top_price`, each as its sorted rows.
fn assert_aggregates<const N: usize>(
    engine: &IncrementalEngine,
    volume: [&str; N],
    revenue: [&str; N],
    top_price: [&str; N],
) {
    for (pred, want) in [("volume", volume), ("revenue", revenue), ("top_price", top_price)] {
        let mut rows = engine.query(&format!("{pred}(?, ?)")).expect("valid pattern");
        rows.sort();
        assert_eq!(rows, want, "{pred}");
    }
}

fn report(engine: &IncrementalEngine) {
    for pred in ["sold", "category_hit", "premium_sale", "stale_product", "restock"] {
        println!("  {:<14} {} facts", pred, engine.count(pred));
    }
    for pred in ["volume", "revenue", "top_price"] {
        let rows = engine.query(&format!("{pred}(?, ?)")).unwrap_or_default();
        println!("  {:<14} {}", pred, rows.join("  "));
    }
}
