//! A step-by-step walkthrough of the paper's Example 1/2 and Query Q
//! (Sections 2–4): the unnesting outer joins, the nest operator, and the
//! linking/pseudo-selections, printed at each stage.
//!
//! ```sh
//! cargo run --example paper_query_q
//! ```

use nra::core::linking::{LinkSelection, SetQuant};
use nra::core::nest::nest;
use nra::engine::planning::split_join_conds;
use nra::engine::{join, JoinSpec};
use nra::sql::parse_and_bind;
use nra::storage::CmpOp;
use nra::{Database, Engine, QueryOptions, Strategy};
use nra_engine::JoinKind;
use nra_tpch::paper_example::{rst_catalog, QUERY_Q};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cat = rst_catalog();

    println!("Query Q (paper, Section 2):\n  {QUERY_Q}\n");
    println!("Base relations (primary keys: r.d, s.i, t.l):");
    for name in ["r", "s", "t"] {
        println!("-- {name}\n{}\n", cat.table(name)?.data());
    }

    // ---- Algorithm 1 by hand -------------------------------------------
    // Step 1: reduce each block: T1 = σ_{a>1}(R), T2 = σ_{f=5}(S), T3 = T —
    // keeping only the columns the rest of the query mentions (r.a and s.f
    // appear in the local predicates alone, so they stay in the tables).
    let bq = parse_and_bind(QUERY_Q, &cat)?;
    let block_base = nra::engine::planning::block_base;
    let t1 = block_base(&bq.root, &cat, false)?;
    let t2 = block_base(&bq.root.children[0].block, &cat, false)?;
    let t3 = block_base(&bq.root.children[0].block.children[0].block, &cat, false)?;
    println!("T1 = σ(r.a > 1)(R): {} tuples", t1.len());
    println!("T2 = σ(s.f = 5)(S): {} tuples", t2.len());
    println!("T3 = T: {} tuples\n", t3.len());

    // Step 2 (down): Temp1 = (T1 ⟕_{r.d = s.g} T2) ⟕_{t.k = r.c ∧ t.l ≠ s.i} T3.
    let s2 = &bq.root.children[0].block;
    let split12 = split_join_conds(&s2.correlated_preds, t1.schema(), t2.schema())?;
    let rel12 = join(
        &t1,
        &t2,
        &JoinSpec::new(JoinKind::LeftOuter, split12.eq, split12.residual),
    )?;
    let s3 = &s2.children[0].block;
    let split123 = split_join_conds(&s3.correlated_preds, rel12.schema(), t3.schema())?;
    let temp1 = join(
        &rel12,
        &t3,
        &JoinSpec::new(JoinKind::LeftOuter, split123.eq, split123.residual),
    )?;
    println!("Temp1 = (T1 ⟕ T2) ⟕ T3 — the unnested flat intermediate:");
    println!("{}\n", temp1);

    // Step 3 (up): Temp2 = υ nest by the R++S columns keeping T's.
    let temp2 = nest(
        &temp1,
        &["r.b", "r.c", "r.d", "s.e", "s.g", "s.h", "s.i"],
        &["t.j", "t.l"],
        "tset",
    )?;
    println!("Temp2 = υ(R,S-attrs),(t.j, t.l)(Temp1) — one tuple per (R,S) pair,");
    println!("        t.l (T's primary key) carried as the emptiness marker:");
    println!("{}\n", temp2);

    // Temp3 = σ̄ pseudo-selection for L2: s.h > ALL {t.j}, padding S's
    // attributes on failure (the NOT IN above still needs the R tuple!).
    let l2 = LinkSelection::quant("s.h", CmpOp::Gt, SetQuant::All, "t.j", Some("t.l"));
    let temp3 = l2
        .pseudo_select(&temp2, "tset", &["s.e", "s.g", "s.h", "s.i"])?
        .atoms_as_relation();
    println!("Temp3 = σ̄(s.h > ALL {{t.j}}) — failing S tuples padded, not dropped:");
    println!("{}\n", temp3);

    // Temp4: nest by R's attributes keeping (s.e, s.i), then the plain
    // linking selection for L1: r.b <> ALL {s.e} (i.e. NOT IN).
    let temp4_nested = nest(&temp3, &["r.b", "r.c", "r.d"], &["s.e", "s.i"], "sset")?;
    println!("υ(R-attrs),(s.e, s.i)(Temp3):\n{}\n", temp4_nested);
    let l1 = LinkSelection::quant("r.b", CmpOp::Ne, SetQuant::All, "s.e", Some("s.i"));
    let temp4 = l1.select(&temp4_nested, "sset")?.atoms_as_relation();
    println!("Temp4 = σ(r.b <> ALL {{s.e}}) — the surviving R tuples:");
    println!("{}\n", temp4);

    // ---- The same thing through the engines ----------------------------
    let db = Database::from_catalog(rst_catalog());
    let explain = db.execute(QUERY_Q, &QueryOptions::new().explain_only(true))?;
    println!("explain:\n{}", explain.plan.unwrap());
    for (name, engine) in [
        ("oracle (tuple iteration)", Engine::Reference),
        ("baseline (System A plans)", Engine::Baseline),
        (
            "NR original (Algorithm 1)",
            Engine::NestedRelational(Strategy::Original),
        ),
        (
            "NR optimized (1 sort, pipelined)",
            Engine::NestedRelational(Strategy::Optimized),
        ),
    ] {
        let out = db.execute(QUERY_Q, &QueryOptions::new().engine(engine))?;
        println!("-- {name}\n{}\n", out.rows);
    }
    Ok(())
}
