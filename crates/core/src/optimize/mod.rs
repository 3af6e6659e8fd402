//! The Section 4.2 optimizations of the nested relational approach.
//!
//! * [`fused`] — pipelined nest + linking selection (§4.2.2), shared by
//!   the other strategies;
//! * [`pipeline`] — the "optimized nested relational approach": a single
//!   physical reordering plus a pipelined cascade of linking selections
//!   for linear queries (§4.2.1 + §4.2.2);
//! * [`linear`] — bottom-up evaluation of linear correlated queries
//!   (§4.2.3) and its nest-push-down variant;
//! * [`pushdown`] — the nest-past-join commutation rule itself (§4.2.4);
//! * [`positive`] — the rewrite of all-positive queries into semijoin
//!   cascades (§4.2.5).

pub mod fused;
pub mod linear;
pub mod pipeline;
pub mod positive;
pub mod pushdown;

pub use fused::{fused_nest_select, FusedLink};
pub use pushdown::outer_join_nested;
