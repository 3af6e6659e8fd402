//! Morsel-style partition scheduler for the nested-relational pipeline.
//!
//! The paper's operators are built from hash-partitionable primitives —
//! outer hash joins on correlation predicates, `nest` grouped by the same
//! outer keys, and per-tuple linking/pseudo-selections — so each of them
//! decomposes into independent units of work. This module provides the
//! shared machinery those operators use to run the units on worker
//! threads while keeping the output **byte-identical** to the sequential
//! engine:
//!
//! * a per-query worker budget ([`threads`]) read from the thread's
//!   [`QueryCtx`](crate::ctx::QueryCtx) ([`set_threads`] writes it;
//!   unset, the process [`Config`]'s `NRA_THREADS` applies);
//! * a morsel-size floor ([`partitions`]) so tiny inputs never pay the
//!   spawn cost;
//! * [`run_partitioned`] — scoped fork/join (`std::thread::scope`, no
//!   external dependencies) that returns worker results *in partition
//!   order*, merges worker-side [`nra_obs`] collections back into the
//!   coordinating thread deterministically, carries the coordinator's
//!   whole [`QueryCtx`](crate::ctx::QueryCtx) onto every worker, and
//!   **contains worker panics**: a panic anywhere inside a partition
//!   closure surfaces as
//!   [`EngineError::WorkerPanicked`] after all sibling partitions have
//!   drained, never as a process abort;
//! * [`chunks`] — contiguous input splitting, so concatenating worker
//!   outputs in partition order reproduces the sequential scan order;
//! * [`sort_rows_by`] — a stable parallel merge sort whose output equals
//!   `slice::sort_by` exactly (stable-sort output is unique).
//!
//! Determinism argument: every parallel operator in this engine follows
//! one of two shapes. Either it chunks a scan whose per-tuple results are
//! independent and concatenates the chunk outputs in partition order
//! (linking selections, join probes), or it hash-partitions on a grouping
//! key so that all tuples of one group land in one partition and the
//! groups are re-emitted in a globally defined order (hash-join builds,
//! hash nest). Both shapes reproduce the sequential output order, not
//! just the same multiset. Errors are deterministic too: when several
//! partitions fail, the error of the lowest-numbered partition is the
//! one reported (first-error-wins in partition order, not in completion
//! order).

use std::cmp::Ordering;
use std::ops::Range;

use crate::config::Config;
use crate::ctx::{self, CtxGuard};
use crate::error::EngineError;
use crate::{faultinject, governor};

/// Default minimum rows per worker before an operator partitions.
/// Spawning a scoped thread costs ~10µs; below this floor the sequential
/// path is faster and (more importantly for tests) the committed
/// baselines at small scales keep their sequential shape.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Hard cap on the worker budget (a runaway `NRA_THREADS` should not
/// spawn thousands of threads).
pub const MAX_THREADS: usize = 64;

/// The worker budget for operators on this thread: the context's budget
/// when set, else the process [`Config`]'s `NRA_THREADS`, else 1
/// (sequential). Always in `1..=MAX_THREADS`.
pub fn threads() -> usize {
    ctx::with(|c| c.threads.get())
        .or_else(|| Config::process().threads)
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// Set (or with `None`, clear) this thread's worker budget for the
/// lifetime of the returned guard. `Database::execute` resolves
/// `QueryOptions::threads` over this ambient value; clearing falls back
/// to the process [`Config`].
pub fn set_threads(n: Option<usize>) -> CtxGuard {
    ctx::update(|c| c.threads = n.map(|n| n.clamp(1, MAX_THREADS)))
}

/// The current morsel floor (minimum rows per worker).
pub fn morsel_rows() -> usize {
    ctx::with(|c| c.morsel_rows.get()).unwrap_or(DEFAULT_MORSEL_ROWS)
}

/// Override the morsel floor for the lifetime of the returned guard.
/// Agreement tests set this to 1 so that even 10-row corpora exercise
/// every parallel code path.
pub fn set_morsel_rows(n: usize) -> CtxGuard {
    ctx::update(|c| c.morsel_rows = Some(n.max(1)))
}

/// How many partitions a scan of `rows` rows should use: bounded by the
/// worker budget and by the morsel floor, never zero. With the default
/// budget of 1 this is always 1, which keeps every operator on its
/// original sequential path.
pub fn partitions(rows: usize) -> usize {
    threads().min(rows / morsel_rows().max(1)).max(1)
}

/// Split `0..len` into `parts` contiguous ranges of near-equal size (the
/// first `len % parts` ranges carry one extra element). Concatenating
/// per-range outputs in order reproduces a sequential scan of `0..len`.
pub fn chunks(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let (base, extra) = (len / parts, len % parts);
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let hi = lo + base + usize::from(p < extra);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Best-effort rendering of a panic payload for
/// [`EngineError::WorkerPanicked`] messages (`panic!` payloads are
/// `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into a structured
/// [`EngineError::WorkerPanicked`] instead of unwinding further. Used
/// around every partition closure (including partition 0, which runs
/// inline on the coordinator) and around the whole statement by the
/// query lifecycle, so a panicking operator can never abort the process
/// or poison the scheduler.
pub fn contain<T, E: From<EngineError>>(
    site: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(E::from(EngineError::WorkerPanicked {
            site: site.to_string(),
            message: panic_message(payload.as_ref()),
        })),
    }
}

/// Run `f(p)` for every partition `p in 0..parts` and return the results
/// in partition order.
///
/// Partition 0 runs inline on the calling thread (its observability spans
/// reach the parent collector directly); partitions `1..` run on scoped
/// worker threads under the calling thread's captured context
/// ([`ctx::capture`]), and their collected profiles are absorbed into
/// the parent collector *in partition order* after the join — so merged
/// counters are deterministic regardless of how the OS schedules the
/// workers. With `parts == 1` this degenerates to a plain call with zero
/// thread overhead.
///
/// Failure semantics: a cancelled query fails at dispatch (before any
/// spawn); a partition that returns `Err` or panics does not interrupt
/// its siblings — every partition runs to completion (remaining morsels
/// drain, worker collectors unwind cleanly) and the error of the
/// lowest-numbered failing partition is returned.
pub fn run_partitioned<T, F>(parts: usize, f: F) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize) -> Result<T, EngineError> + Sync,
{
    governor::checkpoint("partition-dispatch")?;
    faultinject::hit(faultinject::PARTITION_MERGE)?;
    if parts <= 1 {
        return Ok(vec![contain("partition-0", || f(0))?]);
    }
    let worker_ctx = ctx::capture();
    let mut results: Vec<Result<T, EngineError>> = Vec::with_capacity(parts);
    let mut profiles: Vec<Option<nra_obs::Profile>> = Vec::with_capacity(parts - 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..parts)
            .map(|p| {
                let (worker_ctx, f) = (&worker_ctx, &f);
                s.spawn(move || {
                    // Contain inside the context so the worker's
                    // collector is torn down normally even on panic.
                    worker_ctx.enter(|| {
                        contain("worker", || {
                            governor::checkpoint("worker-start")?;
                            f(p)
                        })
                    })
                })
            })
            .collect();
        results.push(contain("partition-0", || f(0)));
        for handle in handles {
            match handle.join() {
                Ok((out, profile)) => {
                    results.push(out);
                    profiles.push(profile);
                }
                // `contain` already catches panics inside the closure;
                // this arm only fires if unwinding escaped it (e.g. a
                // panic in the handoff teardown itself).
                Err(payload) => {
                    results.push(Err(EngineError::WorkerPanicked {
                        site: "worker".to_string(),
                        message: panic_message(payload.as_ref()),
                    }));
                    profiles.push(None);
                }
            }
        }
    });
    // Worker profiles merge in partition order even when some partition
    // failed: the counters that were collected stay deterministic, and
    // nothing leaks into the next query.
    for profile in profiles.into_iter().flatten() {
        nra_obs::absorb(&profile);
    }
    results.into_iter().collect()
}

/// Stable parallel sort of `rows`, byte-identical to
/// `rows.sort_by(&cmp)`: contiguous chunks are stably sorted on workers,
/// then adjacent sorted runs are merged pairwise with ties always taken
/// from the left (lower-index) run. The composition is a stable sort, and
/// a stable sort's output permutation is unique, so the result equals the
/// sequential one. Falls back to `sort_by` when [`partitions`] says the
/// input is too small.
///
/// Sorting happens on an index vector (workers share `&rows` read-only),
/// and the final permutation moves each row exactly once. The index
/// scratch (two `u32` vectors) is charged to the governor as sort
/// scratch before it is allocated.
pub fn sort_rows_by<T, F>(rows: &mut Vec<T>, cmp: F) -> Result<(), EngineError>
where
    T: Sync + Send + Default,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let parts = partitions(rows.len());
    if parts <= 1 {
        governor::checkpoint("sort")?;
        rows.sort_by(&cmp);
        return Ok(());
    }
    governor::charge("sort", 8 * rows.len() as u64)?;
    let n = rows.len();
    let mut runs = chunks(n, parts);
    let mut src: Vec<u32> = Vec::with_capacity(n);
    let mut dst: Vec<u32> = vec![0; n];
    {
        let view = &rows[..];
        let cmp = &cmp;
        // Phase 1: stable-sort each chunk's indices in parallel. Equal
        // rows keep ascending index order within a chunk.
        let sorted = run_partitioned(parts, |p| {
            let r = runs[p].clone();
            let mut idx: Vec<u32> = (r.start as u32..r.end as u32).collect();
            idx.sort_by(|&a, &b| cmp(&view[a as usize], &view[b as usize]));
            Ok(idx)
        })?;
        for chunk in sorted {
            src.extend_from_slice(&chunk);
        }
        // Phase 2: merge adjacent runs pairwise until one run remains.
        // Each pair writes a disjoint slice of `dst`; ties take the left
        // run, whose indices are the smaller ones — overall stability.
        while runs.len() > 1 {
            governor::checkpoint("sort-merge")?;
            let mut next_runs = Vec::with_capacity(runs.len().div_ceil(2));
            std::thread::scope(|s| {
                let mut dst_rest: &mut [u32] = &mut dst;
                let mut i = 0;
                while i < runs.len() {
                    if i + 1 == runs.len() {
                        // Odd run out: carried over verbatim.
                        let r = runs[i].clone();
                        let (out, rest) = dst_rest.split_at_mut(r.len());
                        dst_rest = rest;
                        out.copy_from_slice(&src[r.clone()]);
                        next_runs.push(r);
                        i += 1;
                        continue;
                    }
                    let (a, b) = (runs[i].clone(), runs[i + 1].clone());
                    let merged = a.start..b.end;
                    let (out, rest) = dst_rest.split_at_mut(merged.len());
                    dst_rest = rest;
                    let src = &src;
                    s.spawn(move || {
                        merge_runs(&src[a], &src[b], out, |&x, &y| {
                            cmp(&view[x as usize], &view[y as usize])
                        })
                    });
                    next_runs.push(merged);
                    i += 2;
                }
            });
            std::mem::swap(&mut src, &mut dst);
            runs = next_runs;
        }
    }
    // Phase 3: apply the permutation. Every index occurs exactly once, so
    // each row is taken out of the old vector exactly once.
    let mut old = std::mem::take(rows);
    rows.extend(src.iter().map(|&i| std::mem::take(&mut old[i as usize])));
    Ok(())
}

/// Stable two-run merge: on ties the left run wins.
fn merge_runs<T: Copy>(a: &[T], b: &[T], out: &mut [T], mut cmp: impl FnMut(&T, &T) -> Ordering) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_left = i < a.len() && (j >= b.len() || cmp(&a[i], &b[j]) != Ordering::Greater);
        if take_left {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Hash a grouping key with the standard library's deterministic
/// `DefaultHasher` (fixed-key SipHash — the same key always lands in the
/// same partition, across runs and across build/probe sides).
pub fn key_hash<K: std::hash::Hash>(key: &K) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Run `f` with a given budget and a morsel floor of 1.
    fn with_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let _t = set_threads(Some(threads));
        let _m = set_morsel_rows(1);
        f()
    }

    #[test]
    fn default_budget_is_sequential() {
        // No override and (in the test environment) no NRA_THREADS: every
        // operator sees exactly one partition.
        if Config::process().threads.is_none() {
            assert_eq!(threads(), 1);
            assert_eq!(partitions(1 << 20), 1);
        }
    }

    #[test]
    fn morsel_floor_keeps_small_inputs_sequential() {
        let _t = set_threads(Some(8));
        assert_eq!(partitions(DEFAULT_MORSEL_ROWS - 1), 1);
        assert_eq!(partitions(2 * DEFAULT_MORSEL_ROWS), 2);
        assert_eq!(partitions(100 * DEFAULT_MORSEL_ROWS), 8);
    }

    #[test]
    fn chunks_cover_contiguously() {
        for (len, parts) in [(10, 3), (3, 10), (0, 4), (7, 1), (8, 4)] {
            let cs = chunks(len, parts);
            assert_eq!(cs.len(), parts.max(1));
            let mut expect = 0;
            for c in &cs {
                assert_eq!(c.start, expect);
                expect = c.end;
            }
            assert_eq!(expect, len);
        }
    }

    #[test]
    fn run_partitioned_returns_in_partition_order() -> Result<(), EngineError> {
        let out = with_budget(4, || {
            run_partitioned(4, |p| {
                // Make later partitions finish first.
                std::thread::sleep(std::time::Duration::from_millis(4 - p as u64));
                Ok(p * 10)
            })
        })?;
        assert_eq!(out, vec![0, 10, 20, 30]);
        Ok(())
    }

    #[test]
    fn run_partitioned_merges_worker_stats_deterministically() -> Result<(), String> {
        nra_obs::enable();
        with_budget(4, || {
            run_partitioned(4, |p| {
                let mut sp = nra_obs::span(|| "work".to_string());
                sp.rows_out(p + 1);
                Ok(())
            })
        })
        .map_err(|e| e.to_string())?;
        let profile = nra_obs::disable().ok_or("collection was not enabled")?;
        let s = profile.get("work").ok_or("missing `work` entry")?;
        assert_eq!(s.invocations, 4);
        assert_eq!(s.rows_out, 1 + 2 + 3 + 4);
        Ok(())
    }

    #[test]
    fn partition_panics_become_structured_errors() {
        for t in [1usize, 2, 4] {
            let result = with_budget(t, || {
                run_partitioned(t, |p| -> Result<(), EngineError> {
                    if p == t - 1 {
                        panic!("boom in partition {p}");
                    }
                    Ok(())
                })
            });
            match result {
                Err(EngineError::WorkerPanicked { message, .. }) => {
                    assert!(message.contains("boom"), "threads={t}: {message}");
                }
                other => panic!("threads={t}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn first_error_wins_in_partition_order() {
        let result = with_budget(4, || {
            run_partitioned(4, |p| -> Result<(), EngineError> {
                // Lower-numbered partitions fail later in wall time: the
                // reported error must still be partition 0's.
                std::thread::sleep(std::time::Duration::from_millis(p as u64));
                Err(EngineError::Unsupported(format!("p{p}")))
            })
        });
        assert_eq!(result, Err(EngineError::Unsupported("p0".into())));
    }

    #[test]
    fn failing_partition_drains_siblings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = Arc::new(AtomicUsize::new(0));
        let result = with_budget(4, || {
            run_partitioned(4, |p| {
                ran.fetch_add(1, Ordering::SeqCst);
                if p == 0 {
                    Err(EngineError::Unsupported("p0 fails".into()))
                } else {
                    Ok(())
                }
            })
        });
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "all partitions must run");
    }

    #[test]
    fn cancelled_dispatch_refuses_to_spawn() {
        let token = governor::CancelToken::new();
        token.cancel();
        let gov = Arc::new(governor::Governor::new().cancel_token(token));
        let _g = governor::install(Some(gov));
        let result = with_budget(4, || run_partitioned(4, Ok));
        assert!(matches!(result, Err(EngineError::Cancelled { .. })));
    }

    /// A worker sees the coordinator's whole context — thread budget,
    /// morsel floor, batch width, governor, per-query metrics, progress —
    /// and the coordinator's own context is restored afterwards.
    #[test]
    fn workers_inherit_the_whole_context() -> Result<(), EngineError> {
        use nra_obs::{metrics, progress};
        let gov = Arc::new(governor::Governor::new().mem_limit(1 << 30));
        let registry = Arc::new(metrics::Registry::default());
        let state = Arc::new(progress::ProgressState::new());
        {
            let _metrics = metrics::install_query(Some(registry.clone()));
            let _progress = progress::install(Some(state.clone()));
            let _gov = governor::install(Some(gov.clone()));
            let _batch = crate::vec::set_batch_rows(Some(3));
            let _threads = set_threads(Some(4));
            let _morsel = set_morsel_rows(7);
            let seen = run_partitioned(4, |_| {
                governor::charge("worker", 100)?;
                metrics::both(|m| m.counter_add("nra_ctx_test_total", &[], 1));
                progress::on_rows(10, "ctx-test");
                let same_gov = ctx::current()
                    .governor
                    .is_some_and(|g| Arc::ptr_eq(&g, &gov));
                Ok((threads(), morsel_rows(), crate::vec::batch_rows(), same_gov))
            })?;
            assert_eq!(seen, vec![(4, 7, 3, true); 4]);
        }
        // Every thread's pending charges were flushed on the way out.
        assert_eq!(gov.mem_used(), 400);
        assert_eq!(registry.snapshot().counter_total("nra_ctx_test_total"), 4);
        assert_eq!(state.snapshot().rows_processed, 40);
        let after = ctx::current();
        assert!(after.governor.is_none() && after.morsel_rows.is_none());
        assert!(after.threads.is_none() && after.batch_rows.is_none());

        // Enforcement crosses threads too: a 2-byte budget must trip
        // charges made from workers.
        let _g = governor::install(Some(Arc::new(governor::Governor::new().mem_limit(2))));
        let result = with_budget(4, || {
            run_partitioned(4, |_| governor::charge("worker-alloc", 64 * 8))
        });
        assert!(matches!(result, Err(EngineError::ResourceExhausted { .. })));
        Ok(())
    }

    #[test]
    fn parallel_sort_equals_sequential_stable_sort() -> Result<(), EngineError> {
        // Pairs sorted by the first component only: the second component
        // witnesses stability.
        let mut rng = 0x2545_F491u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [0usize, 1, 2, 7, 100, 1000, 4097] {
            let data: Vec<(u64, usize)> = (0..len).map(|i| (next() % 17, i)).collect();
            let mut expect = data.clone();
            expect.sort_by_key(|a| a.0);
            for t in [2, 3, 4] {
                let mut got = data.clone();
                with_budget(t, || sort_rows_by(&mut got, |a, b| a.0.cmp(&b.0)))?;
                assert_eq!(got, expect, "len={len} threads={t}");
            }
        }
        Ok(())
    }

    #[test]
    fn key_hash_is_stable_across_calls() {
        assert_eq!(key_hash(&42u64), key_hash(&42u64));
        assert_ne!(key_hash(&1u64), key_hash(&2u64));
    }
}
