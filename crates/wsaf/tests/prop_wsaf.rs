//! Property tests: the WSAF table behaves like a map as long as nothing is
//! evicted, never corrupts state under arbitrary workloads, and its top-K
//! index answers exactly what a full sort of the table would.

use instameasure_packet::{FlowKey, Protocol};
use instameasure_wsaf::{AccumulateOutcome, FlowEntry, WsafConfig, WsafTable, TOP_INDEX_K};
use proptest::prelude::*;
use std::collections::HashMap;

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i.rotate_left(13)).to_be_bytes(), 1, 2, Protocol::Udp)
}

/// The reference ranking: a stable sort of the live entries (slot order)
/// by packets, descending.
fn reference_top_k(table: &WsafTable, k: usize) -> Vec<FlowEntry> {
    let mut all: Vec<FlowEntry> = table.iter().copied().collect();
    all.sort_by(|a, b| b.packets.total_cmp(&a.packets));
    all.truncate(k);
    all
}

/// Checks every top-k the index can be asked for against the reference,
/// and that each index record names a live entry with its counters.
fn check_top_k(table: &WsafTable, at: &str) -> Result<(), TestCaseError> {
    let index: Vec<_> = table.top_index().collect();
    prop_assert!(index.len() <= TOP_INDEX_K, "{at}: index over capacity");
    for r in &index {
        let entry = table.get(&r.key);
        prop_assert!(entry.is_some(), "{at}: the index names an empty slot");
        let entry = entry.unwrap();
        prop_assert!(
            entry.packets == r.packets && entry.bytes == r.bytes,
            "{at}: an index record disagrees with its entry"
        );
    }
    let edges = [0, 1, TOP_INDEX_K - 1, TOP_INDEX_K, TOP_INDEX_K + 1, table.len()];
    // Also right at the index's current exact size, where a shrunken
    // index hands over to the full-scan fallback.
    for k in edges.into_iter().chain([index.len(), index.len() + 1]) {
        prop_assert_eq!(
            table.top_k_by_packets(k),
            reference_top_k(table, k),
            "{}: top_k_by_packets({}) with {} indexed of {} live",
            at,
            k,
            index.len(),
            table.len()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn matches_model_hashmap_without_eviction(
        ops in prop::collection::vec((0u32..500, 0.1f64..100.0, 0.1f64..10_000.0), 1..800),
    ) {
        // Roomy table + distinct flows well below capacity: no eviction
        // can occur, so the table must agree exactly with a HashMap.
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(14)
                .probe_limit(32)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
        let mut model: HashMap<u32, (f64, f64)> = HashMap::new();
        for (t, (i, pkts, bytes)) in ops.iter().enumerate() {
            let out = table.accumulate(&key(*i), *pkts, *bytes, t as u64);
            prop_assert!(matches!(
                out,
                AccumulateOutcome::Inserted | AccumulateOutcome::Updated
            ));
            let e = model.entry(*i).or_insert((0.0, 0.0));
            e.0 += pkts;
            e.1 += bytes;
        }
        prop_assert_eq!(table.len(), model.len());
        for (i, (pkts, bytes)) in &model {
            let entry = table.get(&key(*i)).unwrap();
            prop_assert!((entry.packets - pkts).abs() < 1e-6);
            prop_assert!((entry.bytes - bytes).abs() < 1e-6);
        }
    }

    #[test]
    fn len_is_always_consistent_under_churn(
        ops in prop::collection::vec((0u32..5000, prop::bool::ANY), 1..1500),
    ) {
        // Tiny table forces constant eviction; the live count must always
        // equal the number of occupied slots and never exceed capacity.
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(4)
                .probe_limit(8)
                .expiry_nanos(100)
                .build()
                .unwrap(),
        );
        for (t, (i, remove)) in ops.iter().enumerate() {
            if *remove {
                table.remove(&key(*i));
            } else {
                table.accumulate(&key(*i), 1.0, 64.0, t as u64);
            }
            prop_assert!(table.len() <= 16);
            prop_assert_eq!(table.len(), table.iter().count());
        }
    }

    #[test]
    fn eviction_conserves_or_shrinks_population(
        flows in prop::collection::vec(0u32..100_000, 50..300),
    ) {
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(5)
                .probe_limit(16)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
        let mut inserted = 0usize;
        let mut re_evictions = 0usize;
        for (t, i) in flows.iter().enumerate() {
            if matches!(
                table.accumulate(&key(*i), 1.0, 1.0, t as u64),
                AccumulateOutcome::Inserted | AccumulateOutcome::InsertedAfterEviction { .. }
            ) {
                inserted += 1;
            }
            // Re-accumulating a key that was just inserted must be an
            // update, never an eviction.
            if matches!(
                table.accumulate(&key(*i), 0.0, 0.0, t as u64),
                AccumulateOutcome::InsertedAfterEviction { .. }
            ) {
                re_evictions += 1;
            }
        }
        prop_assert_eq!(re_evictions, 0);
        prop_assert!(table.len() <= 32);
        prop_assert!(inserted >= table.len());
    }

    #[test]
    fn top_k_is_sorted_and_bounded(
        entries in prop::collection::vec((0u32..1000, 1.0f64..1e6), 1..200),
        k in 1usize..50,
    ) {
        let mut table = WsafTable::new(
            WsafConfig::builder().entries_log2(12).probe_limit(32).build().unwrap(),
        );
        for (i, p) in &entries {
            table.accumulate(&key(*i), *p, *p * 100.0, 0);
        }
        let top = table.top_k_by_packets(k);
        prop_assert!(top.len() <= k);
        for pair in top.windows(2) {
            prop_assert!(pair[0].packets >= pair[1].packets);
        }
        // The head of the list is the true maximum over the table.
        if let Some(head) = top.first() {
            let max = table.iter().map(|e| e.packets).fold(0.0, f64::max);
            prop_assert_eq!(head.packets, max);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn top_k_index_matches_a_full_sort_under_every_mutation(
        log2 in prop::sample::select(vec![4u32, 6, 11]),
        probe in prop::sample::select(vec![4usize, 8, 16]),
        expiry in prop::sample::select(vec![200u64, 20_000]),
        ops in prop::collection::vec((0u32..2000, 0u32..4000, 1u32..4, 0u64..20), 1..8000),
    ) {
        // A clock advancing up to 19 ns per operation against a 200 ns
        // or 20 µs expiry makes GC reclaims common; small tables force
        // second-chance evictions; packet counts drawn from {1, 2, 3}
        // make rank ties (broken by slot) common. The 2^11 table fills
        // past TOP_INDEX_K entries, and removals shrink its index below
        // the live count, so k = K - 1, K, K + 1 exercise both the index
        // and the full-scan fallback. Sweeps and clears are rare enough
        // that the table refills between them.
        let cfg = WsafConfig::builder()
            .entries_log2(log2)
            .probe_limit(probe)
            .expiry_nanos(expiry)
            .build()
            .unwrap();
        let mut table = WsafTable::new(cfg);
        let mut now = 0u64;
        for (step, (op, flow, pkts, dt)) in ops.iter().enumerate() {
            now += dt;
            let at = format!("step {step}, op {op}");
            match op {
                0..=1799 => {
                    let pkts = f64::from(*pkts);
                    table.accumulate(&key(*flow), pkts, pkts * 100.0, now);
                }
                1800..=1959 => {
                    table.remove(&key(*flow));
                }
                1960..=1969 => {
                    let copy = table.clone();
                    table = copy;
                    check_top_k(&table, &at)?;
                }
                1970..=1979 => {
                    table.rebuild_top_index();
                    prop_assert_eq!(table.top_index().len(), table.len().min(TOP_INDEX_K));
                    check_top_k(&table, &at)?;
                }
                1980..=1981 => {
                    table.sweep_expired(now);
                    check_top_k(&table, &at)?;
                }
                1982 => {
                    table.clear();
                    check_top_k(&table, &at)?;
                }
                _ => {}
            }
            if step % 29 == 0 {
                check_top_k(&table, &at)?;
            }
        }
        check_top_k(&table, "end")?;
    }
}
