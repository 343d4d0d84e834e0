//! Placement-order utilities: permute a generated database so that objects
//! that reference each other are stored near each other.
//!
//! Load order *is* placement for the bulk-loaded stores, so permuting the
//! input is how a DBA would express clustering policy: for small objects
//! (which share pages), reference-clustered placement puts children on or
//! near their parents' pages and navigation gets cheaper — one of the design
//! levers the paper's direct models leave on the table.
//!
//! A standalone library utility: no experiment, example or benchmark calls
//! it. `ext-clustering` used it as a static ablation until the adaptive
//! placement work replaced that experiment with the heat-driven online
//! reorganizer (`starfish-core::placement`), which reorders by observed
//! access rather than by the reference graph. It stays public (and pinned
//! by the unit tests below) as the static, reference-graph baseline a
//! clustering comparison would load its "DBA-clustered" database with.

use starfish_nf2::station::Station;
use starfish_nf2::Oid;
use std::collections::VecDeque;

/// Reorders `db` by breadth-first traversal of the reference graph (from
/// object 0, restarting at the lowest unvisited object), and rewrites every
/// `OidConnection` to the new positions so the database stays consistent.
///
/// Keys are untouched — they travel with their stations.
pub fn cluster_by_reference(db: &[Station]) -> Vec<Station> {
    let n = db.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for (_, oid) in db[i].child_refs() {
                let t = oid.0 as usize;
                if t < n && !visited[t] {
                    visited[t] = true;
                    queue.push_back(t);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    // old index -> new index
    let mut new_pos = vec![0usize; n];
    for (new, &old) in order.iter().enumerate() {
        new_pos[old] = new;
    }
    order
        .iter()
        .map(|&old| {
            let mut s = db[old].clone();
            for p in &mut s.platforms {
                for c in &mut p.connections {
                    let t = c.oid_connection.0 as usize;
                    if t < n {
                        c.oid_connection = Oid(new_pos[t] as u32);
                    }
                }
            }
            s
        })
        .collect()
}

/// Checks the referential invariant the generator guarantees: every
/// connection's `KeyConnection` equals the key of the station its
/// `OidConnection` points at. Used by tests and by the clustering ablation
/// to prove the permutation kept the database consistent.
pub fn references_consistent(db: &[Station]) -> bool {
    db.iter().all(|s| {
        s.child_refs()
            .iter()
            .all(|(k, oid)| db.get(oid.0 as usize).map(|t| t.key == *k).unwrap_or(false))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetParams};

    fn db() -> Vec<Station> {
        generate(&DatasetParams {
            n_objects: 120,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn permutation_preserves_the_object_set() {
        let original = db();
        let clustered = cluster_by_reference(&original);
        assert_eq!(clustered.len(), original.len());
        let mut a: Vec<i32> = original.iter().map(|s| s.key).collect();
        let mut b: Vec<i32> = clustered.iter().map(|s| s.key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same multiset of keys");
    }

    #[test]
    fn links_are_rewritten_consistently() {
        let original = db();
        assert!(references_consistent(&original), "generator invariant");
        let clustered = cluster_by_reference(&original);
        assert!(
            references_consistent(&clustered),
            "rewired links must stay consistent"
        );
    }

    #[test]
    fn objects_keep_their_content() {
        let original = db();
        let clustered = cluster_by_reference(&original);
        for s in &clustered {
            let o = original.iter().find(|x| x.key == s.key).unwrap();
            assert_eq!(s.name, o.name);
            assert_eq!(s.sightseeings, o.sightseeings);
            assert_eq!(s.platforms.len(), o.platforms.len());
            // Connections keep keys/payload; only the OID numbers moved.
            for (sp, op) in s.platforms.iter().zip(&o.platforms) {
                let sk: Vec<i32> = sp.connections.iter().map(|c| c.key_connection).collect();
                let ok: Vec<i32> = op.connections.iter().map(|c| c.key_connection).collect();
                assert_eq!(sk, ok);
            }
        }
    }

    #[test]
    fn children_move_near_their_parents() {
        let original = db();
        let clustered = cluster_by_reference(&original);
        let avg_distance = |db: &[Station]| -> f64 {
            let mut total = 0usize;
            let mut count = 0usize;
            for (i, s) in db.iter().enumerate() {
                for (_, oid) in s.child_refs() {
                    total += (oid.0 as isize - i as isize).unsigned_abs();
                    count += 1;
                }
            }
            total as f64 / count.max(1) as f64
        };
        let before = avg_distance(&original);
        let after = avg_distance(&clustered);
        assert!(
            after < before,
            "clustering must shrink parent→child distance: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn empty_and_singleton_databases() {
        assert!(cluster_by_reference(&[]).is_empty());
        let one = generate(&DatasetParams {
            n_objects: 1,
            ..Default::default()
        });
        let out = cluster_by_reference(&one);
        assert_eq!(out.len(), 1);
        assert!(references_consistent(&out));
    }
}
