//! Families of transition sets — the "colored token" payloads of a
//! Generalized Petri Net marking (`P → 2^(2^T)`).
//!
//! Two interchangeable representations implement [`SetFamily`]:
//!
//! * [`ExplicitFamily`] — a canonical sorted vector of transition bit sets;
//!   simple and fast at the paper's benchmark scales;
//! * [`ZddFamily`] — a zero-suppressed decision diagram sharing structure
//!   between sets, which keeps exponentially large valid-set relations
//!   (e.g. products of many independent choices) polynomial in memory.
//!
//! The generalized analysis is generic over this trait; the `ablation_family`
//! benchmark compares the two.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use petri::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use petri::BitSet;
use symbolic::{ConcurrentZdd, ZddRef, ZDD_EMPTY, ZDD_UNIT};

/// Allocation and caching statistics of a family representation's backing
/// store, reported by [`SetFamily::context_stats`]. All zeros for
/// representations that track nothing (the explicit family).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FamilyStats {
    /// Total decision-diagram nodes allocated by the context.
    pub nodes_allocated: u64,
    /// Node requests answered from the hash-consing unique table.
    pub unique_hits: u64,
    /// Algebra operations answered from the memo caches.
    pub op_cache_hits: u64,
    /// Memoized operation results discarded by generational cache
    /// eviction (0 until the manager's op cache first fills).
    pub op_cache_evictions: u64,
}

/// Operations a family-of-transition-sets representation must support.
///
/// A family is a set of transition sets over a fixed universe of `|T|`
/// transitions. All binary operations require both operands to come from
/// the same [context](SetFamily::Context).
pub trait SetFamily: Clone + Eq + Hash + fmt::Debug + Send + Sync {
    /// Shared construction context (e.g. a decision-diagram manager),
    /// shareable across the worker threads of a parallel exploration.
    type Context: Clone + Send + Sync;

    /// Creates the context for a universe of `universe` transitions.
    fn new_context(universe: usize) -> Self::Context;

    /// Builds a family from explicit sets.
    fn from_sets(ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self;

    /// Builds the cross-union product of one pick per group:
    /// `{ g₁ ∪ g₂ ∪ … | gᵢ ∈ groups[i] }` — the factored form of the
    /// valid-set relation `r₀`. Shared representations build this without
    /// enumerating the product.
    fn from_choice_groups(ctx: &Self::Context, universe: usize, groups: &[Vec<BitSet>]) -> Self {
        let mut acc = vec![BitSet::new(universe)];
        for group in groups {
            let mut next = Vec::with_capacity(acc.len() * group.len());
            for base in &acc {
                for pick in group {
                    next.push(base.union(pick));
                }
            }
            acc = next;
        }
        Self::from_sets(ctx, universe, &acc)
    }

    /// Materializes at most `k` sets — cheap even for huge families.
    fn some_sets(&self, k: usize) -> Vec<BitSet> {
        let mut all = self.sets();
        all.truncate(k);
        all
    }

    /// The empty family.
    fn empty(ctx: &Self::Context, universe: usize) -> Self;

    /// Set-of-sets union.
    #[must_use]
    fn union(&self, other: &Self) -> Self;

    /// Set-of-sets intersection (sets present in both families).
    #[must_use]
    fn intersect(&self, other: &Self) -> Self;

    /// Set-of-sets difference (sets of `self` not in `other`).
    #[must_use]
    fn difference(&self, other: &Self) -> Self;

    /// The sub-family of sets containing transition index `t`.
    #[must_use]
    fn onset(&self, t: usize) -> Self;

    /// `true` if the family has no sets.
    fn is_empty(&self) -> bool;

    /// Number of sets in the family.
    fn count(&self) -> u64;

    /// Membership test for one transition set.
    fn contains(&self, set: &BitSet) -> bool;

    /// Materializes all sets (sorted, canonical order).
    fn sets(&self) -> Vec<BitSet>;

    /// Approximate memory footprint in representation units (stored sets
    /// for the explicit family, live nodes for the ZDD) — used by the
    /// ablation benchmarks.
    fn footprint(&self) -> usize;

    /// Allocation/caching statistics of the backing store, if the
    /// representation tracks any (ZDD manager counters; zeros otherwise).
    fn context_stats(_ctx: &Self::Context) -> FamilyStats {
        FamilyStats::default()
    }

    /// Serializes a batch of families into a flat byte blob for the
    /// checkpoint layer. The default enumerates every family's sets —
    /// portable but exponential for shared representations, which should
    /// override this (the ZDD backend serializes one shared node table
    /// for the whole batch instead).
    fn encode_families(_ctx: &Self::Context, universe: usize, families: &[&Self]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.usize(families.len());
        for f in families {
            let sets = f.sets();
            w.usize(sets.len());
            for s in &sets {
                debug_assert_eq!(s.capacity(), universe);
                w.bits(s);
            }
        }
        w.into_bytes()
    }

    /// Rebuilds a batch of families from [`encode_families`] output, in
    /// order. Implementations must validate the bytes structurally and
    /// report the first violation — a blob that decodes cleanly always
    /// denotes well-formed families over `universe`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`], tagged with the snapshot's
    /// families section, describing the first structural violation
    /// (truncated input, out-of-range bits, trailing bytes, …).
    fn decode_families(
        ctx: &Self::Context,
        universe: usize,
        bytes: &[u8],
    ) -> Result<Vec<Self>, CheckpointError> {
        let mut r = ByteReader::new(bytes, FAMILIES_SECTION);
        let nfamilies = r.usize()?;
        let mut out = Vec::with_capacity(nfamilies.min(1 << 20));
        for _ in 0..nfamilies {
            let nsets = r.usize()?;
            let mut sets = Vec::with_capacity(nsets.min(1 << 20));
            for _ in 0..nsets {
                sets.push(r.bits(universe)?);
            }
            out.push(Self::from_sets(ctx, universe, &sets));
        }
        r.finish()?;
        Ok(out)
    }
}

/// The snapshot section a GPO exploration stores its family blob
/// ([`SetFamily::encode_families`]) in.
pub(crate) const FAMILIES_SECTION: u32 = 2;

/// Canonical explicit family: a sorted, deduplicated `Vec<BitSet>`.
///
/// # Examples
///
/// ```
/// use gpo_core::{ExplicitFamily, SetFamily};
/// use petri::BitSet;
///
/// let ctx = ExplicitFamily::new_context(4);
/// let a = ExplicitFamily::from_sets(&ctx, 4, &[
///     BitSet::from_iter_with_capacity(4, [0, 2]),
///     BitSet::from_iter_with_capacity(4, [1]),
/// ]);
/// let b = a.onset(0);
/// assert_eq!(b.count(), 1);
/// assert!(b.contains(&BitSet::from_iter_with_capacity(4, [0, 2])));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ExplicitFamily {
    universe: usize,
    /// sorted + deduplicated
    sets: Vec<BitSet>,
}

impl ExplicitFamily {
    fn normalize(mut sets: Vec<BitSet>) -> Vec<BitSet> {
        sets.sort();
        sets.dedup();
        sets
    }

    /// Iterates over the stored sets in canonical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &BitSet> + '_ {
        self.sets.iter()
    }
}

impl fmt::Debug for ExplicitFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.sets.iter()).finish()
    }
}

impl SetFamily for ExplicitFamily {
    type Context = ();

    fn new_context(_universe: usize) -> Self::Context {}

    fn from_sets(_ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self {
        ExplicitFamily {
            universe,
            sets: Self::normalize(sets.to_vec()),
        }
    }

    fn empty(_ctx: &Self::Context, universe: usize) -> Self {
        ExplicitFamily {
            universe,
            sets: Vec::new(),
        }
    }

    fn union(&self, other: &Self) -> Self {
        // merge two sorted sequences
        let mut out = Vec::with_capacity(self.sets.len() + other.sets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() && j < other.sets.len() {
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.sets[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.sets[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.sets[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.sets[i..]);
        out.extend_from_slice(&other.sets[j..]);
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() && j < other.sets.len() {
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.sets[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn difference(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() {
            if j >= other.sets.len() {
                out.extend_from_slice(&self.sets[i..]);
                break;
            }
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.sets[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn onset(&self, t: usize) -> Self {
        ExplicitFamily {
            universe: self.universe,
            sets: self
                .sets
                .iter()
                .filter(|s| s.contains(t))
                .cloned()
                .collect(),
        }
    }

    fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    fn count(&self) -> u64 {
        self.sets.len() as u64
    }

    fn contains(&self, set: &BitSet) -> bool {
        self.sets.binary_search(set).is_ok()
    }

    fn sets(&self) -> Vec<BitSet> {
        self.sets.clone()
    }

    fn footprint(&self) -> usize {
        self.sets.len()
    }
}

/// A family backed by a shared concurrent ZDD manager.
///
/// All families of one analysis share the manager, so equality and hashing
/// reduce to node-id comparison (ZDDs are canonical — including across
/// threads, because [`ConcurrentZdd`] hash-conses nodes under sharded
/// locks). The `Arc` context makes `ZddFamily: Send + Sync`, which is what
/// lets the generalized analysis ride the parallel frontier engine.
///
/// # Examples
///
/// ```
/// use gpo_core::{SetFamily, ZddFamily};
/// use petri::BitSet;
///
/// let ctx = ZddFamily::new_context(4);
/// let a = ZddFamily::from_sets(&ctx, 4, &[
///     BitSet::from_iter_with_capacity(4, [0, 2]),
///     BitSet::from_iter_with_capacity(4, [1]),
/// ]);
/// assert_eq!(a.onset(0).count(), 1);
/// ```
#[derive(Clone)]
pub struct ZddFamily {
    mgr: Arc<ConcurrentZdd>,
    node: ZddRef,
    universe: usize,
}

impl PartialEq for ZddFamily {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(
            Arc::ptr_eq(&self.mgr, &other.mgr),
            "comparing families from different managers"
        );
        self.node == other.node
    }
}

impl Eq for ZddFamily {}

impl Hash for ZddFamily {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.node.hash(state);
    }
}

impl fmt::Debug for ZddFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets = self.sets();
        f.debug_set().entries(sets.iter()).finish()
    }
}

impl SetFamily for ZddFamily {
    type Context = Arc<ConcurrentZdd>;

    fn new_context(universe: usize) -> Self::Context {
        Arc::new(ConcurrentZdd::new(universe))
    }

    fn from_sets(ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self {
        let mut node = ZDD_EMPTY;
        for s in sets {
            let elems: Vec<usize> = s.iter().collect();
            let one = ctx.singleton(&elems);
            node = ctx.union(node, one);
        }
        ZddFamily {
            mgr: Arc::clone(ctx),
            node,
            universe,
        }
    }

    fn empty(ctx: &Self::Context, universe: usize) -> Self {
        ZddFamily {
            mgr: Arc::clone(ctx),
            node: ZDD_EMPTY,
            universe,
        }
    }

    fn union(&self, other: &Self) -> Self {
        self.with_node(self.mgr.union(self.node, other.node))
    }

    fn intersect(&self, other: &Self) -> Self {
        self.with_node(self.mgr.intersect(self.node, other.node))
    }

    fn difference(&self, other: &Self) -> Self {
        self.with_node(self.mgr.diff(self.node, other.node))
    }

    fn onset(&self, t: usize) -> Self {
        self.with_node(self.mgr.onset(self.node, t))
    }

    fn is_empty(&self) -> bool {
        self.mgr.is_empty(self.node)
    }

    fn count(&self) -> u64 {
        u64::try_from(self.mgr.count(self.node)).unwrap_or(u64::MAX)
    }

    fn contains(&self, set: &BitSet) -> bool {
        let elems: Vec<usize> = set.iter().collect();
        self.mgr.contains_set(self.node, &elems)
    }

    fn sets(&self) -> Vec<BitSet> {
        self.mgr
            .sets(self.node)
            .into_iter()
            .map(|s| BitSet::from_iter_with_capacity(self.universe, s))
            .collect()
    }

    fn footprint(&self) -> usize {
        self.mgr.size(self.node)
    }

    fn from_choice_groups(ctx: &Self::Context, universe: usize, groups: &[Vec<BitSet>]) -> Self {
        let mut node = ZDD_UNIT;
        for group in groups {
            let mut alt = ZDD_EMPTY;
            for pick in group {
                let elems: Vec<usize> = pick.iter().collect();
                let one = ctx.singleton(&elems);
                alt = ctx.union(alt, one);
            }
            node = ctx.join(node, alt);
        }
        ZddFamily {
            mgr: Arc::clone(ctx),
            node,
            universe,
        }
    }

    fn some_sets(&self, k: usize) -> Vec<BitSet> {
        self.mgr
            .some_sets(self.node, k)
            .into_iter()
            .map(|s| BitSet::from_iter_with_capacity(self.universe, s))
            .collect()
    }

    fn context_stats(ctx: &Self::Context) -> FamilyStats {
        FamilyStats {
            nodes_allocated: ctx.allocated_nodes() as u64,
            unique_hits: ctx.unique_hits(),
            op_cache_hits: ctx.op_cache_hits(),
            op_cache_evictions: ctx.op_cache_evictions(),
        }
    }

    /// One shared node table for the whole batch: families with
    /// exponentially many sets stay polynomial on disk, exactly as they do
    /// in memory.
    fn encode_families(ctx: &Self::Context, _universe: usize, families: &[&Self]) -> Vec<u8> {
        let roots: Vec<ZddRef> = families.iter().map(|f| f.node).collect();
        let (table, root_ids) = ctx.export(&roots);
        let mut w = ByteWriter::new();
        w.usize(families.len());
        w.usize(table.len());
        for &(var, lo, hi) in &table {
            w.u32(var);
            w.u32(lo);
            w.u32(hi);
        }
        for &r in &root_ids {
            w.u32(r);
        }
        w.into_bytes()
    }

    fn decode_families(
        ctx: &Self::Context,
        universe: usize,
        bytes: &[u8],
    ) -> Result<Vec<Self>, CheckpointError> {
        let mut r = ByteReader::new(bytes, FAMILIES_SECTION);
        let nfamilies = r.usize()?;
        let nnodes = r.usize()?;
        let mut table = Vec::with_capacity(nnodes.min(1 << 20));
        for _ in 0..nnodes {
            table.push((r.u32()?, r.u32()?, r.u32()?));
        }
        let mut roots = Vec::with_capacity(nfamilies.min(1 << 20));
        for _ in 0..nfamilies {
            roots.push(r.u32()?);
        }
        r.finish()?;
        // import re-canonicalizes every node through the shared manager's
        // hash-consing, so decoded families compare equal (by node id) to
        // families built natively in `ctx`
        let refs = ctx
            .import(&table, &roots)
            .map_err(|detail| CheckpointError::Malformed {
                section: FAMILIES_SECTION,
                detail,
            })?;
        Ok(refs
            .into_iter()
            .map(|node| ZddFamily {
                mgr: Arc::clone(ctx),
                node,
                universe,
            })
            .collect())
    }
}

impl ZddFamily {
    fn with_node(&self, node: ZddRef) -> Self {
        ZddFamily {
            mgr: Arc::clone(&self.mgr),
            node,
            universe: self.universe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(universe: usize, elems: &[usize]) -> BitSet {
        BitSet::from_iter_with_capacity(universe, elems.iter().copied())
    }

    fn sample_sets(u: usize) -> Vec<BitSet> {
        vec![bs(u, &[0, 2]), bs(u, &[1]), bs(u, &[1, 3]), bs(u, &[])]
    }

    /// Runs the same algebra through any implementation.
    fn exercise<F: SetFamily>() {
        let u = 4;
        let ctx = F::new_context(u);
        let a = F::from_sets(&ctx, u, &sample_sets(u));
        let b = F::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2]), bs(u, &[2])]);

        assert_eq!(a.count(), 4);
        assert!(!a.is_empty());
        assert!(F::empty(&ctx, u).is_empty());

        let uni = a.union(&b);
        assert_eq!(uni.count(), 5);
        let int = a.intersect(&b);
        assert_eq!(int.count(), 2);
        assert!(int.contains(&bs(u, &[1])));
        assert!(int.contains(&bs(u, &[0, 2])));
        let dif = a.difference(&b);
        assert_eq!(dif.count(), 2);
        assert!(dif.contains(&bs(u, &[])));
        assert!(dif.contains(&bs(u, &[1, 3])));

        let on = a.onset(1);
        assert_eq!(on.count(), 2);
        assert!(on.contains(&bs(u, &[1])));
        assert!(on.contains(&bs(u, &[1, 3])));
        assert!(!on.contains(&bs(u, &[0, 2])));

        // identities
        assert_eq!(a.union(&a), a);
        assert_eq!(a.intersect(&a), a);
        assert!(a.difference(&a).is_empty());
        let rebuilt = dif.union(&int);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn explicit_family_algebra() {
        exercise::<ExplicitFamily>();
    }

    #[test]
    fn zdd_family_algebra() {
        exercise::<ZddFamily>();
    }

    #[test]
    fn representations_agree_on_materialized_sets() {
        let u = 5;
        ExplicitFamily::new_context(u);
        let zctx = ZddFamily::new_context(u);
        let sets = vec![bs(u, &[0, 3]), bs(u, &[2]), bs(u, &[1, 2, 4])];
        let e = ExplicitFamily::from_sets(&(), u, &sets);
        let z = ZddFamily::from_sets(&zctx, u, &sets);
        // `sets()` order is representation-specific; compare as sets
        let norm = |v: Vec<BitSet>| {
            let mut out: Vec<Vec<usize>> = v.iter().map(|s| s.iter().collect()).collect();
            out.sort();
            out
        };
        assert_eq!(norm(e.sets()), norm(z.sets()));
        assert_eq!(norm(e.onset(2).sets()), norm(z.onset(2).sets()));
        assert_eq!(e.count(), z.count());
    }

    #[test]
    fn explicit_deduplicates() {
        let u = 3;
        let ctx = ();
        let a = ExplicitFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[1])]);
        assert_eq!(a.count(), 1);
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // ZddFamily's Hash uses only the
                                       // immutable node id; the shared manager never changes existing nodes
    fn hash_consistency() {
        use std::collections::HashSet;
        let u = 3;
        let ctx = ZddFamily::new_context(u);
        let a = ZddFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2])]);
        let b = ZddFamily::from_sets(&ctx, u, &[bs(u, &[0, 2]), bs(u, &[1])]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn families_are_send_and_sync() {
        // the PR's acceptance criterion: ZddFamily (and its context) can
        // cross thread boundaries, so the GPO engine can parallelize
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExplicitFamily>();
        assert_send_sync::<ZddFamily>();
        assert_send_sync::<<ZddFamily as SetFamily>::Context>();
    }

    #[test]
    fn zdd_context_stats_track_allocation() {
        let u = 4;
        let ctx = ZddFamily::new_context(u);
        assert_eq!(ZddFamily::context_stats(&ctx).nodes_allocated, 2);
        let a = ZddFamily::from_sets(&ctx, u, &[bs(u, &[0, 2]), bs(u, &[1])]);
        let b = ZddFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2])]);
        assert_eq!(a, b);
        let stats = ZddFamily::context_stats(&ctx);
        assert!(stats.nodes_allocated > 2);
        assert!(stats.unique_hits > 0, "rebuild hits the unique table");
        let _ = a.union(&b);
        let _ = a.union(&b);
        assert!(ZddFamily::context_stats(&ctx).op_cache_hits >= 1);
    }

    /// Round-trips a batch through encode/decode in a fresh context and
    /// checks set-level equality.
    fn round_trip<F: SetFamily>() {
        let u = 6;
        let ctx = F::new_context(u);
        let fams = vec![
            F::from_sets(&ctx, u, &sample_sets(u)),
            F::empty(&ctx, u),
            F::from_sets(&ctx, u, &[bs(u, &[])]),
            F::from_sets(&ctx, u, &[bs(u, &[5]), bs(u, &[0, 1, 2, 3, 4, 5])]),
        ];
        let refs: Vec<&F> = fams.iter().collect();
        let blob = F::encode_families(&ctx, u, &refs);

        // same-context decode: families compare equal directly
        let back = F::decode_families(&ctx, u, &blob).unwrap();
        assert_eq!(back, fams);

        // fresh-context decode: compare materialized sets
        let fresh = F::new_context(u);
        let again = F::decode_families(&fresh, u, &blob).unwrap();
        assert_eq!(again.len(), fams.len());
        for (a, b) in again.iter().zip(&fams) {
            assert_eq!(a.sets(), b.sets());
        }
    }

    #[test]
    fn explicit_families_round_trip() {
        round_trip::<ExplicitFamily>();
    }

    #[test]
    fn zdd_families_round_trip() {
        round_trip::<ZddFamily>();
    }

    #[test]
    fn zdd_blob_stays_polynomial_on_products() {
        // 2^10 sets must not enumerate on disk
        let u = 20;
        let groups: Vec<Vec<BitSet>> = (0..10)
            .map(|i| vec![bs(u, &[2 * i]), bs(u, &[2 * i + 1])])
            .collect();
        let ctx = ZddFamily::new_context(u);
        let big = ZddFamily::from_choice_groups(&ctx, u, &groups);
        assert_eq!(big.count(), 1024);
        let blob = ZddFamily::encode_families(&ctx, u, &[&big]);
        assert!(
            blob.len() < 1024,
            "shared node table, not 1024 enumerated sets: {} bytes",
            blob.len()
        );
        let back = ZddFamily::decode_families(&ctx, u, &blob).unwrap();
        assert_eq!(back[0], big, "canonical node id restored");
    }

    #[test]
    fn decode_rejects_corrupt_blobs() {
        let u = 4;
        let fams = [ExplicitFamily::from_sets(&(), u, &sample_sets(u))];
        let refs: Vec<&ExplicitFamily> = fams.iter().collect();
        let blob = ExplicitFamily::encode_families(&(), u, &refs);
        assert!(ExplicitFamily::decode_families(&(), u, &blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(ExplicitFamily::decode_families(&(), u, &trailing).is_err());
        // a set with bits outside the universe
        let mut bad = blob;
        let last = bad.len() - 1;
        bad[last] = 0xff;
        assert!(ExplicitFamily::decode_families(&(), u, &bad).is_err());

        let zctx = ZddFamily::new_context(u);
        let zfams = [ZddFamily::from_sets(&zctx, u, &sample_sets(u))];
        let zrefs: Vec<&ZddFamily> = zfams.iter().collect();
        let zblob = ZddFamily::encode_families(&zctx, u, &zrefs);
        assert!(ZddFamily::decode_families(&zctx, u, &zblob[..zblob.len() - 1]).is_err());
    }

    #[test]
    fn zdd_footprint_beats_explicit_on_products() {
        // 10 binary choices: 1024 sets
        let u = 20;
        let all: Vec<BitSet> = {
            let mut acc = vec![bs(u, &[])];
            for i in 0..10 {
                let mut next = Vec::new();
                for base in &acc {
                    for pick in [2 * i, 2 * i + 1] {
                        let mut s = base.clone();
                        s.insert(pick);
                        next.push(s);
                    }
                }
                acc = next;
            }
            acc
        };
        let e = ExplicitFamily::from_sets(&(), u, &all);
        let zctx = ZddFamily::new_context(u);
        let z = ZddFamily::from_sets(&zctx, u, &all);
        assert_eq!(e.count(), 1024);
        assert_eq!(z.count(), 1024);
        assert_eq!(e.footprint(), 1024);
        assert!(
            z.footprint() <= 20,
            "zdd shares structure: {}",
            z.footprint()
        );
    }
}
