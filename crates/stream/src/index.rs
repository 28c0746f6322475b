//! The read-only query index captured at epoch publish.
//!
//! A review's oracle dies with the review — it borrows the snapshot pair.
//! But the rows it paid for are exactly what budget-free point queries
//! need: resident distance rows answer `d(u, ·)` exactly, and a handful of
//! fully paid candidate rows double as landmark rows whose triangle
//! inequalities bracket everything else. [`QueryIndex::capture`] copies
//! that material out of the oracle *before* it is dropped, and the engine
//! publishes it on the epoch ([`crate::StreamSnapshot::query`]) — so the
//! query layer (`cp-query`) serves entirely from published state, never
//! touching a ledger and never blocking a review. The same index's `t2`
//! rows are the next review's `t1` donors ([`QueryIndex::rows`]).
//!
//! # Layout
//!
//! * **Resident rows.** Each snapshot keeps one contiguous arena of rows,
//!   ascending by source, and a dense slot per node says where a node's
//!   row sits (`u32::MAX` = no row). The two snapshots' slots of a node
//!   are stored side by side, `[t1, t2]`, so a Δ probe reads both from one
//!   line. Rows keep the oracle's storage width: `u16` when
//!   [`cp_graph::rowpack::fits_u16`] holds for the snapshot (unit weights,
//!   at most 65 535 nodes), `u32` otherwise. A probe is one array load,
//!   not a hash lookup, and nothing is widened on capture.
//! * **Landmark records.** With `L ≤` [`MAX_RESIDENT_LANDMARKS`] landmarks,
//!   node `v` owns one node-major record `[d1(ℓ_0..ℓ_L) | d2(ℓ_0..ℓ_L)]`:
//!   its distance to every landmark in the first snapshot, then in the
//!   second. At `u16` width and `L = 16` that is 64 bytes, one cache line
//!   (records start on a 64-byte boundary). Holding both snapshots in one
//!   record means a Δ query reads the same two lines a distance query
//!   reads, where a row-major table would miss once per landmark, per
//!   endpoint, per snapshot. Records are `u16` when both snapshots' rows
//!   are, `u32` otherwise.
//!
//! The bound fold is branch-free and gives exactly what
//! [`cp_graph::landmark_index::LandmarkIndex::bounds`] gives: each value
//! is widened to `u32` (the `u16` sentinel becomes [`INF`]), `lb` is the
//! largest `|du − dv|`, `ub` the smallest `du + dv` (summed in `u32`, so
//! it never wraps at 65 535), and a landmark that reaches exactly one
//! endpoint certifies the pair disconnected, `(INF, INF)`.

use cp_core::oracle::{RowScratch, Snapshot, SnapshotOracle};
use cp_graph::rowpack::{copy_row_into, RowDist, RowRef};
use cp_graph::{NodeId, INF};
use std::borrow::Cow;

/// Cap on the landmark rows folded into an epoch's triangle bounds: 16
/// landmarks fill one 64-byte record per node at `u16` width, and past a
/// handful the marginal bound tightening stops paying for its bytes.
pub const MAX_RESIDENT_LANDMARKS: usize = 16;

/// Slot of a node without a row.
const ABSENT: u32 = u32::MAX;

/// Records start on a cache-line boundary.
const LINE_BYTES: usize = 64;

/// Landmark columns per snapshot in a record. Columns past the epoch's
/// landmarks hold the unreachable sentinel in every record: a landmark
/// that reaches neither endpoint moves no bound and cuts nothing, so every
/// fold runs over the same fixed width.
const COLS: usize = MAX_RESIDENT_LANDMARKS;

/// Entries per record: both snapshots' columns.
const STRIDE: usize = 2 * COLS;

/// Immutable per-epoch query material: resident rows of both review
/// snapshots (chained donor rows included — they are resident rows like
/// any other) and node-major landmark records for at most
/// [`MAX_RESIDENT_LANDMARKS`] landmarks.
#[derive(Debug, Default)]
pub struct QueryIndex {
    num_nodes: usize,
    /// `slots[v][s]` is the arena index of `v`'s row in snapshot `s`
    /// ([`ABSENT`] if none): both snapshots' slots of a node share one
    /// load. Empty when neither snapshot holds a row.
    slots: Vec<[u32; 2]>,
    /// Resident rows of the first and the second snapshot.
    rows: [RowSet; 2],
    landmarks: Vec<NodeId>,
    records: Records,
}

/// One snapshot's resident rows in one packed arena.
#[derive(Debug, Default)]
struct RowSet {
    /// Row length (the node universe).
    n: usize,
    /// The rows' sources, ascending — the arena's row order.
    ids: Vec<NodeId>,
    arena: Arena,
}

/// Rows back to back at one storage width.
#[derive(Debug)]
enum Arena {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Default for Arena {
    fn default() -> Self {
        Arena::U16(Vec::new())
    }
}

/// The landmark records at one width.
#[derive(Debug, Default)]
enum Records {
    /// No landmark: every bound is `(0, INF)`.
    #[default]
    None,
    U16(Aligned<u16>),
    U32(Aligned<u32>),
}

/// A buffer whose first element sits on a [`LINE_BYTES`] boundary.
#[derive(Debug)]
struct Aligned<T> {
    buf: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: RowDist> Aligned<T> {
    fn filled(len: usize, value: T) -> Self {
        let pad = LINE_BYTES / std::mem::size_of::<T>();
        let buf = vec![value; len + pad];
        let off = buf.as_ptr().align_offset(LINE_BYTES).min(pad);
        Aligned { buf, off, len }
    }

    fn as_slice(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.off..self.off + self.len]
    }

    /// Node `v`'s landmark record.
    #[inline(always)]
    fn record(&self, v: NodeId) -> &[T; STRIDE] {
        self.as_slice()[v.index() * STRIDE..][..STRIDE]
            .try_into()
            .expect("one record")
    }
}

impl RowSet {
    /// Copies one snapshot's resident rows at the oracle's storage width.
    fn capture(oracle: &SnapshotOracle<'_>, which: Snapshot) -> Self {
        let rows = oracle.resident_rows(which);
        if rows.is_empty() {
            return RowSet::default();
        }
        let n = oracle.num_nodes();
        let arena = if oracle.row_packed(which) {
            Arena::U16(pack(&rows, n))
        } else {
            Arena::U32(pack(&rows, n))
        };
        RowSet {
            n,
            ids: rows.into_iter().map(|(u, _)| u).collect(),
            arena,
        }
    }

    /// The row stored at arena index `k`.
    fn at(&self, k: usize) -> RowRef<'_> {
        let n = self.n;
        match &self.arena {
            Arena::U16(a) => RowRef::U16(&a[k * n..(k + 1) * n]),
            Arena::U32(a) => RowRef::U32(&a[k * n..(k + 1) * n]),
        }
    }
}

/// Concatenates rows into one arena of width `T` (a plain copy for rows
/// already stored at `T`).
fn pack<T: RowDist>(rows: &[(NodeId, RowRef<'_>)], n: usize) -> Vec<T> {
    let mut arena = vec![T::default(); rows.len() * n];
    for (dst, &(_, row)) in arena.chunks_exact_mut(n).zip(rows) {
        copy_row_into(row, dst);
    }
    arena
}

/// Builds the node-major records for `landmarks`: record `v` holds
/// `d1(ℓ_i, v)` at column `i` and `d2(ℓ_i, v)` at column [`COLS`]` + i`;
/// unused columns keep the unreachable sentinel. Rows evicted from the
/// oracle's cache are recomputed through
/// [`SnapshotOracle::read_rows_packed`], which charges nothing.
fn build_records<T: RowDist>(oracle: &SnapshotOracle<'_>, landmarks: &[NodeId]) -> Aligned<T> {
    let n = oracle.num_nodes();
    let mut cols: Vec<(usize, Cow<'_, [T]>)> = Vec::with_capacity(2 * landmarks.len());
    let mut scratch = RowScratch::new();
    for (i, &w) in landmarks.iter().enumerate() {
        let cached = |which| oracle.cached_row(which, w).and_then(T::slice);
        match (cached(Snapshot::First), cached(Snapshot::Second)) {
            (Some(r1), Some(r2)) => {
                cols.push((i, Cow::Borrowed(r1)));
                cols.push((COLS + i, Cow::Borrowed(r2)));
            }
            _ => {
                let (r1, r2) = oracle.read_rows_packed(w, &mut scratch);
                for (col, row) in [(i, r1), (COLS + i, r2)] {
                    let mut owned = vec![T::default(); n];
                    copy_row_into(row, &mut owned);
                    cols.push((col, Cow::Owned(owned)));
                }
            }
        }
    }
    // Transposed in blocks of records that stay in L1 while every column
    // streams into them.
    const BLOCK: usize = 64;
    let mut records = Aligned::filled(n * STRIDE, T::narrow(INF));
    for (b, block) in records
        .as_mut_slice()
        .chunks_mut(BLOCK * STRIDE)
        .enumerate()
    {
        let nodes = b * BLOCK..b * BLOCK + block.len() / STRIDE;
        for (col, row) in &cols {
            for (rec, &d) in block.chunks_exact_mut(STRIDE).zip(&row[nodes.clone()]) {
                rec[*col] = d;
            }
        }
    }
    records
}

/// A running landmark fold over one snapshot (see the module docs).
#[derive(Clone, Copy)]
struct Fold {
    lb: u32,
    ub: u32,
    cut: bool,
}

impl Fold {
    const NEW: Fold = Fold {
        lb: 0,
        ub: INF,
        cut: false,
    };

    #[inline(always)]
    fn add(&mut self, du: u32, dv: u32) {
        self.lb = self.lb.max(du.abs_diff(dv));
        self.ub = self.ub.min(du.saturating_add(dv));
        self.cut |= (du == INF) != (dv == INF);
    }

    /// The certified interval: `(INF, INF)` when some landmark reaches
    /// exactly one endpoint.
    #[inline(always)]
    fn interval(self) -> (u32, u32) {
        if self.cut {
            (INF, INF)
        } else {
            (self.lb, self.ub)
        }
    }
}

/// Folds snapshot `h`'s columns of two records.
#[inline(always)]
fn fold_half<T: RowDist>(ru: &[T; STRIDE], rv: &[T; STRIDE], h: usize) -> Fold {
    let mut acc = Fold::NEW;
    for i in h * COLS..(h + 1) * COLS {
        acc.add(ru[i].widen(), rv[i].widen());
    }
    acc
}

/// Folds both snapshots' columns of two records in one pass.
#[inline(always)]
fn fold_both<T: RowDist>(ru: &[T; STRIDE], rv: &[T; STRIDE]) -> [Fold; 2] {
    let mut acc = [Fold::NEW; 2];
    for i in 0..COLS {
        acc[0].add(ru[i].widen(), rv[i].widen());
        acc[1].add(ru[COLS + i].widen(), rv[COLS + i].widen());
    }
    acc
}

/// Whether every `v ≠ u` has `UB1(u, v) − LB2(u, v) < 1` or `LB2 = ∞`;
/// stops at the first `v` that does not.
fn rules_out<T: RowDist>(records: &Aligned<T>, u: NodeId) -> bool {
    let ru = records.record(u);
    records
        .as_slice()
        .chunks_exact(STRIDE)
        .enumerate()
        .all(|(v, rv)| {
            if v == u.index() {
                return true;
            }
            let [f1, f2] = fold_both(ru, rv.try_into().expect("one record"));
            // UB1 is the plain minimum (a one-sided landmark adds INF, which
            // never wins it); LB2 is INF when the pair is cut in `G_t2`.
            let (ub1, lb2) = (f1.ub, f2.interval().0);
            lb2 == INF || (ub1 != INF && ub1.saturating_sub(lb2) < 1)
        })
}

/// The row set index of a snapshot.
fn half(which: Snapshot) -> usize {
    match which {
        Snapshot::First => 0,
        Snapshot::Second => 1,
    }
}

impl QueryIndex {
    /// An index with no rows and no landmarks (the pre-first-review
    /// epoch): every non-trivial query falls through to `Unknown`.
    pub fn empty(num_nodes: usize) -> Self {
        QueryIndex {
            num_nodes,
            ..QueryIndex::default()
        }
    }

    /// Captures the oracle's resident rows and landmark records. Free:
    /// nothing is charged (`&self` access only), and the capture happens
    /// after the pipeline ran, inside the review, so published epochs
    /// carry it from birth. The landmarks are the first
    /// [`MAX_RESIDENT_LANDMARKS`] nodes paid in both snapshots, ascending;
    /// a landmark row the row cache evicted is recomputed (uncharged), so
    /// the landmark bounds never depend on the cache budget.
    pub fn capture(oracle: &SnapshotOracle<'_>) -> Self {
        let landmarks: Vec<NodeId> = oracle
            .fully_cached_nodes()
            .into_iter()
            .take(MAX_RESIDENT_LANDMARKS)
            .collect();
        let records = if landmarks.is_empty() {
            Records::None
        } else if oracle.row_packed(Snapshot::First) && oracle.row_packed(Snapshot::Second) {
            Records::U16(build_records(oracle, &landmarks))
        } else {
            Records::U32(build_records(oracle, &landmarks))
        };
        let rows = [
            RowSet::capture(oracle, Snapshot::First),
            RowSet::capture(oracle, Snapshot::Second),
        ];
        let mut slots = Vec::new();
        if rows.iter().any(|r| !r.ids.is_empty()) {
            slots = vec![[ABSENT; 2]; oracle.num_nodes()];
            for (h, set) in rows.iter().enumerate() {
                for (k, &u) in set.ids.iter().enumerate() {
                    slots[u.index()][h] = k as u32;
                }
            }
        }
        QueryIndex {
            num_nodes: oracle.num_nodes(),
            slots,
            rows,
            landmarks,
            records,
        }
    }

    /// Size of the node universe the rows were computed over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The captured exact distance row of `u` in the chosen review
    /// snapshot ([`Snapshot::Second`] is the published epoch's graph), at
    /// its storage width.
    #[inline]
    pub fn row(&self, which: Snapshot, u: NodeId) -> Option<RowRef<'_>> {
        let h = half(which);
        match self.slots.get(u.index()) {
            Some(slot) if slot[h] != ABSENT => Some(self.rows[h].at(slot[h] as usize)),
            _ => None,
        }
    }

    /// Every captured row of one snapshot, ascending by source — the next
    /// review imports the `t2` rows as its `t1` donors.
    pub fn rows(&self, which: Snapshot) -> impl Iterator<Item = (NodeId, RowRef<'_>)> + '_ {
        let set = &self.rows[half(which)];
        set.ids.iter().enumerate().map(|(k, &u)| (u, set.at(k)))
    }

    /// The landmarks behind the bounds, ascending (empty when the review
    /// paid for no node in both snapshots).
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The landmark interval on `d(u, v)` in one snapshot: `(0, INF)` with
    /// no landmarks, `(INF, INF)` when certified disconnected, `(0, 0)`
    /// for `u == v`. Ignores resident rows.
    pub fn landmark_bounds(&self, which: Snapshot, u: NodeId, v: NodeId) -> (u32, u32) {
        if u == v {
            return (0, 0);
        }
        let h = half(which);
        match &self.records {
            Records::None => (0, INF),
            Records::U16(r) => fold_half(r.record(u), r.record(v), h).interval(),
            Records::U32(r) => fold_half(r.record(u), r.record(v), h).interval(),
        }
    }

    /// [`Self::landmark_bounds`] in both snapshots at once, `[first,
    /// second]`, from one pass over the two records.
    pub fn landmark_bounds_both(&self, u: NodeId, v: NodeId) -> [(u32, u32); 2] {
        if u == v {
            return [(0, 0); 2];
        }
        let both = |[a, b]: [Fold; 2]| [a.interval(), b.interval()];
        match &self.records {
            Records::None => [(0, INF); 2],
            Records::U16(r) => both(fold_both(r.record(u), r.record(v))),
            Records::U32(r) => both(fold_both(r.record(u), r.record(v))),
        }
    }

    /// Whether the landmark bounds prove that `u` has no converging pair:
    /// for every `v ≠ u`, `UB1(u, v) − LB2(u, v) < 1`, or `LB2(u, v) = ∞`
    /// (certified disconnected in `G_t2`, so Δ = 0). Stops at the first
    /// `v` the bounds cannot rule out. `false` with no landmarks.
    pub fn rules_out_seed(&self, u: NodeId) -> bool {
        match &self.records {
            Records::None => false,
            Records::U16(r) => rules_out(r, u),
            Records::U32(r) => rules_out(r, u),
        }
    }

    /// `(t1 rows, t2 rows)` captured.
    pub fn resident_rows(&self) -> (usize, usize) {
        (self.rows[0].ids.len(), self.rows[1].ids.len())
    }

    /// Whether the index holds nothing useful (no rows, no landmarks).
    pub fn is_empty(&self) -> bool {
        self.resident_rows() == (0, 0) && self.landmarks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::oracle::RowCacheBudget;
    use cp_graph::builder::graph_from_edges;
    use cp_graph::landmark_index::LandmarkIndex;
    use cp_graph::Graph;

    /// Path 0..=9; the second snapshot adds the chord (0, 9).
    fn graphs() -> (Graph, Graph) {
        let base: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(10, &base);
        let mut all = base;
        all.push((0, 9));
        (g1, graph_from_edges(10, &all))
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = QueryIndex::empty(7);
        assert_eq!(idx.num_nodes(), 7);
        assert!(idx.is_empty());
        assert!(idx.row(Snapshot::Second, NodeId(3)).is_none());
        assert!(idx.landmarks().is_empty());
        assert_eq!(idx.resident_rows(), (0, 0));
        assert_eq!(idx.rows(Snapshot::Second).count(), 0);
        assert_eq!(
            idx.landmark_bounds(Snapshot::Second, NodeId(1), NodeId(2)),
            (0, INF)
        );
        assert!(!idx.rules_out_seed(NodeId(1)));
    }

    #[test]
    fn capture_copies_paid_rows_and_landmarks() {
        let (g1, g2) = graphs();
        let mut oracle =
            SnapshotOracle::with_budget(&g1, &g2, 8).with_row_cache(RowCacheBudget::Unbounded);
        oracle.rows(NodeId(0)).unwrap();
        oracle.rows(NodeId(5)).unwrap();
        let idx = QueryIndex::capture(&oracle);
        assert_eq!(idx.resident_rows(), (2, 2));
        assert!(!idx.is_empty());
        let row = idx.row(Snapshot::Second, NodeId(0)).expect("resident");
        assert!(
            matches!(row, RowRef::U16(_)),
            "stored at the oracle's width"
        );
        assert_eq!(row.get(9), 1, "the chord distance");
        let ids: Vec<NodeId> = idx.rows(Snapshot::First).map(|(u, _)| u).collect();
        assert_eq!(ids, [NodeId(0), NodeId(5)]);
        assert_eq!(idx.landmarks(), &[NodeId(0), NodeId(5)]);
    }

    /// Holds both landmark folds to the row-major reference on every pair,
    /// in both snapshots.
    fn assert_records_match(idx: &QueryIndex, g1: &Graph, g2: &Graph) {
        let l = idx.landmarks().to_vec();
        let refs = [LandmarkIndex::build(g1, &l), LandmarkIndex::build(g2, &l)];
        for u in g1.nodes() {
            for v in g1.nodes() {
                let both = idx.landmark_bounds_both(u, v);
                for (which, r) in [(Snapshot::First, &refs[0]), (Snapshot::Second, &refs[1])] {
                    let want = r.bounds(u, v);
                    assert_eq!(idx.landmark_bounds(which, u, v), want, "{u:?} {v:?}");
                    assert_eq!(both[half(which)], want, "{u:?} {v:?}");
                }
            }
        }
    }

    #[test]
    fn capture_builds_landmarks_from_paid_rows_for_free() {
        let (g1, g2) = graphs();
        for cache in [RowCacheBudget::Bytes(0), RowCacheBudget::Unbounded] {
            let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 8).with_row_cache(cache);
            for u in [5, 0, 9] {
                oracle.rows(NodeId(u)).unwrap();
            }
            let spent = oracle.ledger().total();
            let idx = QueryIndex::capture(&oracle);
            assert_eq!(oracle.ledger().total(), spent, "capture charged the ledger");
            assert_eq!(idx.landmarks(), &[NodeId(0), NodeId(5), NodeId(9)]);
            assert_records_match(&idx, &g1, &g2);
        }
        // Two components: a landmark reaching one endpoint only cuts the
        // pair.
        let g1 = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let g2 = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
        oracle.rows(NodeId(0)).unwrap();
        oracle.rows(NodeId(4)).unwrap();
        let idx = QueryIndex::capture(&oracle);
        assert_records_match(&idx, &g1, &g2);
        assert_eq!(
            idx.landmark_bounds(Snapshot::Second, NodeId(1), NodeId(5)),
            (INF, INF)
        );
    }

    #[test]
    fn capture_has_no_landmarks_without_paid_rows() {
        let (g1, g2) = graphs();
        let mut oracle =
            SnapshotOracle::with_budget(&g1, &g2, 8).with_row_cache(RowCacheBudget::Unbounded);
        // Paid in one snapshot only: a resident row, but no landmark.
        oracle.row(Snapshot::Second, NodeId(3)).unwrap();
        let idx = QueryIndex::capture(&oracle);
        assert!(idx.landmarks().is_empty());
        assert_eq!(idx.resident_rows(), (0, 1));
        assert_eq!(
            idx.landmark_bounds_both(NodeId(1), NodeId(2)),
            [(0, INF); 2]
        );
    }

    #[test]
    fn records_start_on_a_cache_line() {
        for len in [1, 31, 32, 1000] {
            let a: Aligned<u16> = Aligned::filled(len, 0);
            assert_eq!(a.as_slice().as_ptr() as usize % LINE_BYTES, 0);
            assert_eq!(a.as_slice().len(), len);
            let w: Aligned<u32> = Aligned::filled(len, 0);
            assert_eq!(w.as_slice().as_ptr() as usize % LINE_BYTES, 0);
        }
    }
}
