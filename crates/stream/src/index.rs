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
//! * **One storage width per epoch.** Capture checks every finite
//!   distance among everything it copies — both snapshots' resident rows
//!   and the landmark columns, one OR per row
//!   ([`RowRef::finite_mask`]) — and stores all of it at the narrowest of
//!   `u8`, `u16` and `u32` whose sentinel (the type's `MAX`) lies above
//!   every one of them. The width follows the captured values, not the graph:
//!   the emulators' distances fit one byte, a path of 300 nodes needs two,
//!   and a weighted pair whose distances pass 65 535 keeps four. The
//!   oracle's own cache stays `u16`/`u32`; one-byte rows exist only here,
//!   behind [`IndexRow`], and are widened inside the one copy the next
//!   review's donor import makes anyway.
//! * **Resident rows.** Each snapshot keeps one contiguous arena of rows,
//!   ascending by source, and a dense slot per node says where a node's
//!   row sits (`u32::MAX` = no row). The two snapshots' slots of a node
//!   are stored side by side, `[t1, t2]`, so a Δ probe reads both from one
//!   line. A probe is one array load, not a hash lookup.
//! * **Landmark records.** With `L ≤` [`MAX_RESIDENT_LANDMARKS`] landmarks,
//!   node `v` owns one node-major record `[d1(ℓ_0..ℓ_L) | d2(ℓ_0..ℓ_L)]`:
//!   its distance to every landmark in the first snapshot, then in the
//!   second, over 16 columns each. At `u8` a record is 32 bytes, so two
//!   records share a cache line; at `u16` it is 64 bytes, one line
//!   (records start on a 64-byte boundary). Holding both snapshots in one
//!   record means a Δ query reads the same two records a distance query
//!   reads, where a row-major table would miss once per landmark, per
//!   endpoint, per snapshot.
//!
//! The bound fold is branch-free and gives exactly what
//! [`cp_graph::landmark_index::LandmarkIndex::bounds`] gives: `lb` is the
//! largest `|du − dv|`, `ub` the smallest `du + dv` over the landmarks
//! that reach both endpoints, and a landmark that reaches exactly one
//! endpoint certifies the pair disconnected, `(INF, INF)`. It runs in the
//! storage width's own lanes, summing one width up (`u8` in `u16`, `u16`
//! in `u32`, `u32` in `u64`) so a sum never wraps, and widens only its
//! result to `u32`.

use cp_core::oracle::{Snapshot, SnapshotOracle};
use cp_graph::rowpack::{convert_row_into, copy_row_into, RowDist, RowRef, RowSource, INF_U16};
use cp_graph::{NodeId, INF};
use std::ops::{Add, Sub};

/// Cap on the landmark rows folded into an epoch's triangle bounds: 16
/// landmarks fill a 32-byte record per node at `u8` width (64 bytes at
/// `u16`), and past a handful the marginal bound tightening stops paying
/// for its bytes.
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
/// [`MAX_RESIDENT_LANDMARKS`] landmarks, all at one storage width.
#[derive(Debug, Default)]
pub struct QueryIndex {
    num_nodes: usize,
    /// `slots[v][s]` is the arena index of `v`'s row in snapshot `s`
    /// ([`ABSENT`] if none): both snapshots' slots of a node share one
    /// load. Empty when neither snapshot holds a row.
    slots: Vec<[u32; 2]>,
    /// Each snapshot's row sources, ascending — its arena's row order.
    ids: [Vec<NodeId>; 2],
    landmarks: Vec<NodeId>,
    store: Store,
}

/// The epoch's rows and records at its one storage width.
#[derive(Debug)]
enum Store {
    U8(Tables<u8>),
    U16(Tables<u16>),
    U32(Tables<u32>),
}

impl Default for Store {
    fn default() -> Self {
        Store::U8(Tables::default())
    }
}

/// Evaluates `$body` with `$t` bound to the store's tables, at whichever
/// width the epoch chose.
macro_rules! tables {
    ($store:expr, $t:ident => $body:expr) => {
        match $store {
            Store::U8($t) => $body,
            Store::U16($t) => $body,
            Store::U32($t) => $body,
        }
    };
}

/// Rows and records at width `T`.
#[derive(Debug, Default)]
struct Tables<T> {
    /// Each snapshot's resident rows back to back, in `ids` order.
    rows: [Vec<T>; 2],
    /// Node-major landmark records; `None` without landmarks, when every
    /// bound is `(0, INF)`.
    records: Option<Aligned<T>>,
}

impl<T: RowDist> Tables<T> {
    /// Packs both snapshots' rows and the landmark columns at width `T`.
    fn build(
        rows: &[Vec<(NodeId, RowRef<'_>)>; 2],
        cols: &[(usize, RowRef<'_>)],
        n: usize,
    ) -> Self {
        Tables {
            rows: [pack(&rows[0], n), pack(&rows[1], n)],
            records: (!cols.is_empty()).then(|| build_records(cols, n)),
        }
    }

    fn heap_bytes(&self) -> usize {
        let held = self.rows.iter().map(Vec::capacity).sum::<usize>()
            + self.records.as_ref().map_or(0, |r| r.buf.capacity());
        held * std::mem::size_of::<T>()
    }
}

/// A captured row at its epoch's storage width. Widened, it holds
/// canonical `u32` distances with [`INF`] as the sentinel; the next
/// review's donor import ([`SnapshotOracle::import_donor_rows`])
/// copies it through [`RowSource`], widening a one-byte row in that copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexRow<'a> {
    /// Every captured distance is below 255 (`u8::MAX` sentinel).
    U8(&'a [u8]),
    /// Below 65 535 ([`INF_U16`] sentinel).
    U16(&'a [u16]),
    /// Full width ([`INF`] sentinel).
    U32(&'a [u32]),
}

impl IndexRow<'_> {
    /// The row as a canonical `u32` vector.
    pub fn to_u32_vec(&self) -> Vec<u32> {
        let mut wide = vec![0; self.num_nodes()];
        self.copy_into(&mut wide);
        wide
    }
}

impl RowSource for IndexRow<'_> {
    fn num_nodes(&self) -> usize {
        match self {
            IndexRow::U8(r) => r.len(),
            IndexRow::U16(r) => r.len(),
            IndexRow::U32(r) => r.len(),
        }
    }

    fn copy_into<T: RowDist>(&self, dst: &mut [T]) {
        match *self {
            IndexRow::U8(r) => convert_row_into(r, dst),
            IndexRow::U16(r) => copy_row_into(RowRef::U16(r), dst),
            IndexRow::U32(r) => copy_row_into(RowRef::U32(r), dst),
        }
    }
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

/// Concatenates rows into one arena of width `T`.
fn pack<T: RowDist>(rows: &[(NodeId, RowRef<'_>)], n: usize) -> Vec<T> {
    let mut arena = vec![T::default(); rows.len() * n];
    for (dst, &(_, row)) in arena.chunks_exact_mut(n).zip(rows) {
        copy_row_into(row, dst);
    }
    arena
}

/// Builds the node-major records from the landmark columns: `(i, d1(ℓ_i,
/// ·))` and `(`[`COLS`]` + i, d2(ℓ_i, ·))` land at those columns of every
/// record; unused columns keep the unreachable sentinel.
fn build_records<T: RowDist>(cols: &[(usize, RowRef<'_>)], n: usize) -> Aligned<T> {
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
        for &(col, row) in cols {
            match row {
                RowRef::U16(r) => scatter(block, col, &r[nodes.clone()]),
                RowRef::U32(r) => scatter(block, col, &r[nodes.clone()]),
            }
        }
    }
    records
}

/// Writes one column's distances into column `col` of consecutive records.
#[inline(always)]
fn scatter<S: RowDist, T: RowDist>(records: &mut [T], col: usize, src: &[S]) {
    for (rec, &d) in records.chunks_exact_mut(STRIDE).zip(src) {
        rec[col] = T::narrow(d.widen());
    }
}

/// A record entry as the fold reads it: in its own storage width's lanes,
/// with sums one width up. Widening every entry to `u32` first would fold
/// a quarter (at `u8`) of the columns per vector, and x86-64's baseline
/// SSE2 has unsigned max and min for bytes but not for `u32` lanes.
trait Lane: RowDist + Ord + Sub<Output = Self> + Into<u32> {
    /// Holds the sum of two entries without wrapping.
    type Sum: Copy + Ord + From<Self> + Add<Output = Self::Sum> + TryInto<u32>;
    /// The unreachable sentinel.
    const MAX: Self;
    /// Twice the sentinel, above every sum of two finite entries: the
    /// fold's "no landmark reaches both endpoints".
    const TOP: Self::Sum;
}

impl Lane for u8 {
    type Sum = u16;
    const MAX: u8 = u8::MAX;
    const TOP: u16 = 2 * u8::MAX as u16;
}

impl Lane for u16 {
    type Sum = u32;
    const MAX: u16 = u16::MAX;
    const TOP: u32 = 2 * u16::MAX as u32;
}

impl Lane for u32 {
    type Sum = u64;
    const MAX: u32 = u32::MAX;
    const TOP: u64 = 2 * u32::MAX as u64;
}

/// A landmark fold over one snapshot's columns of two records (see the
/// module docs).
#[derive(Clone, Copy)]
struct Fold {
    lb: u32,
    ub: u32,
    cut: bool,
}

impl Fold {
    /// Folds the paired columns `cu` and `cv`. When no landmark cuts the
    /// pair, every column holds two finite entries or two sentinels, so
    /// `lb` is the exact `max |du − dv|` and `ub` the exact `min(du + dv)`
    /// (two sentinels sum to [`Lane::TOP`], which reads as [`INF`], as
    /// does a sum past `u32`). A column that cuts the pair sums to at
    /// least the sentinel; see [`rules_out`] for why that sum is harmless.
    #[inline(always)]
    fn of<T: Lane>(cu: &[T], cv: &[T]) -> Fold {
        let (mut lb, mut ub, mut cut) = (T::default(), T::TOP, false);
        for (&du, &dv) in cu.iter().zip(cv) {
            lb = lb.max(du.max(dv) - du.min(dv));
            ub = ub.min(T::Sum::from(du) + T::Sum::from(dv));
            cut |= (du == T::MAX) != (dv == T::MAX);
        }
        Fold {
            lb: lb.into(),
            ub: if ub >= T::TOP {
                INF
            } else {
                ub.try_into().unwrap_or(INF)
            },
            cut,
        }
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
fn fold_half<T: Lane>(ru: &[T; STRIDE], rv: &[T; STRIDE], h: usize) -> Fold {
    let cols = h * COLS..(h + 1) * COLS;
    Fold::of(&ru[cols.clone()], &rv[cols])
}

/// Folds both snapshots' columns of two records.
#[inline(always)]
fn fold_both<T: Lane>(ru: &[T; STRIDE], rv: &[T; STRIDE]) -> [Fold; 2] {
    [fold_half(ru, rv, 0), fold_half(ru, rv, 1)]
}

/// Whether every `v ≠ u` has `UB1(u, v) − LB2(u, v) < 1` or `LB2 = ∞`;
/// stops at the first `v` that does not.
fn rules_out<T: Lane>(records: &Aligned<T>, u: NodeId) -> bool {
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
            // LB2 is INF when the pair is cut in `G_t2`, and otherwise below
            // the sentinel. UB1 is the minimum over every landmark, and one
            // that reaches a single endpoint in `G_t1` sums to at least the
            // sentinel, so it can never bring UB1 − LB2 below 1: the test
            // decides as the minimum over landmarks reaching both endpoints
            // (`LandmarkIndex::upper_bound`) does.
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

    /// Captures the oracle's resident rows and landmark records at the
    /// epoch's one storage width (see the module docs). Free: nothing is
    /// charged (`&self` access only), and the capture happens after the
    /// pipeline ran, inside the review, so published epochs carry it from
    /// birth. The landmarks are the first [`MAX_RESIDENT_LANDMARKS`] nodes
    /// paid in both snapshots, ascending; paid rows are always resident,
    /// so their records are copied straight from the oracle's store.
    pub fn capture(oracle: &SnapshotOracle<'_>) -> Self {
        let n = oracle.num_nodes();
        let landmarks: Vec<NodeId> = oracle
            .fully_cached_nodes()
            .into_iter()
            .take(MAX_RESIDENT_LANDMARKS)
            .collect();
        let mut cols = Vec::with_capacity(2 * landmarks.len());
        for (i, &w) in landmarks.iter().enumerate() {
            let (r1, r2) = oracle.cached_rows(w).expect("a paid landmark is resident");
            cols.extend([(i, r1), (COLS + i, r2)]);
        }
        let rows = [
            oracle.resident_rows(Snapshot::First),
            oracle.resident_rows(Snapshot::Second),
        ];
        let mask = rows
            .iter()
            .flatten()
            .map(|(_, row)| row)
            .chain(cols.iter().map(|(_, row)| row))
            .fold(0, |mask, row| mask | row.finite_mask());
        let store = if mask <= u32::from(u8::MAX) {
            Store::U8(Tables::build(&rows, &cols, n))
        } else if mask <= u32::from(INF_U16) {
            Store::U16(Tables::build(&rows, &cols, n))
        } else {
            Store::U32(Tables::build(&rows, &cols, n))
        };
        let ids = rows.map(|set| set.into_iter().map(|(u, _)| u).collect::<Vec<_>>());
        let mut slots = Vec::new();
        if ids.iter().any(|set| !set.is_empty()) {
            slots = vec![[ABSENT; 2]; n];
            for (h, set) in ids.iter().enumerate() {
                for (k, &u) in set.iter().enumerate() {
                    slots[u.index()][h] = k as u32;
                }
            }
        }
        QueryIndex {
            num_nodes: n,
            slots,
            ids,
            landmarks,
            store,
        }
    }

    /// Size of the node universe the rows were computed over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Bytes per stored distance: 1, 2 or 4, the narrowest width whose
    /// sentinel lies above every finite distance the capture copied (1 for
    /// an index that holds nothing).
    pub fn width_bytes(&self) -> usize {
        match self.store {
            Store::U8(_) => 1,
            Store::U16(_) => 2,
            Store::U32(_) => 4,
        }
    }

    /// Heap bytes the index holds: row slots, both row arenas, the
    /// landmark records and the id lists.
    pub fn heap_bytes(&self) -> usize {
        let ids = self.ids.iter().map(Vec::capacity).sum::<usize>() + self.landmarks.capacity();
        self.slots.capacity() * std::mem::size_of::<[u32; 2]>()
            + ids * std::mem::size_of::<NodeId>()
            + tables!(&self.store, t => t.heap_bytes())
    }

    /// The arena index of `u`'s row in snapshot half `h`.
    #[inline(always)]
    fn slot(&self, h: usize, u: NodeId) -> Option<usize> {
        match self.slots.get(u.index()) {
            Some(slot) if slot[h] != ABSENT => Some(slot[h] as usize),
            _ => None,
        }
    }

    /// The row stored at arena index `k` of snapshot half `h`.
    fn at(&self, h: usize, k: usize) -> IndexRow<'_> {
        let span = k * self.num_nodes..(k + 1) * self.num_nodes;
        match &self.store {
            Store::U8(t) => IndexRow::U8(&t.rows[h][span]),
            Store::U16(t) => IndexRow::U16(&t.rows[h][span]),
            Store::U32(t) => IndexRow::U32(&t.rows[h][span]),
        }
    }

    /// The captured exact distance row of `u` in the chosen review
    /// snapshot ([`Snapshot::Second`] is the published epoch's graph), at
    /// the epoch's storage width.
    #[inline]
    pub fn row(&self, which: Snapshot, u: NodeId) -> Option<IndexRow<'_>> {
        let h = half(which);
        self.slot(h, u).map(|k| self.at(h, k))
    }

    /// `d(u, v)` in one review snapshot from a resident row of either
    /// endpoint (the graphs are undirected; `u`'s row is read first), if
    /// one was captured. Both endpoints must lie inside the universe.
    #[inline]
    pub fn resident_distance(&self, which: Snapshot, u: NodeId, v: NodeId) -> Option<u32> {
        let h = half(which);
        let (k, other) = match self.slot(h, u) {
            Some(k) => (k, v),
            None => (self.slot(h, v)?, u),
        };
        debug_assert!(
            other.index() < self.num_nodes,
            "endpoint outside the universe"
        );
        let at = k * self.num_nodes + other.index();
        Some(tables!(&self.store, t => t.rows[h][at].widen()))
    }

    /// Every captured row of one snapshot, ascending by source — the next
    /// review imports the `t2` rows as its `t1` donors.
    pub fn rows(&self, which: Snapshot) -> impl Iterator<Item = (NodeId, IndexRow<'_>)> + '_ {
        let h = half(which);
        self.ids[h]
            .iter()
            .enumerate()
            .map(move |(k, &u)| (u, self.at(h, k)))
    }

    /// The landmarks behind the bounds, ascending (empty when the review
    /// paid for no node in both snapshots).
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The landmark interval on `d(u, v)` in one snapshot: `(0, INF)` with
    /// no landmarks, `(INF, INF)` when certified disconnected, `(0, 0)`
    /// for `u == v`. Ignores resident rows.
    #[inline]
    pub fn landmark_bounds(&self, which: Snapshot, u: NodeId, v: NodeId) -> (u32, u32) {
        if u == v {
            return (0, 0);
        }
        let h = half(which);
        tables!(&self.store, t => match &t.records {
            Some(r) => fold_half(r.record(u), r.record(v), h).interval(),
            None => (0, INF),
        })
    }

    /// [`Self::landmark_bounds`] in both snapshots at once, `[first,
    /// second]`, from one pass over the two records.
    #[inline]
    pub fn landmark_bounds_both(&self, u: NodeId, v: NodeId) -> [(u32, u32); 2] {
        if u == v {
            return [(0, 0); 2];
        }
        tables!(&self.store, t => match &t.records {
            Some(r) => fold_both(r.record(u), r.record(v)).map(Fold::interval),
            None => [(0, INF); 2],
        })
    }

    /// Whether the landmark bounds prove that `u` has no converging pair:
    /// for every `v ≠ u`, `UB1(u, v) − LB2(u, v) < 1`, or `LB2(u, v) = ∞`
    /// (certified disconnected in `G_t2`, so Δ = 0). Stops at the first
    /// `v` the bounds cannot rule out. `false` with no landmarks.
    pub fn rules_out_seed(&self, u: NodeId) -> bool {
        tables!(&self.store, t => t.records.as_ref().is_some_and(|r| rules_out(r, u)))
    }

    /// `(t1 rows, t2 rows)` captured.
    pub fn resident_rows(&self) -> (usize, usize) {
        (self.ids[0].len(), self.ids[1].len())
    }

    /// Whether the index holds nothing useful (no rows, no landmarks).
    pub fn is_empty(&self) -> bool {
        self.resident_rows() == (0, 0) && self.landmarks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(idx.width_bytes(), 1);
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
        let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 8);
        oracle.rows(NodeId(0)).unwrap();
        oracle.rows(NodeId(5)).unwrap();
        let idx = QueryIndex::capture(&oracle);
        assert_eq!(idx.resident_rows(), (2, 2));
        assert!(!idx.is_empty());
        let row = idx.row(Snapshot::Second, NodeId(0)).expect("resident");
        assert!(matches!(row, IndexRow::U8(_)), "every distance fits a byte");
        assert_eq!(idx.width_bytes(), 1);
        assert_eq!(row.to_u32_vec()[9], 1, "the chord distance");
        assert_eq!(
            idx.resident_distance(Snapshot::Second, NodeId(9), NodeId(0)),
            Some(1),
            "read from the other endpoint's row"
        );
        assert_eq!(
            idx.resident_distance(Snapshot::First, NodeId(3), NodeId(4)),
            None
        );
        // Slots, two arenas of two 10-node rows, records, ids.
        assert!(idx.heap_bytes() >= 10 * 8 + 2 * 2 * 10 + 10 * STRIDE);
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
        let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 8);
        for u in [5, 0, 9] {
            oracle.rows(NodeId(u)).unwrap();
        }
        let spent = oracle.ledger().total();
        let idx = QueryIndex::capture(&oracle);
        assert_eq!(oracle.ledger().total(), spent, "capture charged the ledger");
        assert_eq!(idx.landmarks(), &[NodeId(0), NodeId(5), NodeId(9)]);
        assert_records_match(&idx, &g1, &g2);
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
        let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 8);
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
            let b: Aligned<u8> = Aligned::filled(len, 0);
            assert_eq!(b.as_slice().as_ptr() as usize % LINE_BYTES, 0);
        }
    }
}
