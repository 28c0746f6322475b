//! Compact distance-row storage: `u16` packing and a pooled slab arena.
//!
//! Unweighted BFS distances on a universe of `n ≤ 65 535` nodes are at most
//! `n − 1 ≤ 65 534`, so they fit in a `u16` with [`INF_U16`] left over as
//! the unreachable sentinel — half the bytes of the canonical `u32` rows,
//! so the oracle's row store holds paid rows in half the memory and the Δ
//! scan streams twice the nodes per cache line. Weighted Dijkstra rows
//! (and universes beyond `u16`) keep the full `u32` width; [`RowRef`]
//! carries either width through a common read interface.
//!
//! [`RowDist`] also covers `u8` (`u8::MAX` is its sentinel), but only the
//! epoch query index (`cp_stream::QueryIndex`) stores rows that narrow:
//! an epoch whose captured distances all sit below 255 keeps them in one
//! byte. A [`RowRef`] is never one byte wide, so the oracle, the Δ-scan
//! and the BFS kernels only ever see `u16` and `u32` rows.
//!
//! [`RowArena`] pools the rows themselves: fixed-length slots carved out of
//! large contiguous slabs, so thousands of rows cost a few large
//! allocations instead of one each. A slot is never freed before the arena
//! drops.

use crate::{Graph, INF};

/// Sentinel for "unreachable" in a `u16`-packed row (maps to/from [`INF`]).
pub const INF_U16: u16 = u16::MAX;

/// Whether distance rows of `graph` can be packed to `u16`: unit weights
/// (BFS distances are bounded by `n − 1`) and a node universe small enough
/// that every finite distance stays strictly below [`INF_U16`].
pub fn fits_u16(graph: &Graph) -> bool {
    !graph.is_weighted() && graph.num_nodes() <= u16::MAX as usize
}

/// Packs a `u32` row into a (cleared) `u16` buffer, mapping [`INF`] to
/// [`INF_U16`]. The caller guarantees every finite distance fits (see
/// [`fits_u16`]); debug builds assert it.
pub fn pack_u16_into(src: &[u32], dst: &mut Vec<u16>) {
    dst.clear();
    dst.resize(src.len(), 0);
    copy_row_into(RowRef::U32(src), dst);
}

/// Widens a `u16`-packed row back to `u32`, mapping [`INF_U16`] to [`INF`].
/// The exact inverse of [`pack_u16_into`] for rows that satisfied
/// [`fits_u16`] when packed.
pub fn widen_u16_into(src: &[u16], dst: &mut Vec<u32>) {
    dst.clear();
    dst.extend(src.iter().map(|&d| widen_u16(d)));
}

/// Widens one packed distance ([`INF_U16`] → [`INF`]).
#[inline]
pub fn widen_u16(d: u16) -> u32 {
    if d == INF_U16 {
        INF
    } else {
        u32::from(d)
    }
}

/// One row entry at its storage width: `u8` (`u8::MAX` sentinel), `u16`
/// ([`INF_U16`] sentinel) or `u32` ([`INF`] sentinel). Lets one generic
/// body serve rows of any width without widening them first.
pub trait RowDist: Copy + Default + Send + Sync + 'static {
    /// The canonical `u32` distance ([`INF`] if unreachable).
    fn widen(self) -> u32;
    /// Stores a canonical distance at this width ([`INF`] maps to the
    /// width's sentinel). The caller guarantees a finite value fits.
    fn narrow(d: u32) -> Self;
    /// The row as a slice of this width, when it is stored at it.
    fn slice(row: RowRef<'_>) -> Option<&[Self]>;
}

impl RowDist for u16 {
    #[inline(always)]
    fn widen(self) -> u32 {
        widen_u16(self)
    }
    #[inline(always)]
    fn narrow(d: u32) -> u16 {
        debug_assert!(d == INF || d < u32::from(INF_U16), "distance overflows u16");
        if d == INF {
            INF_U16
        } else {
            d as u16
        }
    }
    fn slice(row: RowRef<'_>) -> Option<&[u16]> {
        match row {
            RowRef::U16(r) => Some(r),
            RowRef::U32(_) => None,
        }
    }
}

impl RowDist for u8 {
    #[inline(always)]
    fn widen(self) -> u32 {
        if self == u8::MAX {
            INF
        } else {
            u32::from(self)
        }
    }
    #[inline(always)]
    fn narrow(d: u32) -> u8 {
        debug_assert!(d == INF || d < u32::from(u8::MAX), "distance overflows u8");
        if d == INF {
            u8::MAX
        } else {
            d as u8
        }
    }
    /// Always `None`: no [`RowRef`] is one byte wide.
    fn slice(_row: RowRef<'_>) -> Option<&[u8]> {
        None
    }
}

impl RowDist for u32 {
    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }
    #[inline(always)]
    fn narrow(d: u32) -> u32 {
        d
    }
    fn slice(row: RowRef<'_>) -> Option<&[u32]> {
        match row {
            RowRef::U32(r) => Some(r),
            RowRef::U16(_) => None,
        }
    }
}

/// Copies a row into a slot of width `T`: a straight copy when the row is
/// stored at `T`, an element-wise conversion otherwise.
pub fn copy_row_into<T: RowDist>(row: RowRef<'_>, dst: &mut [T]) {
    assert_eq!(row.len(), dst.len(), "row length mismatch");
    if let Some(src) = T::slice(row) {
        dst.copy_from_slice(src);
        return;
    }
    match row {
        RowRef::U16(src) => convert_row_into(src, dst),
        RowRef::U32(src) => convert_row_into(src, dst),
    }
}

/// Converts a row element-wise between two storage widths, sentinel to
/// sentinel. The caller guarantees every finite distance fits `T`.
pub fn convert_row_into<S: RowDist, T: RowDist>(src: &[S], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "row length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = T::narrow(s.widen());
    }
}

/// A distance row that can be copied into a slot of any storage width:
/// a [`RowRef`], or a row of the epoch query index, which may be one byte
/// wide. The oracle's donor import takes either.
pub trait RowSource {
    /// Number of nodes in the row.
    fn num_nodes(&self) -> usize;
    /// Copies the row into `dst`, converting to `T` when it is stored at
    /// another width.
    fn copy_into<T: RowDist>(&self, dst: &mut [T]);
}

impl RowSource for RowRef<'_> {
    fn num_nodes(&self) -> usize {
        self.len()
    }
    fn copy_into<T: RowDist>(&self, dst: &mut [T]) {
        copy_row_into(*self, dst);
    }
}

/// A distance row at either storage width, read through a common interface.
///
/// Borrowed from a [`RowArena`] (or a caller's scratch buffer); `get`
/// always reports canonical `u32` distances with [`INF`] as the sentinel
/// regardless of the underlying width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowRef<'a> {
    /// A `u16`-packed row ([`INF_U16`] sentinel).
    U16(&'a [u16]),
    /// A full-width row ([`INF`] sentinel).
    U32(&'a [u32]),
}

impl<'a> RowRef<'a> {
    /// Number of nodes in the row.
    pub fn len(&self) -> usize {
        match self {
            RowRef::U16(r) => r.len(),
            RowRef::U32(r) => r.len(),
        }
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical `u32` distance of node `i` ([`INF`] if unreachable).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            RowRef::U16(r) => widen_u16(r[i]),
            RowRef::U32(r) => r[i],
        }
    }

    /// The row as a canonical `u32` vector.
    pub fn to_u32_vec(&self) -> Vec<u32> {
        match self {
            RowRef::U16(r) => r.iter().map(|&d| widen_u16(d)).collect(),
            RowRef::U32(r) => r.to_vec(),
        }
    }

    /// The bitwise OR of `d + 1` over the row's finite distances `d` (the
    /// sentinel wraps to 0 and adds nothing). It is below `2^k` exactly
    /// when every finite distance is below `2^k − 1`, so it says which
    /// storage widths' sentinels clear every distance: `≤ 255` fits `u8`,
    /// `≤ 65 535` fits `u16`. An OR vectorizes at the x86-64 baseline,
    /// where an unsigned maximum does not.
    pub fn finite_mask(&self) -> u32 {
        match self {
            RowRef::U16(r) => u32::from(r.iter().fold(0u16, |m, &d| m | d.wrapping_add(1))),
            RowRef::U32(r) => r.iter().fold(0, |m, &d| m | d.wrapping_add(1)),
        }
    }
}

/// Handle to a row slot inside a [`RowArena`]: the slot's allocation
/// index (slots are numbered `0, 1, 2, …` in allocation order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowId(pub u32);

/// A pooled arena of fixed-length rows, stored in contiguous slabs.
///
/// Slots are addressed by [`RowId`] and live until the arena drops.
pub struct RowArena<T> {
    row_len: usize,
    rows_per_slab: usize,
    slabs: Vec<Vec<T>>,
    next: u32,
}

/// Target slab size in bytes (rows per slab is derived from the row width).
const SLAB_TARGET_BYTES: usize = 1 << 20;

impl<T: Copy + Default> RowArena<T> {
    /// Creates an arena of rows of `row_len` elements each.
    pub fn new(row_len: usize) -> Self {
        let row_bytes = (row_len * std::mem::size_of::<T>()).max(1);
        RowArena {
            row_len,
            rows_per_slab: (SLAB_TARGET_BYTES / row_bytes).clamp(1, 1 << 16),
            slabs: Vec::new(),
            next: 0,
        }
    }

    /// Allocates the next slot. Its contents are zero — callers overwrite
    /// the full row via [`Self::row_mut`].
    pub fn alloc(&mut self) -> RowId {
        let id = self.next;
        self.next += 1;
        let slab = id as usize / self.rows_per_slab;
        if slab == self.slabs.len() {
            self.slabs
                .push(vec![T::default(); self.rows_per_slab * self.row_len]);
        }
        RowId(id)
    }

    /// The row stored in `id`'s slot.
    pub fn row(&self, id: RowId) -> &[T] {
        let (slab, off) = self.locate(id);
        &self.slabs[slab][off..off + self.row_len]
    }

    /// Mutable access to `id`'s slot.
    pub fn row_mut(&mut self, id: RowId) -> &mut [T] {
        let (slab, off) = self.locate(id);
        &mut self.slabs[slab][off..off + self.row_len]
    }

    fn locate(&self, id: RowId) -> (usize, usize) {
        let i = id.0 as usize;
        (
            i / self.rows_per_slab,
            (i % self.rows_per_slab) * self.row_len,
        )
    }

    /// Bytes of one row's payload.
    pub fn row_bytes(&self) -> usize {
        self.row_len * std::mem::size_of::<T>()
    }

    /// Rows allocated so far.
    pub fn live_rows(&self) -> u64 {
        u64::from(self.next)
    }

    /// Bytes of slab capacity currently held (allocated and spare slots
    /// alike).
    pub fn slab_bytes(&self) -> u64 {
        (self.slabs.len() * self.rows_per_slab * self.row_len * std::mem::size_of::<T>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::NodeId;

    #[test]
    fn pack_widen_roundtrip() {
        let row = vec![0, 1, 7, 65_534, INF];
        let mut packed = Vec::new();
        pack_u16_into(&row, &mut packed);
        assert_eq!(packed, vec![0, 1, 7, 65_534, INF_U16]);
        let mut widened = Vec::new();
        widen_u16_into(&packed, &mut widened);
        assert_eq!(widened, row);
    }

    #[test]
    fn fits_u16_rules() {
        let unweighted = graph_from_edges(8, &[(0, 1), (1, 2)]);
        assert!(fits_u16(&unweighted));
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 5);
        assert!(!fits_u16(&b.build()), "weighted rows stay u32");
    }

    #[test]
    fn row_ref_widens_on_read() {
        let packed: Vec<u16> = vec![3, INF_U16];
        let r = RowRef::U16(&packed);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.get(0), 3);
        assert_eq!(r.get(1), INF);
        assert_eq!(r.to_u32_vec(), vec![3, INF]);
        let wide = vec![4, INF];
        let w = RowRef::U32(&wide);
        assert_eq!(w.get(1), INF);
        assert_eq!(w.to_u32_vec(), wide);
    }

    #[test]
    fn copy_row_into_converts_between_widths() {
        let wide = vec![0, 7, 65_534, INF];
        let packed: Vec<u16> = vec![0, 7, 65_534, INF_U16];
        let mut to16 = vec![1u16; 4];
        copy_row_into(RowRef::U32(&wide), &mut to16);
        assert_eq!(to16, packed);
        let mut to32 = vec![1u32; 4];
        copy_row_into(RowRef::U16(&packed), &mut to32);
        assert_eq!(to32, wide);
        let mut same = vec![1u16; 4];
        copy_row_into(RowRef::U16(&packed), &mut same);
        assert_eq!(same, packed);
        assert_eq!(u16::slice(RowRef::U16(&packed)), Some(&packed[..]));
        assert_eq!(u32::slice(RowRef::U16(&packed)), None);
        assert_eq!((INF_U16.widen(), u16::narrow(INF)), (INF, INF_U16));
    }

    #[test]
    fn one_byte_rows_keep_u8_max_as_the_sentinel() {
        let wide = vec![0, 7, 254, INF];
        let mut narrow = vec![1u8; 4];
        copy_row_into(RowRef::U32(&wide), &mut narrow);
        assert_eq!(narrow, [0, 7, 254, u8::MAX]);
        let mut packed = vec![1u16; 4];
        convert_row_into(&narrow, &mut packed);
        assert_eq!(packed, [0, 7, 254, INF_U16]);
        let mut back = vec![1u32; 4];
        RowRef::U16(&packed).copy_into(&mut back);
        assert_eq!(back, wide);
        assert_eq!(u8::slice(RowRef::U16(&packed)), None);
        assert_eq!((u8::MAX.widen(), u8::narrow(INF)), (INF, u8::MAX));
        assert_eq!(RowRef::U16(&packed).finite_mask(), 255, "254 fits u8");
        assert_eq!(
            RowRef::U16(&[255, INF_U16]).finite_mask(),
            256,
            "255 does not"
        );
        assert_eq!(RowRef::U32(&[65_534, INF]).finite_mask(), 65_535);
        assert_eq!(RowRef::U32(&[65_535]).finite_mask(), 65_536);
        assert_eq!(RowRef::U32(&[INF, INF]).finite_mask(), 0);
    }

    #[test]
    fn arena_allocates_reads_and_recycles() {
        let mut arena: RowArena<u16> = RowArena::new(3);
        let a = arena.alloc();
        let b = arena.alloc();
        arena.row_mut(a).copy_from_slice(&[1, 2, 3]);
        arena.row_mut(b).copy_from_slice(&[4, 5, 6]);
        assert_eq!(arena.row(a), &[1, 2, 3]);
        assert_eq!(arena.row(b), &[4, 5, 6]);
        assert_eq!(arena.live_rows(), 2);
        assert_eq!((a, b), (RowId(0), RowId(1)), "slots in allocation order");
        assert!(arena.slab_bytes() > 0);
    }

    #[test]
    fn arena_spans_multiple_slabs() {
        // Rows big enough that a slab holds few of them; force several slabs.
        let row_len = SLAB_TARGET_BYTES / std::mem::size_of::<u32>() / 2;
        let mut arena: RowArena<u32> = RowArena::new(row_len);
        let ids: Vec<RowId> = (0..5).map(|_| arena.alloc()).collect();
        for (i, &id) in ids.iter().enumerate() {
            arena.row_mut(id)[0] = i as u32;
            arena.row_mut(id)[row_len - 1] = 1000 + i as u32;
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(arena.row(id)[0], i as u32);
            assert_eq!(arena.row(id)[row_len - 1], 1000 + i as u32);
        }
        assert!(arena.slabs.len() >= 2, "expected multiple slabs");
    }

    #[test]
    fn zero_length_rows_are_harmless() {
        let mut arena: RowArena<u16> = RowArena::new(0);
        let id = arena.alloc();
        assert!(arena.row(id).is_empty());
    }
}
