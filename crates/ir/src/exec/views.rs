//! Segmented view bindings: caller-owned storage bound into a kernel's
//! buffer slots without copying (the zero-copy batch entry,
//! [`CompiledKernel::run_views`]).
//!
//! **The aliasing rule.** A writable element is reachable through exactly
//! one binding of a launch. The executor's element accesses — generic
//! dispatch and the fused lane bodies alike — are plain raw-pointer reads
//! and writes on the caller's thread, and this rule is what makes them
//! sound: a launch's frame is the only accessor of what it writes. The
//! borrows enforce it. [`ColsView::write`] and [`RowsView::write`] take
//! `&mut` slices for the view's lifetime, [`BoundArg::Tensor`] a `&mut`
//! tensor, and a read-only view's `&` slices keep them from being written
//! elsewhere meanwhile. A slice cannot go into two writable views, or into
//! a writable view while a read-only one holds it:
//!
//! ```compile_fail,E0499
//! use sparsetir_ir::exec::ColsView;
//! let mut c = vec![0.0f32; 8];
//! let a = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! let b = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! drop((a, b));
//! ```
//!
//! ```compile_fail,E0502
//! use sparsetir_ir::exec::ColsView;
//! let mut c = vec![0.0f32; 8];
//! let r = ColsView::read(2, &[(&c[..], 4)]).unwrap();
//! let w = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! drop((r, w));
//! ```
//!
//! ```compile_fail,E0499
//! use sparsetir_ir::exec::RowsView;
//! let mut c = vec![0.0f32; 8];
//! let a = RowsView::write(8, vec![&mut c[..]]).unwrap();
//! let b = RowsView::write(8, vec![&mut c[..]]).unwrap();
//! drop((a, b));
//! ```
//!
//! ```compile_fail,E0502
//! use sparsetir_ir::exec::RowsView;
//! let mut c = vec![0.0f32; 8];
//! let r = RowsView::read(8, &[&c[..]]).unwrap();
//! let w = RowsView::write(8, vec![&mut c[..]]).unwrap();
//! drop((r, w));
//! ```
//!
//! Disjoint slices of one buffer bind side by side, and any number of
//! read-only views may share one:
//!
//! ```
//! use sparsetir_ir::exec::{ColsView, RowsView};
//! let mut c = vec![0.0f32; 8];
//! let (lo, hi) = c.split_at_mut(4);
//! let w = RowsView::write(4, vec![lo, hi]).unwrap();
//! let b = vec![1.0f32; 8];
//! let (r1, r2) = (ColsView::read(2, &[(&b[..], 4)]), RowsView::read(8, &[&b[..]]));
//! assert_eq!((w.n_segs(), r1.unwrap().width(), r2.unwrap().n_segs()), (2, 4, 1));
//! ```

#[cfg(doc)]
use super::CompiledKernel;
use super::{ColSeg, ExecError, RawBuf, RowSeg};
use crate::eval::TensorData;
use std::collections::HashMap;

/// A column-segmented f32 binding: one logical `rows × width` row-major
/// matrix whose columns are backed by several caller-owned row-major
/// buffers side by side (each segment contributing a contiguous block of
/// columns). The flat-index→(segment, offset) resolution is a precomputed
/// per-column table, so the executor's fused lane kernels run per-segment
/// contiguous loops with no per-element division.
pub struct ColsView<'a> {
    table: Vec<ColSeg>,
    rows: usize,
    writable: bool,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> ColsView<'a> {
    /// Read-only view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side; total width is the sum of the `cols` values.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn read(rows: usize, segs: &[(&'a [f32], usize)]) -> Result<ColsView<'a>, ExecError> {
        // Read-only: the pointers are never written through (`writable`
        // gates every store path).
        let iter = segs.iter().map(|(s, cols)| (s.as_ptr().cast_mut(), s.len(), *cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Writable view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn write(
        rows: usize,
        segs: Vec<(&'a mut [f32], usize)>,
    ) -> Result<ColsView<'a>, ExecError> {
        let iter = segs.into_iter().map(|(s, cols)| (s.as_mut_ptr(), s.len(), cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: true,
            _marker: std::marker::PhantomData,
        })
    }

    /// Total logical width (sum of the segment widths).
    #[must_use]
    pub fn width(&self) -> usize {
        self.table.len()
    }

    /// Logical row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub(super) fn raw(&self) -> RawBuf {
        RawBuf::SegCols {
            table: self.table.as_ptr(),
            width: self.table.len(),
            rows: self.rows,
            writable: self.writable,
        }
    }
}

fn col_table(
    rows: usize,
    segs: impl Iterator<Item = (*mut f32, usize, usize)>,
) -> Result<Vec<ColSeg>, ExecError> {
    let mut table = Vec::new();
    for (i, (ptr, len, cols)) in segs.enumerate() {
        if rows.checked_mul(cols) != Some(len) {
            return Err(ExecError::new(format!(
                "segmented binding: segment {i} has {len} elements, expected {rows}x{cols}"
            )));
        }
        let stride = u32::try_from(cols)
            .map_err(|_| ExecError::new("segmented binding: segment width overflows u32"))?;
        for c in 0..cols {
            // `wrapping_add` claims nothing about the allocation: with
            // `rows == 0` the segment is empty (`len == 0`) and `ptr + c`
            // would be out of bounds for `ptr::add`. Every dereference of
            // `ColSeg::ptr` sits behind an `idx < rows * width` check
            // (`seg_cols_ptr`, `fuse::resolve_lanes`), which a zero-row view
            // never passes; for `rows > 0`, `c < cols <= len` keeps the
            // pointer inside the segment.
            debug_assert!(rows == 0 || c < len);
            table.push(ColSeg { ptr: ptr.wrapping_add(c), stride, rem: stride - c as u32 });
        }
    }
    Ok(table)
}

/// A row-segmented f32 binding: `n` equal-length contiguous segments
/// concatenated into one flat logical buffer (rider matrices stacked
/// along the leading axis).
pub struct RowsView<'a> {
    segs: Vec<RowSeg>,
    seg_len: usize,
    writable: bool,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> RowsView<'a> {
    /// Read-only view of equal-length segments, each of `seg_len`
    /// elements.
    ///
    /// # Errors
    /// Fails when a segment's length differs from `seg_len`.
    pub fn read(seg_len: usize, segs: &[&'a [f32]]) -> Result<RowsView<'a>, ExecError> {
        let mut table = Vec::with_capacity(segs.len());
        for (i, s) in segs.iter().enumerate() {
            check_seg_len(i, s.len(), seg_len)?;
            table.push(RowSeg { ptr: s.as_ptr().cast_mut() });
        }
        Ok(RowsView { segs: table, seg_len, writable: false, _marker: std::marker::PhantomData })
    }

    /// Writable view of equal-length segments, each of `seg_len`
    /// elements.
    ///
    /// # Errors
    /// Fails when a segment's length differs from `seg_len`.
    pub fn write(seg_len: usize, segs: Vec<&'a mut [f32]>) -> Result<RowsView<'a>, ExecError> {
        let mut table = Vec::with_capacity(segs.len());
        for (i, s) in segs.into_iter().enumerate() {
            check_seg_len(i, s.len(), seg_len)?;
            table.push(RowSeg { ptr: s.as_mut_ptr() });
        }
        Ok(RowsView { segs: table, seg_len, writable: true, _marker: std::marker::PhantomData })
    }

    /// Number of segments.
    #[must_use]
    pub fn n_segs(&self) -> usize {
        self.segs.len()
    }

    pub(super) fn raw(&self) -> RawBuf {
        RawBuf::SegRows {
            segs: self.segs.as_ptr(),
            n_segs: self.segs.len(),
            seg_len: self.seg_len,
            writable: self.writable,
        }
    }
}

fn check_seg_len(i: usize, len: usize, seg_len: usize) -> Result<(), ExecError> {
    if len != seg_len {
        return Err(ExecError::new(format!(
            "segmented binding: segment {i} has {len} elements, expected {seg_len}"
        )));
    }
    Ok(())
}

/// One binding handed to [`CompiledKernel::run_views`]: a whole tensor or
/// a segmented view.
pub enum BoundArg<'a> {
    /// A whole owned tensor, as [`CompiledKernel::run`] binds.
    Tensor(&'a mut TensorData),
    /// A column-segmented f32 view.
    Cols(ColsView<'a>),
    /// A row-segmented f32 view.
    Rows(RowsView<'a>),
}

/// Named bindings for [`CompiledKernel::run_views`], mixing whole tensors
/// with segmented views over caller-owned storage.
#[derive(Default)]
pub struct ViewBindings<'a> {
    pub(super) map: HashMap<String, BoundArg<'a>>,
}

impl<'a> ViewBindings<'a> {
    /// Empty binding set.
    #[must_use]
    pub fn new() -> ViewBindings<'a> {
        ViewBindings::default()
    }

    /// Bind every tensor of `tensors` by name (the bridge from the
    /// copying path's binding map).
    pub fn from_tensors(tensors: &'a mut HashMap<String, TensorData>) -> ViewBindings<'a> {
        let map = tensors.iter_mut().map(|(k, v)| (k.clone(), BoundArg::Tensor(v))).collect();
        ViewBindings { map }
    }

    /// Bind a whole tensor under `name`.
    pub fn bind_tensor(&mut self, name: impl Into<String>, t: &'a mut TensorData) {
        self.map.insert(name.into(), BoundArg::Tensor(t));
    }

    /// Bind a column-segmented view under `name`.
    pub fn bind_cols(&mut self, name: impl Into<String>, v: ColsView<'a>) {
        self.map.insert(name.into(), BoundArg::Cols(v));
    }

    /// Bind a row-segmented view under `name`.
    pub fn bind_rows(&mut self, name: impl Into<String>, v: RowsView<'a>) {
        self.map.insert(name.into(), BoundArg::Rows(v));
    }
}
