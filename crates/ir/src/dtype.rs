//! Scalar data types carried by expressions and buffers.

use std::fmt;

/// Scalar element type of an expression or buffer.
///
/// `F16` values are *stored* as `f32` by the interpreter; the tag exists so
/// that the performance model can account for half-precision memory traffic
/// and tensor-core eligibility (the GPU simulator crate's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit signed integer (index arithmetic, indptr/indices arrays).
    I32,
    /// 64-bit signed integer.
    I64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 half precision (stored as f32 functionally).
    F16,
    /// Boolean (predicates).
    Bool,
}

impl DType {
    /// Size of one element in bytes as seen by the memory system.
    #[must_use]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::I32 | DType::F32 => 4,
            DType::I64 => 8,
            DType::F16 => 2,
            DType::Bool => 1,
        }
    }

    /// True for `I32`/`I64`/`Bool`.
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, DType::I32 | DType::I64 | DType::Bool)
    }

    /// True for `F32`/`F16`.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F16)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::I32 => "int32",
            DType::I64 => "int64",
            DType::F32 => "float32",
            DType::F16 => "float16",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn classification() {
        assert!(DType::I32.is_int());
        assert!(!DType::I32.is_float());
        assert!(DType::F16.is_float());
        assert!(DType::Bool.is_int());
    }

    #[test]
    fn display() {
        assert_eq!(DType::F32.to_string(), "float32");
        assert_eq!(DType::I32.to_string(), "int32");
    }
}
