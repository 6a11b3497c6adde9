//! Error types for why-not processing.

use std::fmt;

/// Failures surfaced by the why-not algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WhyNotError {
    /// The why-not set was empty.
    EmptyWhyNot,
    /// A supposed why-not vector already has `q` in its top-k result
    /// (so there is nothing to refine for it).
    NotWhyNot {
        /// Index of the offending vector within `Wm`.
        index: usize,
        /// The actual rank of `q` under that vector.
        rank: usize,
        /// The query's `k`.
        k: usize,
    },
    /// A weighting vector's dimensionality does not match the dataset.
    DimensionMismatch {
        /// Expected dimensionality (the dataset's).
        expected: usize,
        /// Offending dimensionality.
        got: usize,
    },
    /// The dataset has fewer than `k` points, so top-k-th points (and the
    /// safe region) are undefined.
    DatasetSmallerThanK {
        /// Number of indexed points.
        len: usize,
        /// The query's `k`.
        k: usize,
    },
    /// The query's `k` is zero: no top-0 result exists for `q` to be
    /// missing from.
    ZeroK,
    /// The query point has zero norm: Eq. 1 prices a moved query point
    /// relative to `‖q‖`.
    ZeroQueryPoint,
    /// The quadratic program could not be solved numerically.
    QpFailure(String),
    /// An advisor call requested an empty strategy set — there is
    /// nothing to run, so there can be no recommendation.
    NoStrategies,
}

impl fmt::Display for WhyNotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhyNotError::EmptyWhyNot => write!(f, "the why-not weighting vector set is empty"),
            WhyNotError::NotWhyNot { index, rank, k } => write!(
                f,
                "weighting vector #{index} is not a why-not vector: q ranks {rank} ≤ k = {k}"
            ),
            WhyNotError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            WhyNotError::DatasetSmallerThanK { len, k } => {
                write!(f, "dataset of {len} points is smaller than k = {k}")
            }
            WhyNotError::ZeroK => write!(f, "k must be at least 1"),
            WhyNotError::ZeroQueryPoint => write!(
                f,
                "the query point must have a positive norm (a moved q is priced relative to ‖q‖)"
            ),
            WhyNotError::QpFailure(msg) => write!(f, "quadratic programming failed: {msg}"),
            WhyNotError::NoStrategies => {
                write!(f, "the refinement strategy set is empty — nothing to run")
            }
        }
    }
}

impl std::error::Error for WhyNotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = WhyNotError::NotWhyNot {
            index: 2,
            rank: 3,
            k: 5,
        };
        let s = e.to_string();
        assert!(s.contains("#2") && s.contains("3") && s.contains("5"));
        assert!(WhyNotError::EmptyWhyNot.to_string().contains("empty"));
        assert!(WhyNotError::DimensionMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("expected 3"));
        assert!(WhyNotError::DatasetSmallerThanK { len: 4, k: 9 }
            .to_string()
            .contains("k = 9"));
        assert!(WhyNotError::ZeroQueryPoint.to_string().contains("norm"));
        assert!(WhyNotError::QpFailure("nope".into())
            .to_string()
            .contains("nope"));
    }
}
