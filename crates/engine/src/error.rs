//! Engine-level errors.
//!
//! Request execution never panics the serving loop: failures surface as
//! [`crate::Response::Error`] carrying one of these (or a library error's
//! message), so a malformed request in a batch cannot take down its
//! neighbours.

use std::fmt;
use wqrtq_geom::OverlayError;

/// Errors raised by the catalog and the serving loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The request names a dataset the catalog does not hold.
    UnknownDataset(String),
    /// The request names a weight population the catalog does not hold.
    UnknownWeightSet(String),
    /// A vector in the request does not match the dataset dimensionality.
    DimensionMismatch {
        /// Dataset dimensionality.
        expected: usize,
        /// Offending vector length.
        got: usize,
    },
    /// A dataset was registered with dimensionality zero.
    ZeroDimension,
    /// A coordinate buffer is not a multiple of the dataset dimensionality.
    RaggedCoordinates {
        /// Dataset dimensionality.
        dim: usize,
        /// Buffer length.
        len: usize,
    },
    /// A weight population name is already taken (populations are
    /// immutable once registered; see [`crate::Catalog`]).
    WeightSetExists(String),
    /// An input contains a NaN or infinite value. Non-finite floats
    /// silently corrupt every strict `<` comparison and `total_cmp` sort
    /// in the kernels, so they are rejected at the request boundary.
    NonFiniteInput {
        /// Which input was malformed.
        field: &'static str,
    },
    /// A weighting vector has a negative component or no positive one,
    /// or — for a why-not vector or a customer population entry, which
    /// must lie on the simplex — does not sum to 1.
    InvalidWeight {
        /// Which input held the vector.
        field: &'static str,
    },
    /// The penalty-model coefficients of a why-not plan request violate
    /// the model's constraints (α, β, γ, λ ≥ 0, α + β = 1, γ + λ = 1).
    InvalidTolerances {
        /// Which constraint was violated.
        reason: &'static str,
    },
    /// A why-not plan request named no refinement strategies — there is
    /// nothing to run, so there can be no recommendation.
    EmptyStrategySet,
    /// A sampling budget exceeds the serving cap (`MAX_SAMPLE_BUDGET` in
    /// the request module), or a plan's product of budgets exceeds
    /// `MAX_PLAN_PAIRS`: the samplers allocate and loop proportionally to
    /// them, so an unbounded wire value could pin a pool worker or abort
    /// the process on allocation.
    SampleBudgetTooLarge {
        /// Which budget was oversized.
        field: &'static str,
        /// The cap.
        max: usize,
    },
    /// A delete names a point id that does not exist (or was already
    /// deleted) in the dataset's current generation.
    UnknownPointId {
        /// The offending id.
        id: u32,
    },
    /// The dataset has exhausted the `u32` point-id space.
    DatasetFull,
    /// The worker pool has shut down and can no longer serve requests.
    PoolShutdown,
    /// The durability layer failed: a mutation could not be made durable
    /// (the in-memory change was rolled back — unlogged means undone), or
    /// recovery found durable state violating a catalog invariant.
    Durability {
        /// The underlying storage failure, rendered.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            EngineError::UnknownWeightSet(name) => write!(f, "unknown weight set `{name}`"),
            EngineError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            EngineError::ZeroDimension => write!(f, "dataset dimensionality must be positive"),
            EngineError::RaggedCoordinates { dim, len } => {
                write!(
                    f,
                    "coordinate buffer length {len} is not a multiple of dim {dim}"
                )
            }
            EngineError::WeightSetExists(name) => {
                write!(
                    f,
                    "weight set `{name}` already registered (populations are immutable)"
                )
            }
            EngineError::NonFiniteInput { field } => {
                write!(f, "non-finite value (NaN or infinity) in {field}")
            }
            EngineError::InvalidWeight { field } => {
                write!(
                    f,
                    "invalid weighting vector in {field}: components must be \
                     non-negative with at least one positive (why-not and population \
                     vectors must also sum to 1)"
                )
            }
            EngineError::InvalidTolerances { reason } => {
                write!(f, "invalid penalty tolerances: {reason}")
            }
            EngineError::EmptyStrategySet => {
                write!(f, "the refinement strategy set is empty — nothing to run")
            }
            EngineError::SampleBudgetTooLarge { field, max } => {
                write!(f, "sampling budget in {field} exceeds the cap of {max}")
            }
            EngineError::UnknownPointId { id } => {
                write!(f, "unknown (or already deleted) point id {id}")
            }
            EngineError::DatasetFull => {
                write!(f, "dataset exhausted the u32 point-id space")
            }
            EngineError::PoolShutdown => write!(f, "worker pool has shut down"),
            EngineError::Durability { reason } => write!(f, "durability failure: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// An overlay's refusal in the engine's vocabulary. Only a damaged
/// durable image can break the two id-range rules.
impl From<OverlayError> for EngineError {
    fn from(e: OverlayError) -> Self {
        match e {
            OverlayError::Ragged { dim, len } => EngineError::RaggedCoordinates { dim, len },
            OverlayError::Full => EngineError::DatasetFull,
            OverlayError::NotLive(id) => EngineError::UnknownPointId { id },
            OverlayError::DeltaIds | OverlayError::TombstoneIds => EngineError::Durability {
                reason: e.to_string(),
            },
        }
    }
}
