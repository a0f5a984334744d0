//! Error type of the generalized analysis.

use std::error::Error;
use std::fmt;

/// Errors produced by the generalized partial-order analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpoError {
    /// The valid-set relation `r₀` would exceed the configured number of
    /// explicitly enumerated sets. Raise the limit or switch to the ZDD
    /// representation.
    ValidSetsTooLarge(usize),
    /// Exploration exceeded the configured state limit.
    StateLimit(usize),
    /// The parallel frontier engine failed (a worker panicked or the
    /// dense state-id space overflowed).
    Engine(petri::NetError),
    /// A checkpoint snapshot could not be written, read, or validated.
    Checkpoint(String),
}

impl fmt::Display for GpoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpoError::ValidSetsTooLarge(limit) => write!(
                f,
                "valid-set relation exceeds the limit of {limit} enumerated sets"
            ),
            GpoError::StateLimit(n) => {
                write!(
                    f,
                    "state limit of {n} GPN states exceeded during exploration"
                )
            }
            GpoError::Engine(e) => write!(f, "parallel exploration failed: {e}"),
            GpoError::Checkpoint(detail) => write!(f, "checkpoint error: {detail}"),
        }
    }
}

/// Engine failures keep their own variant, except checkpoint failures,
/// which are [`GpoError::Checkpoint`] whichever layer raised them.
impl From<petri::NetError> for GpoError {
    fn from(e: petri::NetError) -> Self {
        match e {
            petri::NetError::Checkpoint(detail) => GpoError::Checkpoint(detail),
            e => GpoError::Engine(e),
        }
    }
}

impl Error for GpoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpoError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            GpoError::ValidSetsTooLarge(10).to_string(),
            "valid-set relation exceeds the limit of 10 enumerated sets"
        );
        assert_eq!(
            GpoError::StateLimit(5).to_string(),
            "state limit of 5 GPN states exceeded during exploration"
        );
        assert_eq!(
            GpoError::Checkpoint("bad magic".into()).to_string(),
            "checkpoint error: bad magic"
        );
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GpoError>();
    }
}
