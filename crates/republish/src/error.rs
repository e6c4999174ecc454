//! Typed errors for re-publication.

use acpp_core::CoreError;
use acpp_data::DataError;
use std::fmt;

/// Failure modes of the re-publication pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RepublishError {
    /// The underlying single-release PG pipeline failed.
    Core(CoreError),
    /// A release was requested over a table whose schema disagrees with the
    /// series (the paper's model fixes the schema across releases).
    SchemaDrift(String),
    /// A parameter outside its documented range.
    InvalidParameter(String),
    /// Durable release commit failed ([`crate::durable`]): staging, the
    /// commit manifest, or the rename batch. The wrapped [`DataError`]
    /// preserves retry-exhaustion context
    /// ([`DataError::IoExhausted`]).
    Io(DataError),
}

impl fmt::Display for RepublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepublishError::Core(e) => write!(f, "{e}"),
            RepublishError::SchemaDrift(msg) => write!(f, "schema drift across releases: {msg}"),
            RepublishError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            RepublishError::Io(e) => write!(f, "durable release commit failed: {e}"),
        }
    }
}

impl std::error::Error for RepublishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepublishError::Core(e) => Some(e),
            RepublishError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for RepublishError {
    fn from(e: CoreError) -> Self {
        RepublishError::Core(e)
    }
}

impl From<DataError> for RepublishError {
    fn from(e: DataError) -> Self {
        RepublishError::Io(e)
    }
}

impl From<RepublishError> for acpp_core::AcppError {
    fn from(e: RepublishError) -> Self {
        match e {
            RepublishError::Core(c) => acpp_core::AcppError::Core(c),
            // Preserve the data-layer exit code: a disk failure during a
            // series commit is a data error (3), not a republish error (9).
            RepublishError::Io(d) => acpp_core::AcppError::Data(d),
            other => acpp_core::AcppError::Republish(other.to_string()),
        }
    }
}
