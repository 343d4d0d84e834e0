use starfish_nf2::{Key, Nf2Error, Oid};
use starfish_pagestore::StoreError;
use std::fmt;

/// Errors produced by the storage models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Data-model error (encoding, schema, projection).
    Nf2(Nf2Error),
    /// Substrate error (pages, slots, buffer).
    Store(StoreError),
    /// The operation is not supported by this storage model — e.g. query 1a
    /// (access by OID/address) under pure NSM: "With NSM we have no
    /// identifiers, so query 1a is not relevant" (§3.3).
    Unsupported {
        /// The model's paper name.
        model: &'static str,
        /// What was attempted.
        op: &'static str,
    },
    /// No object with the given OID or key exists.
    NotFound {
        /// Human-readable description of the missing object.
        what: String,
    },
    /// A job queued on a cluster node panicked on its worker. The worker
    /// survives and the job's waiter gets this instead of hanging.
    WorkerPanicked {
        /// The node whose worker ran the job.
        node: usize,
    },
}

impl CoreError {
    /// No object has key `key`.
    pub(crate) fn no_such_key(key: Key) -> Self {
        CoreError::NotFound {
            what: format!("key {key}"),
        }
    }

    /// No object has OID `oid`.
    pub(crate) fn no_such_object(oid: Oid) -> Self {
        CoreError::NotFound {
            what: format!("object {oid}"),
        }
    }

    /// A root patch would change the stored `Name`'s length (updates are
    /// structure-preserving, §2.2).
    pub(crate) fn size_changed(old: usize, new: usize) -> Self {
        CoreError::Store(StoreError::SizeChanged { old, new })
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nf2(e) => write!(f, "data model: {e}"),
            CoreError::Store(e) => write!(f, "storage: {e}"),
            CoreError::Unsupported { model, op } => {
                write!(f, "{model} does not support {op}")
            }
            CoreError::NotFound { what } => write!(f, "not found: {what}"),
            CoreError::WorkerPanicked { node } => {
                write!(f, "a job panicked on a worker of node {node}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nf2(e) => Some(e),
            CoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Nf2Error> for CoreError {
    fn from(e: Nf2Error) -> Self {
        CoreError::Nf2(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}
