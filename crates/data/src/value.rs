//! Encoded attribute values and finite discrete domains.
//!
//! The paper (Section II) considers a microdata table whose sensitive
//! attribute `A^s` is discrete and whose QI attributes are discrete or
//! continuous; the SAL evaluation dataset is fully discrete. We therefore
//! encode every attribute as a finite domain of `u32` codes. A [`Domain`]
//! owns the code ↔ label mapping and knows whether the codes carry a natural
//! order (ages, income brackets) or are nominal (occupation, race).

use crate::error::DataError;
use std::fmt;

/// A single encoded attribute value: an index into its attribute's [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u32);

impl Value {
    /// The raw domain code.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// The code as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Value {
    #[inline]
    fn from(code: u32) -> Self {
        Value(code)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Whether the codes of a domain carry a meaningful total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Codes are ordered (e.g. ages, income brackets). Generalization
    /// produces contiguous intervals of codes.
    Ordered,
    /// Codes are unordered category labels. Generalization follows a
    /// taxonomy tree whose nodes cover contiguous code ranges (the codes are
    /// assigned so that every taxonomy subtree is contiguous).
    Nominal,
}

/// A finite discrete attribute domain.
///
/// A domain of size `n` admits the value codes `0..n`. Labels are optional
/// conveniences for I/O and display; internally all algorithms work on codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    kind: DomainKind,
    labels: Vec<String>,
}

impl Domain {
    /// Creates an ordered domain from explicit labels.
    pub fn ordered<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Domain {
            kind: DomainKind::Ordered,
            labels: labels.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates a nominal domain from explicit labels.
    pub fn nominal<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Domain {
            kind: DomainKind::Nominal,
            labels: labels.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates an ordered integer-range domain labelled `lo..=hi`.
    ///
    /// Code `c` corresponds to the integer `lo + c`.
    pub fn int_range(lo: i64, hi: i64) -> Self {
        assert!(hi >= lo, "int_range requires hi >= lo");
        Domain {
            kind: DomainKind::Ordered,
            labels: (lo..=hi).map(|v| v.to_string()).collect(),
        }
    }

    /// Creates an ordered domain of `n` anonymous numeric codes `0..n`.
    pub fn indexed(n: u32) -> Self {
        Domain {
            kind: DomainKind::Ordered,
            labels: (0..n).map(|v| v.to_string()).collect(),
        }
    }

    /// Number of values in the domain.
    #[inline]
    pub fn size(&self) -> u32 {
        self.labels.len() as u32
    }

    /// Whether the domain codes are ordered.
    #[inline]
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// True if `v` is a valid code for this domain.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        v.0 < self.size()
    }

    /// Label of a code; panics if out of range.
    pub fn label(&self, v: Value) -> &str {
        &self.labels[v.index()]
    }

    /// Resolves a textual label to its code.
    pub fn code_of(&self, label: &str) -> Option<Value> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| Value(i as u32))
    }

    /// Resolves a label, reporting a structured error on failure.
    pub fn resolve(&self, attribute: &str, label: &str) -> Result<Value, DataError> {
        self.code_of(label).ok_or_else(|| DataError::UnknownLabel {
            attribute: attribute.to_string(),
            label: label.to_string(),
        })
    }

    /// Iterates over all values of the domain.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.size()).map(Value)
    }

    /// Validates that a value lies in the domain, with a structured error.
    pub fn check(&self, attribute: &str, v: Value) -> Result<(), DataError> {
        if self.contains(v) {
            Ok(())
        } else {
            Err(DataError::ValueOutOfDomain {
                attribute: attribute.to_string(),
                code: v.0,
                domain_size: self.size(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_labels_and_codes() {
        let d = Domain::int_range(17, 90);
        assert_eq!(d.size(), 74);
        assert_eq!(d.kind(), DomainKind::Ordered);
        assert_eq!(d.label(Value(0)), "17");
        assert_eq!(d.label(Value(73)), "90");
        assert_eq!(d.code_of("42"), Some(Value(25)));
        assert_eq!(d.code_of("16"), None);
    }

    #[test]
    fn nominal_domain_resolution() {
        let d = Domain::nominal(["M", "F"]);
        assert_eq!(d.size(), 2);
        assert_eq!(d.kind(), DomainKind::Nominal);
        assert_eq!(d.code_of("F"), Some(Value(1)));
        assert!(d.resolve("Gender", "X").is_err());
        assert_eq!(d.resolve("Gender", "M").unwrap(), Value(0));
    }

    #[test]
    fn contains_and_check() {
        let d = Domain::indexed(5);
        assert!(d.contains(Value(4)));
        assert!(!d.contains(Value(5)));
        assert!(d.check("A", Value(4)).is_ok());
        let err = d.check("A", Value(9)).unwrap_err();
        assert_eq!(
            err,
            DataError::ValueOutOfDomain {
                attribute: "A".into(),
                code: 9,
                domain_size: 5
            }
        );
    }

    #[test]
    fn values_iterates_whole_domain() {
        let d = Domain::indexed(4);
        let vs: Vec<u32> = d.values().map(Value::code).collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn value_ordering_matches_code_ordering() {
        assert!(Value(1) < Value(2));
        assert_eq!(Value::from(7).code(), 7);
        assert_eq!(Value(3).to_string(), "#3");
    }
}
