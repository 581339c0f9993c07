//! Error types for device construction.

use std::fmt;

/// Errors arising when constructing device models or pools.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceError {
    /// A probability parameter was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A pool was requested with zero devices.
    EmptyPool,
    /// A drift or correlation parameter was out of its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        constraint: &'static str,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidProbability { name, value } => {
                write!(
                    f,
                    "probability parameter `{name}` = {value} is not in [0, 1]"
                )
            }
            DeviceError::EmptyPool => write!(f, "a device pool must contain at least one device"),
            DeviceError::InvalidParameter { name, constraint } => {
                write!(f, "parameter `{name}` violates constraint: {constraint}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Validates that `value` is a probability in `[0, 1]`.
pub(crate) fn check_probability(name: &'static str, value: f64) -> Result<(), DeviceError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(DeviceError::InvalidProbability { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_validation() {
        assert!(check_probability("p", 0.0).is_ok());
        assert!(check_probability("p", 1.0).is_ok());
        assert!(check_probability("p", 0.5).is_ok());
        assert!(check_probability("p", -0.1).is_err());
        assert!(check_probability("p", 1.1).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
    }

    #[test]
    fn display_messages() {
        let e = DeviceError::InvalidProbability {
            name: "p",
            value: 2.0,
        };
        assert!(e.to_string().contains("`p`"));
        assert!(DeviceError::EmptyPool.to_string().contains("at least one"));
    }
}
