//! Flag-value parsing shared by the `snc-server` and `snc-router`
//! binaries.

use std::str::FromStr;

/// Parses a flag value that must be an integer ≥ 1 (a count, a width,
/// a timeout): 0 is refused rather than clamped, so `--threads 0` never
/// looks like a request that was honoured.
///
/// # Errors
///
/// Returns a usage string when the value is missing, not an integer of
/// type `T`, or 0.
pub fn positive<T: FromStr + PartialOrd + From<u8>>(
    value: Option<&String>,
    flag: &str,
) -> Result<T, String> {
    let parsed: T = value
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be a positive integer"))?;
    if parsed < T::from(1) {
        return Err(format!("{flag} must be ≥ 1 (got 0)"));
    }
    Ok(parsed)
}

/// Parses a flag value that may be 0 (a cache size or a limit where 0
/// means "disabled").
///
/// # Errors
///
/// Returns a usage string when the value is missing or not an integer
/// of type `T`.
pub fn non_negative<T: FromStr>(value: Option<&String>, flag: &str) -> Result<T, String> {
    value
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be a non-negative integer"))
}
