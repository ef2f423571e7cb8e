//! One parse rule for the workspace's numeric `DESALIGN_*` knobs: an unset
//! variable takes its default, a set one must parse, and a value that does
//! not is an error naming the variable — never a silent fallback.
//!
//! Callers pass a lookup closure rather than reading the process
//! environment here, so their parsing is unit-testable without touching
//! it: `|k| std::env::var(k).ok()` in a binary, a fixed table in a test.

use std::str::FromStr;

/// The value of `key` from `lookup` parsed as a non-negative integer, or
/// `default` when `lookup` has no value for it. A set but unparsable value
/// (`"15k"`, `""`, `"-1"`, `"2.5"`) is an error of the form
/// `KEY="value" is not a non-negative integer`.
pub fn count_var<T: FromStr>(lookup: &dyn Fn(&str) -> Option<String>, key: &str, default: T) -> Result<T, String> {
    match lookup(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{key}={v:?} is not a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(value: Option<&'static str>) -> impl Fn(&str) -> Option<String> {
        move |k| (k == "EXAMPLE_KNOB").then(|| value.map(str::to_string)).flatten()
    }

    #[test]
    fn unset_takes_the_default_and_set_overrides_it() {
        assert_eq!(count_var(&lookup(None), "EXAMPLE_KNOB", 7usize), Ok(7));
        assert_eq!(count_var(&lookup(Some("40")), "EXAMPLE_KNOB", 7usize), Ok(40));
        assert_eq!(count_var(&lookup(Some("40")), "OTHER_KNOB", 7u64), Ok(7));
    }

    #[test]
    fn an_unparsable_value_is_an_error_naming_the_variable() {
        for bad in ["15k", "", "-1", "2.5", " 4"] {
            let err = count_var(&lookup(Some(bad)), "EXAMPLE_KNOB", 7usize).expect_err("unparsable value accepted");
            assert_eq!(err, format!("EXAMPLE_KNOB={bad:?} is not a non-negative integer"));
        }
    }
}
