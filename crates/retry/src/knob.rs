//! The one parser for the daemons' `PHISHINGHOOK_*` environment knobs,
//! which each daemon `main` reads once, at start-up; library code takes
//! plain config structs. A value is trimmed, unset means the default, and
//! a set value that does not parse is fatal. A knob that must be at least
//! 1 is read as a `NonZero*` integer, whose parser rejects zero.

use std::fmt::Display;
use std::str::FromStr;

/// Parses knob `name`'s raw value, the pure half of [`read_or_exit`]:
/// unset is `Ok(None)`, a value that parses after trimming is
/// `Ok(Some(_))`, and anything else is an error line naming the variable
/// and the value.
pub fn parse<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    raw.map(|raw| {
        raw.trim()
            .parse()
            .map_err(|e| format!("invalid {name}={raw:?}: {e}"))
    })
    .transpose()
}

/// Reads knob `name` from the process environment through [`parse`]. A
/// malformed (or non-UTF-8) value prints one stderr line and exits the
/// process with code 2, the daemons' usage code: call this only while a
/// daemon starts, before it opens a file or binds a socket.
#[allow(clippy::disallowed_methods)] // the one place daemon knobs meet the environment
pub fn read_or_exit<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(name, raw.as_deref()).unwrap_or_else(|line| {
        eprintln!("{line}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse;
    use std::num::NonZeroU32;

    const KNOB: &str = "PHISHINGHOOK_TAIL_POLL_MS";

    #[test]
    fn unset_padded_malformed_and_zero_values() {
        assert_eq!(parse::<u64>(KNOB, None), Ok(None));
        assert_eq!(parse::<u64>(KNOB, Some("  25\t")), Ok(Some(25)));
        assert_eq!(parse(KNOB, Some("\n3 ")), Ok(NonZeroU32::new(3)));
        let line = parse::<u64>(KNOB, Some(" 1O ")).unwrap_err();
        assert!(line.contains(KNOB) && line.contains("\" 1O \""), "{line}");
        assert!(parse::<u64>(KNOB, Some("")).is_err());
        // Zero is a value, unless the knob needs at least 1.
        assert_eq!(parse::<u64>(KNOB, Some("0")), Ok(Some(0)));
        let line = parse::<NonZeroU32>(KNOB, Some("0")).unwrap_err();
        assert!(line.contains(KNOB) && line.contains("\"0\""), "{line}");
    }
}
