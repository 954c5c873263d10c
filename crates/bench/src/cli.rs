//! Flag parsing shared by the bench binaries: a malformed value is a
//! usage error, never a silent fall-back to the default.

use std::str::FromStr;

/// The value after `--flag`, parsed: `Ok(None)` when the flag is
/// absent, `Err` when its value is missing or does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(at + 1) else {
        return Err(format!("{flag} needs a value"));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: malformed value {raw:?}"))
}

/// [`parse_flag`], exiting with status 2 and `usage` on a bad value.
pub fn flag<T: FromStr>(args: &[String], flag: &str, usage: &str) -> Option<T> {
    parse_flag(args, flag).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_present_absent_missing_and_malformed_values() {
        let a = args(&["bin", "--seeds", "3", "--threshold", "1.5"]);
        assert_eq!(parse_flag::<u64>(&a, "--seeds"), Ok(Some(3)));
        assert_eq!(parse_flag::<f64>(&a, "--threshold"), Ok(Some(1.5)));
        assert_eq!(parse_flag::<u64>(&a, "--other"), Ok(None));
        assert!(parse_flag::<u64>(&args(&["bin", "--seeds", "abc"]), "--seeds").is_err());
        assert!(parse_flag::<f64>(&args(&["bin", "--threshold"]), "--threshold").is_err());
    }
}
