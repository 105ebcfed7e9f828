//! Minimal `--flag value` argument parsing (no external dependency).

use std::fmt;

/// Parsed command line: the subcommand and its `--key value` options and
/// bare `--key` flags.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// Subcommand name (first positional argument).
    pub(crate) command: String,
    /// Each `--key` in command-line order, with its value (`None` for a
    /// bare flag). A later repeat of an option overrides an earlier one.
    args: Vec<(String, Option<String>)>,
}

/// The names one subcommand accepts: options, which take a value, and
/// flags, which take none.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Accepts<'a> {
    /// Options (`--key value`).
    pub(crate) options: &'a [&'a str],
    /// Flags (bare `--key`).
    pub(crate) flags: &'a [&'a str],
}

/// Argument errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub(crate) String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parse an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
        let mut it = args.into_iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".to_owned()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!("expected subcommand, got flag {command}")));
        }
        let mut parsed = Parsed {
            command,
            ..Default::default()
        };
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {a:?}")));
            };
            let value = it.next_if(|v| !v.starts_with("--"));
            parsed.args.push((key.to_owned(), value));
        }
        Ok(parsed)
    }

    /// Fail on the first `--key`, in command-line order, that `accepts`
    /// does not declare, on an option given no value and on a flag given
    /// one. Each error names the key and the subcommand.
    pub(crate) fn check(&self, accepts: &Accepts<'_>) -> Result<(), ArgError> {
        let cmd = &self.command;
        for (key, value) in &self.args {
            let (is_option, is_flag) = (
                accepts.options.contains(&key.as_str()),
                accepts.flags.contains(&key.as_str()),
            );
            match value {
                None if is_option => {
                    return Err(ArgError(format!("missing value for --{key} ({cmd})")))
                }
                Some(v) if is_flag => {
                    return Err(ArgError(format!(
                        "--{key} takes no value, got {v:?} ({cmd})"
                    )))
                }
                _ if !is_option && !is_flag => {
                    return Err(ArgError(format!(
                        "unknown option --{key} for {cmd} (see sdigest help)"
                    )))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Required string option.
    pub(crate) fn req(&self, key: &str) -> Result<&str, ArgError> {
        self.opt(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Optional string option.
    pub(crate) fn opt(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Optional parsed option with a default.
    pub(crate) fn opt_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// Whether a bare `--flag` was present.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|(k, v)| k == key && v.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_options_and_flags() {
        let p = Parsed::parse(v(&["digest", "--log", "x.log", "--top", "5", "--stream"])).unwrap();
        assert_eq!(p.command, "digest");
        assert_eq!(p.req("log").unwrap(), "x.log");
        assert_eq!(p.opt_parse("top", 10usize).unwrap(), 5);
        assert!(p.flag("stream"));
        assert!(!p.flag("verbose"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(Parsed::parse(v(&[])).is_err());
        assert!(Parsed::parse(v(&["--nope"])).is_err());
        assert!(Parsed::parse(v(&["learn", "stray"])).is_err());
        let p = Parsed::parse(v(&["learn"])).unwrap();
        let e = p.req("log").unwrap_err();
        assert!(e.0.contains("--log"));
        let p = Parsed::parse(v(&["x", "--top", "abc"])).unwrap();
        assert!(p.opt_parse("top", 1usize).is_err());
    }

    const DIGEST: Accepts = Accepts {
        options: &["knowledge", "log", "checkpoint"],
        flags: &["stream"],
    };

    #[test]
    fn check_accepts_what_the_subcommand_declares() {
        let p = Parsed::parse(v(&[
            "digest",
            "--log",
            "x",
            "--stream",
            "--checkpoint",
            "c",
        ]));
        assert_eq!(p.unwrap().check(&DIGEST), Ok(()));
        assert_eq!(
            Parsed::parse(v(&["digest"])).unwrap().check(&DIGEST),
            Ok(())
        );
    }

    #[test]
    fn check_names_the_first_unknown_option_and_the_subcommand() {
        let p = Parsed::parse(v(&[
            "digest",
            "--stream",
            "--chekpoint",
            "run.ckpt",
            "--verbose",
        ]))
        .unwrap();
        let e = p.check(&DIGEST).unwrap_err().0;
        assert!(e.contains("--chekpoint") && e.contains("digest"), "{e}");
        assert!(!e.contains("--verbose"), "{e}");
        // A bare unknown flag fails the same way.
        let p = Parsed::parse(v(&["digest", "--log", "x", "--strem"])).unwrap();
        let e = p.check(&DIGEST).unwrap_err().0;
        assert!(e.contains("--strem") && e.contains("digest"), "{e}");
    }

    #[test]
    fn check_rejects_an_option_without_value_and_a_flag_with_one() {
        let p = Parsed::parse(v(&["digest", "--log", "x", "--checkpoint"])).unwrap();
        let e = p.check(&DIGEST).unwrap_err().0;
        assert!(e.contains("missing value for --checkpoint"), "{e}");
        let p = Parsed::parse(v(&["digest", "--stream", "yes"])).unwrap();
        let e = p.check(&DIGEST).unwrap_err().0;
        assert!(e.contains("--stream takes no value"), "{e}");
    }

    #[test]
    fn a_repeated_option_keeps_its_last_value() {
        let p = Parsed::parse(v(&["stats", "--top", "3", "--top", "7"])).unwrap();
        assert_eq!(p.opt_parse("top", 0usize).unwrap(), 7);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = Parsed::parse(v(&["generate"])).unwrap();
        assert_eq!(p.opt_parse("scale", 1.0f64).unwrap(), 1.0);
        assert_eq!(p.opt("dataset"), None);
    }
}
