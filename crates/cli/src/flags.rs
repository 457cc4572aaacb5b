//! The one flag grammar every `ghr` subcommand parses its arguments with.
//!
//! An argument that starts with `--` is a flag. A value flag takes its
//! value as `--name value` or `--name=value` (split at the first `=`, so
//! `--label=a=b` carries `a=b`); a bare `--name` is a switch. Anything
//! else is a word. Whether a flag takes a value is up to the parser that
//! matches it: its arm asks [`Flags::value`] for the value or
//! [`Flags::switch`] to confirm the flag came bare, and its catch-all arm
//! names the unknown argument with [`Flags::raw`].

use std::str::FromStr;
use std::time::Duration;

/// One argument as the grammar reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg<'a> {
    /// `--name` or `--name=value`; the name keeps its dashes.
    Flag(&'a str),
    /// Anything that does not start with `--`.
    Word(&'a str),
}

/// A cursor over an argument list in the flag grammar.
pub(crate) struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The argument [`Flags::next`] returned last, as written.
    raw: &'a str,
    /// Its name, when it is a flag.
    name: &'a str,
    /// Its `=value`, when it is a flag written that way.
    inline: Option<&'a str>,
}

impl<'a> Flags<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            raw: "",
            name: "",
            inline: None,
        }
    }

    /// The current flag's value: its `=value`, else the next argument.
    pub(crate) fn value(&mut self) -> Result<&'a str, String> {
        match self.inline.take() {
            Some(v) => Ok(v),
            None => self
                .args
                .next()
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", self.name)),
        }
    }

    /// `true` when the current flag came bare; a switch takes no value.
    pub(crate) fn switch(&self) -> Result<bool, String> {
        match self.inline {
            None => Ok(true),
            Some(_) => Err(format!("{} takes no value", self.name)),
        }
    }

    /// The current argument exactly as written.
    pub(crate) fn raw(&self) -> &'a str {
        self.raw
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = Arg<'a>;

    fn next(&mut self) -> Option<Arg<'a>> {
        let raw = self.args.next()?.as_str();
        self.raw = raw;
        self.inline = None;
        if !raw.starts_with("--") {
            return Some(Arg::Word(raw));
        }
        self.name = match raw.split_once('=') {
            Some((name, value)) => {
                self.inline = Some(value);
                name
            }
            None => raw,
        };
        Some(Arg::Flag(self.name))
    }
}

/// An integer >= 1; `what` names it in the error.
pub(crate) fn count<T: FromStr + PartialOrd + From<u8>>(what: &str, s: &str) -> Result<T, String> {
    match s.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("bad {what} {s:?} (need an integer >= 1)")),
    }
}

/// A finite number of seconds > 0; `what` names it in the error.
pub(crate) fn seconds(what: &str, s: &str) -> Result<Duration, String> {
    s.parse::<f64>()
        .ok()
        .filter(|&v| v > 0.0)
        .and_then(|v| Duration::try_from_secs_f64(v).ok())
        .ok_or_else(|| format!("bad {what} {s:?} (need seconds > 0)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the test parser below collects.
    #[derive(Debug, Default, PartialEq)]
    struct Parsed {
        x: Option<String>,
        label: Option<String>,
        quick: bool,
        words: Vec<String>,
    }

    /// A parser in the shape every subcommand uses: two value flags, one
    /// switch, and words.
    fn parse(list: &[&str]) -> Result<Parsed, String> {
        let list: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        let mut p = Parsed::default();
        let mut flags = Flags::new(&list);
        while let Some(arg) = flags.next() {
            match arg {
                Arg::Flag("--x") => p.x = Some(flags.value()?.to_string()),
                Arg::Flag("--label") => p.label = Some(flags.value()?.to_string()),
                Arg::Flag("--quick") => p.quick = flags.switch()?,
                Arg::Word(w) => p.words.push(w.to_string()),
                Arg::Flag(_) => return Err(format!("unknown argument {:?}", flags.raw())),
            }
        }
        Ok(p)
    }

    #[test]
    fn both_value_forms_agree_and_split_at_the_first_equals() {
        assert_eq!(parse(&["--x", "v"]), parse(&["--x=v"]));
        assert_eq!(parse(&["--x=v"]).unwrap().x.as_deref(), Some("v"));
        let label = parse(&["--label=a=b"]).unwrap().label;
        assert_eq!(label.as_deref(), Some("a=b"));
        assert_eq!(parse(&["--x="]).unwrap().x.as_deref(), Some(""));
        // A separate value is taken whatever it looks like.
        let p = parse(&["--x", "--quick"]).unwrap();
        assert_eq!((p.x.as_deref(), p.quick), (Some("--quick"), false));
    }

    #[test]
    fn words_stay_words_and_switches_take_no_value() {
        let p = parse(&["c1", "a=b", "-v", "--quick"]).unwrap();
        assert_eq!(p.words, ["c1", "a=b", "-v"]);
        assert!(p.quick);
        assert_eq!(
            parse(&["--quick=yes"]).unwrap_err(),
            "--quick takes no value"
        );
        let unknown = parse(&["c1", "--bogus=3"]).unwrap_err();
        assert_eq!(unknown, "unknown argument \"--bogus=3\"");
    }

    #[test]
    fn a_value_flag_given_last_names_itself() {
        assert_eq!(
            parse(&["c1", "--label"]).unwrap_err(),
            "--label needs a value"
        );
        assert_eq!(parse(&["--x"]).unwrap_err(), "--x needs a value");
    }

    #[test]
    fn count_and_seconds_reject_what_they_must() {
        assert_eq!(count::<usize>("frame cap", "1"), Ok(1));
        assert_eq!(count::<u64>("element count", "4195328"), Ok(4_195_328));
        for bad in ["0", "-1", "1.5", "x", ""] {
            assert_eq!(
                count::<usize>("frame cap", bad),
                Err(format!("bad frame cap {bad:?} (need an integer >= 1)"))
            );
        }
        assert!(count::<u32>("row length", "4294967296").is_err());
        assert_eq!(
            seconds("idle timeout", "1.5"),
            Ok(Duration::from_millis(1500))
        );
        for bad in ["0", "-1", "NaN", "inf", "x", "1e300"] {
            assert_eq!(
                seconds("idle timeout", bad),
                Err(format!("bad idle timeout {bad:?} (need seconds > 0)"))
            );
        }
    }
}
