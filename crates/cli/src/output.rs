//! The JSON lines `sdigest` writes besides its listing: diagnostics on
//! stderr (`--log-format text|json`) and the JSONL sidecars (`--trace`,
//! `--quarantine-out`). Every JSON line is encoded by `serde_json`.

use serde::{Serialize, Value};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;

/// How diagnostics reach stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `level: message (key=value, …)` lines for humans.
    #[default]
    Text,
    /// One JSON object per line for log shippers.
    Json,
}

impl FromStr for LogFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<LogFormat, String> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format {other:?} (use text or json)")),
        }
    }
}

/// A value tree built here, handed to `serde_json` as it is.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl LogFormat {
    /// One diagnostic record as a line: a `level` (`warn`, `error`), a
    /// free-text message and key/value fields. The format decides the
    /// rendering only; a string field reads bare in text.
    pub(crate) fn render(self, level: &str, message: &str, fields: &[(&str, Value)]) -> String {
        let mut line = match self {
            LogFormat::Text => {
                let mut line = format!("{level}: {message}");
                let kv: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Str(s) => format!("{k}={s}"),
                        v => format!("{k}={}", json(v.clone())),
                    })
                    .collect();
                if !kv.is_empty() {
                    line.push_str(&format!(" ({})", kv.join(", ")));
                }
                line
            }
            LogFormat::Json => {
                let head = [("level", level.to_value()), ("message", message.to_value())];
                let all = head.into_iter().chain(fields.iter().cloned());
                json(Value::Map(all.map(|(k, v)| (k.to_owned(), v)).collect()))
            }
        };
        line.push('\n');
        line
    }

    /// Write one record to stderr (see `LogFormat::render`).
    pub fn emit(self, level: &str, message: &str, fields: &[(&str, Value)]) {
        let _ = io::stderr().write_all(self.render(level, message, fields).as_bytes());
    }
}

fn json(v: Value) -> String {
    serde_json::to_string(&Tree(v)).expect("a value tree always encodes")
}

/// A JSONL sidecar: one record per line, each written whole in a single
/// unbuffered call, so `tail -f` on a live file only ever sees whole
/// lines.
pub(crate) struct Jsonl(File);

impl Jsonl {
    /// Create (truncate) the file at `path`.
    pub(crate) fn create(path: &Path) -> io::Result<Jsonl> {
        File::create(path).map(Jsonl)
    }

    /// Append `records`, one JSON text per line.
    pub(crate) fn write(&self, records: impl IntoIterator<Item = String>) -> io::Result<()> {
        for mut line in records {
            line.push('\n');
            (&self.0).write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_human_readable() {
        let out = LogFormat::Text.render(
            "warn",
            "malformed line",
            &[
                ("line", Value::U64(3)),
                ("reason", "bad timestamp".to_value()),
            ],
        );
        assert_eq!(out, "warn: malformed line (line=3, reason=bad timestamp)\n");
    }

    #[test]
    fn json_format_is_one_object_per_line() {
        let out = LogFormat::Json.render("error", "boom", &[("code", Value::U64(2))]);
        assert_eq!(
            out,
            "{\"level\":\"error\",\"message\":\"boom\",\"code\":2}\n"
        );
    }

    #[test]
    fn format_parses() {
        assert_eq!("text".parse::<LogFormat>().unwrap(), LogFormat::Text);
        assert_eq!("json".parse::<LogFormat>().unwrap(), LogFormat::Json);
        assert!("yaml".parse::<LogFormat>().is_err());
    }

    #[test]
    fn jsonl_writes_one_line_per_record() {
        let path = std::env::temp_dir().join(format!("sdigest-jsonl-{}", std::process::id()));
        let sink = Jsonl::create(&path).unwrap();
        sink.write(["{\"a\":1}".to_owned()]).unwrap();
        sink.write(["{\"b\":2}".to_owned()]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n"
        );
        let _ = std::fs::remove_file(&path);
    }
}
