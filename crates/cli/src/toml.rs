//! A dependency-free parser for the TOML subset the `aderdg-run` config
//! files use: `[table]` headers, `key = value` entries, `#` comments.
//!
//! Values may be bare scalars (`4`, `0.4`, `true`, `sharded`) or
//! double-quoted strings (`"run.csv"`, no escape sequences beyond `\"`
//! and `\\`); both come back as plain strings — typed conversion happens
//! at the consumer, which knows what each key means. This is the shape of
//! the paper's specification files one level up: a spec file
//! ([`RunRequest::from_spec`](aderdg_core::scenario::RunRequest::from_spec))
//! is the `[solver]` table's keys without the header, and in both any
//! key left unwritten keeps the scenario's default.

use std::fmt;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// One `key = value` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The (unquoted) value.
    pub value: String,
    /// 1-based source line (for consumer error messages).
    pub line: usize,
}

/// One `[name]` table and its entries. Entries before any header belong
/// to the root table (empty name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table name (`""` for the root table).
    pub name: String,
    /// 1-based line of the header (0 for the root table).
    pub line: usize,
    /// Entries in source order.
    pub entries: Vec<Entry>,
}

/// A parsed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doc {
    /// Tables in source order; the root table is present only if it has
    /// entries.
    pub tables: Vec<Table>,
}

impl Doc {
    /// The table of the given name, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// A single value: `doc.get("solver", "order")`.
    pub fn get(&self, table: &str, key: &str) -> Option<&Entry> {
        self.table(table)
            .and_then(|t| t.entries.iter().find(|e| e.key == key))
    }
}

/// Strips an unquoted trailing comment.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => escaped = true,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Unquotes a value token (validating quoted strings).
fn parse_value(raw: &str, line: usize) -> Result<String, TomlError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(TomlError {
            line,
            message: "missing value after `=`".into(),
        });
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(TomlError {
                line,
                message: format!("unterminated string `{raw}`"),
            });
        };
        // Reject an interior unescaped quote (`"a" trailing"` etc.).
        let mut out = String::with_capacity(body.len());
        let mut escaped = false;
        for c in body.chars() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => {
                    return Err(TomlError {
                        line,
                        message: format!("unexpected `\"` inside string `{raw}`"),
                    });
                }
                c if escaped && c != '"' && c != '\\' => {
                    return Err(TomlError {
                        line,
                        message: format!("unsupported escape `\\{c}` (only \\\" and \\\\)"),
                    });
                }
                c => {
                    escaped = false;
                    out.push(c);
                }
            }
        }
        if escaped {
            return Err(TomlError {
                line,
                message: format!("dangling `\\` in string `{raw}`"),
            });
        }
        return Ok(out);
    }
    if raw.contains(char::is_whitespace) || raw.contains('"') {
        return Err(TomlError {
            line,
            message: format!("bare value `{raw}` may not contain spaces or quotes (use \"…\")"),
        });
    }
    Ok(raw.to_string())
}

/// Parses a document; unknown syntax, duplicate keys and duplicate
/// tables are errors (configuration typos must fail loudly).
pub fn parse(text: &str) -> Result<Doc, TomlError> {
    let mut doc = Doc::default();
    let mut current = Table {
        name: String::new(),
        line: 0,
        entries: Vec::new(),
    };
    let flush = |t: &mut Table, doc: &mut Doc| {
        if !t.entries.is_empty() || !t.name.is_empty() {
            doc.tables.push(std::mem::replace(
                t,
                Table {
                    name: String::new(),
                    line: 0,
                    entries: Vec::new(),
                },
            ));
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(TomlError {
                    line: line_no,
                    message: format!("malformed table header `{line}`"),
                });
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(TomlError {
                    line: line_no,
                    message: format!("invalid table name `{name}`"),
                });
            }
            flush(&mut current, &mut doc);
            if doc.tables.iter().any(|t| t.name == name) {
                return Err(TomlError {
                    line: line_no,
                    message: format!("duplicate table `[{name}]`"),
                });
            }
            current = Table {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(TomlError {
                line: line_no,
                message: format!("expected `key = value` or `[table]`, got `{line}`"),
            });
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(TomlError {
                line: line_no,
                message: format!("invalid key `{key}`"),
            });
        }
        if current.entries.iter().any(|e| e.key == key) {
            return Err(TomlError {
                line: line_no,
                message: format!("duplicate key `{key}`"),
            });
        }
        current.entries.push(Entry {
            key: key.to_string(),
            value: parse_value(value, line_no)?,
            line: line_no,
        });
    }
    flush(&mut current, &mut doc);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_comments_and_strings() {
        let doc = parse(
            "# run file\n\
             toplevel = 1\n\
             [run]\n\
             scenario = \"loh1\"   # quoted\n\
             cells = 4\n\
             \n\
             [solver]\n\
             order = 4\n\
             kernel = aosoa_splitck\n",
        )
        .unwrap();
        assert_eq!(doc.tables.len(), 3);
        assert_eq!(doc.get("", "toplevel").unwrap().value, "1");
        assert_eq!(doc.get("run", "scenario").unwrap().value, "loh1");
        assert_eq!(doc.get("run", "cells").unwrap().value, "4");
        assert_eq!(doc.get("solver", "kernel").unwrap().value, "aosoa_splitck");
        assert_eq!(doc.get("solver", "order").unwrap().line, 8);
        assert!(doc.get("run", "missing").is_none());
        assert!(doc.table("nope").is_none());
    }

    #[test]
    fn string_escapes_and_hash_inside_string() {
        let doc = parse("[run]\nout = \"a#b \\\"c\\\" \\\\d\"\n").unwrap();
        assert_eq!(doc.get("run", "out").unwrap().value, "a#b \"c\" \\d");
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle, line) in [
            ("order 4\n", "key = value", 1),
            ("[run\n", "malformed table header", 1),
            ("[]\n", "invalid table name", 1),
            ("[run]\nkey =\n", "missing value", 2),
            ("[run]\nout = \"oops\n", "unterminated string", 2),
            ("[run]\nout = \"a\" b\"\n", "unexpected", 2),
            ("[run]\nout = two words\n", "bare value", 2),
            ("[run]\nout = \"\\n\"\n", "unsupported escape", 2),
            ("[run]\na = 1\na = 2\n", "duplicate key", 3),
            ("[run]\n[run]\n", "duplicate table", 2),
            ("[run]\nbad key = 1\n", "invalid key", 2),
        ] {
            let e = parse(text).unwrap_err();
            assert!(
                e.message.contains(needle),
                "`{text}`: message `{}` lacks `{needle}`",
                e.message
            );
            assert_eq!(e.line, line, "`{text}`");
            assert!(e.to_string().contains(&format!("line {line}")));
        }
    }

    #[test]
    fn empty_and_comment_only_documents_are_empty() {
        assert!(parse("").unwrap().tables.is_empty());
        assert!(parse("# nothing\n\n").unwrap().tables.is_empty());
    }
}
