//! Parsing [`PolicyTable`]s back from their rendered form.
//!
//! [`PolicyTable::render`](crate::PolicyTable::render) prints a table in the
//! paper's Tables 3–7 layout; this module inverts it, so a rendered table is
//! also the *serialised* form — the same text the `moesi-sim table`
//! subcommand prints, the fixtures pin, and the synth subsystem emits can be
//! loaded back and executed. The round trip is exact in both directions:
//! `parse_table(t.render()) == t` and `parse_table(text).render() == text`
//! for any rendered `text`.
//!
//! Grammar per cell (all whitespace-free, which is what makes the layout
//! parseable by column splitting):
//!
//! * local cells — `Read>Write`, or `{result}[,{signals}][,{op}]` where
//!   `result` is a state letter or `CH:{x}/{y}`, `signals` is a comma-joined
//!   subset of `CA,IM,BC`, and `op` is `R`, `W` or `A`;
//! * bus cells — `BS;{state},{signals},W` for an abort-and-push, otherwise
//!   `{result}[,CH][,DI][,SL]`;
//! * `-` — an unpopulated (`—`) cell.
//!
//! A fixture file may hold several tables separated by blank lines, with
//! `#`-prefixed comment lines between them ([`parse_tables`]). Parsing
//! accepts *any* grammatical table — including deliberately out-of-class
//! ones, which the mutation audit needs — while [`parse_member_tables`]
//! additionally rejects tables outside the compatible class with a
//! structured error naming the first offending cell.

use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::PolicyTable;
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;
use std::fmt;
use std::str::FromStr;

/// A structured parse error: the 1-based line the problem is on and what
/// went wrong (malformed header, unknown state letter, malformed cell — the
/// message names the `(state, event)` cell and the offending token).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableParseError {
    /// 1-based line number in the parsed text.
    pub line: usize,
    /// What is wrong with that line.
    pub message: String,
}

impl TableParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TableParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy table, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TableParseError {}

/// Lines in one rendered table: header, two section titles, two column
/// headers, and five rows per section.
const TABLE_LINES: usize = 15;

/// Parses exactly one rendered table.
///
/// # Errors
///
/// Returns a [`TableParseError`] for malformed input, or when the text holds
/// zero or several tables.
pub fn parse_table(text: &str) -> Result<PolicyTable, TableParseError> {
    let tables = parse_tables(text)?;
    match tables.len() {
        1 => Ok(tables.into_iter().next().expect("length checked")),
        n => Err(TableParseError::new(
            1,
            format!("expected exactly one table, found {n}"),
        )),
    }
}

/// Parses every table in `text`, in order. Blank lines and `#` comment lines
/// *between* tables are skipped.
///
/// # Errors
///
/// Returns a [`TableParseError`] naming the first offending line.
pub fn parse_tables(text: &str) -> Result<Vec<PolicyTable>, TableParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_end();
        if line.is_empty() || line.starts_with('#') {
            i += 1;
            continue;
        }
        if !line.contains(" protocol, ") {
            return Err(TableParseError::new(
                i + 1,
                format!(
                    "expected a table header (`<name> protocol, <kind> client: ...`), got `{line}`"
                ),
            ));
        }
        if i + TABLE_LINES > lines.len() {
            return Err(TableParseError::new(
                i + 1,
                format!("truncated table: expected {TABLE_LINES} lines"),
            ));
        }
        out.push(parse_block(&lines[i..i + TABLE_LINES], i + 1)?);
        i += TABLE_LINES;
    }
    Ok(out)
}

/// [`parse_tables`], additionally requiring every table to be a member of
/// the compatible class ([`PolicyTable::is_class_member`]).
///
/// # Errors
///
/// Returns a [`TableParseError`] for malformed input, or one anchored at a
/// table's header line when that table carries an out-of-class cell.
pub fn parse_member_tables(text: &str) -> Result<Vec<PolicyTable>, TableParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let tables = parse_tables(text)?;
    let mut headers = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(" protocol, "))
        .map(|(i, _)| i + 1);
    for table in &tables {
        let header = headers.next().unwrap_or(1);
        let violations = table.class_violations();
        if let Some(first) = violations.first() {
            let more = violations.len() - 1;
            let suffix = if more == 0 {
                String::new()
            } else {
                format!(" (+{more} more)")
            };
            return Err(TableParseError::new(
                header,
                format!(
                    "table `{}` is not a class member: {first}{suffix}",
                    table.name()
                ),
            ));
        }
    }
    Ok(tables)
}

fn parse_block(lines: &[&str], first: usize) -> Result<PolicyTable, TableParseError> {
    let (name, kind) = parse_header(lines[0], first)?;
    // Parsed tables are built at runtime, but `PolicyTable` carries a
    // `&'static str` name (every shipped table is a constant). Leak the
    // parsed name: tables are loaded once per process, from CLI flags,
    // fixtures and tests.
    let name: &'static str = Box::leak(name.into_boxed_str());
    let mut table = PolicyTable::empty(name, kind);
    expect_title(lines[1], first + 1, "Local events")?;
    expect_column_header(lines[2], first + 2)?;
    let mut uses_bs = false;
    for (offset, row) in lines[3..8].iter().enumerate() {
        let line_no = first + 3 + offset;
        let tokens: Vec<&str> = row.split_whitespace().collect();
        let state = parse_row_state(&tokens, line_no, 1 + LocalEvent::ALL.len())?;
        for (event, token) in LocalEvent::ALL.into_iter().zip(&tokens[1..]) {
            if *token == "-" {
                continue;
            }
            let action = parse_local_action(token).map_err(|msg| {
                TableParseError::new(
                    line_no,
                    format!("local ({state}, {event}): malformed cell `{token}`: {msg}"),
                )
            })?;
            table.set_local_unchecked(state, event, action);
        }
    }
    expect_title(lines[8], first + 8, "Snooped bus events")?;
    expect_column_header(lines[9], first + 9)?;
    for (offset, row) in lines[10..15].iter().enumerate() {
        let line_no = first + 10 + offset;
        let tokens: Vec<&str> = row.split_whitespace().collect();
        let state = parse_row_state(&tokens, line_no, 1 + BusEvent::ALL.len())?;
        for (event, token) in BusEvent::ALL.into_iter().zip(&tokens[1..]) {
            if *token == "-" {
                continue;
            }
            let reaction = parse_bus_reaction(token).map_err(|msg| {
                TableParseError::new(
                    line_no,
                    format!("bus ({state}, {event}): malformed cell `{token}`: {msg}"),
                )
            })?;
            uses_bs |= reaction.busy.is_some();
            table.set_bus_unchecked(state, event, reaction);
        }
    }
    if uses_bs {
        table = table.with_bs();
    }
    Ok(table)
}

fn parse_header(line: &str, line_no: usize) -> Result<(String, CacheKind), TableParseError> {
    let (name, rest) = line
        .split_once(" protocol, ")
        .ok_or_else(|| TableParseError::new(line_no, "missing ` protocol, ` in header"))?;
    let (kind_str, _) = rest
        .split_once(" client:")
        .ok_or_else(|| TableParseError::new(line_no, "missing ` client:` in header"))?;
    let kind = match kind_str {
        "copy-back" => CacheKind::CopyBack,
        "write-through" => CacheKind::WriteThrough,
        "non-caching" => CacheKind::NonCaching,
        other => {
            return Err(TableParseError::new(
                line_no,
                format!("unknown client kind `{other}`"),
            ))
        }
    };
    if name.is_empty() {
        return Err(TableParseError::new(line_no, "empty protocol name"));
    }
    Ok((name.to_string(), kind))
}

fn expect_title(line: &str, line_no: usize, want: &str) -> Result<(), TableParseError> {
    if line.starts_with(want) {
        Ok(())
    } else {
        Err(TableParseError::new(
            line_no,
            format!("expected the `{want}` section title, got `{line}`"),
        ))
    }
}

fn expect_column_header(line: &str, line_no: usize) -> Result<(), TableParseError> {
    if line.starts_with("State") {
        Ok(())
    } else {
        Err(TableParseError::new(
            line_no,
            format!("expected a `State ...` column header, got `{line}`"),
        ))
    }
}

fn parse_row_state(
    tokens: &[&str],
    line_no: usize,
    want: usize,
) -> Result<LineState, TableParseError> {
    if tokens.len() != want {
        return Err(TableParseError::new(
            line_no,
            format!(
                "expected a state letter and {} cells, found {} tokens",
                want - 1,
                tokens.len()
            ),
        ));
    }
    LineState::from_str(tokens[0])
        .map_err(|_| TableParseError::new(line_no, format!("unknown state letter `{}`", tokens[0])))
}

fn parse_result_state(token: &str) -> Result<ResultState, String> {
    if let Some(rest) = token.strip_prefix("CH:") {
        let (if_ch, if_not) = rest
            .split_once('/')
            .ok_or_else(|| format!("conditional result `CH:{rest}` needs the form `CH:x/y`"))?;
        let if_ch = LineState::from_str(if_ch).map_err(|_| format!("unknown state `{if_ch}`"))?;
        let if_not =
            LineState::from_str(if_not).map_err(|_| format!("unknown state `{if_not}`"))?;
        Ok(ResultState::OnCh { if_ch, if_not })
    } else {
        LineState::from_str(token)
            .map(ResultState::Fixed)
            .map_err(|_| format!("unknown state `{token}`"))
    }
}

fn parse_local_action(token: &str) -> Result<LocalAction, String> {
    if token == "Read>Write" {
        return Ok(LocalAction::read_then_write());
    }
    let mut parts = token.split(',');
    let result = parse_result_state(parts.next().expect("split yields at least one part"))?;
    let mut signals = MasterSignals::NONE;
    let mut bus_op = BusOp::None;
    for part in parts {
        if bus_op != BusOp::None {
            return Err(format!("`{part}` after the bus operation"));
        }
        match part {
            "CA" => signals.ca = true,
            "IM" => signals.im = true,
            "BC" => signals.bc = true,
            "R" => bus_op = BusOp::Read,
            "W" => bus_op = BusOp::Write,
            "A" => bus_op = BusOp::AddressOnly,
            other => return Err(format!("unknown token `{other}`")),
        }
    }
    Ok(LocalAction {
        result,
        signals,
        bus_op,
    })
}

fn parse_bus_reaction(token: &str) -> Result<BusReaction, String> {
    if let Some(rest) = token.strip_prefix("BS;") {
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() < 2 || *parts.last().expect("non-empty") != "W" {
            return Err("a busy push has the form `BS;state,signals,W`".to_string());
        }
        let result =
            LineState::from_str(parts[0]).map_err(|_| format!("unknown state `{}`", parts[0]))?;
        let mut signals = MasterSignals::NONE;
        for part in &parts[1..parts.len() - 1] {
            match *part {
                "-" => {}
                "CA" => signals.ca = true,
                "IM" => signals.im = true,
                "BC" => signals.bc = true,
                other => return Err(format!("unknown push signal `{other}`")),
            }
        }
        return Ok(BusReaction::busy_push(result, signals));
    }
    let mut parts = token.split(',');
    let result = parse_result_state(parts.next().expect("split yields at least one part"))?;
    let mut reaction = BusReaction::quiet(result);
    for part in parts {
        match part {
            "CH" => reaction.ch = true,
            "DI" => reaction.di = true,
            "SL" => reaction.sl = true,
            other => return Err(format!("unknown response signal `{other}`")),
        }
    }
    Ok(reaction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{protocols, Protocol};

    /// Every shipped exact table round-trips: parse(render) == table and
    /// render(parse(text)) == text, byte for byte.
    #[test]
    fn shipped_tables_round_trip_byte_identically() {
        for p in protocols::all_protocols(0) {
            let name = p.name().to_string();
            let Some(table) = p.policy_table() else {
                continue;
            };
            let text = table.render();
            let parsed = parse_table(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&parsed, table, "{name}: parse(render) differs");
            assert_eq!(parsed.render(), text, "{name}: render not stable");
            assert_eq!(parsed.name(), table.name(), "{name}");
            assert_eq!(parsed.kind(), table.kind(), "{name}");
            assert_eq!(parsed.requires_bs(), table.requires_bs(), "{name}");
        }
    }

    #[test]
    fn multi_table_documents_with_comments_parse() {
        let a = PolicyTable::preferred("alpha", CacheKind::CopyBack);
        let b = PolicyTable::preferred("beta", CacheKind::WriteThrough);
        let text = format!(
            "# workload: general\n{}\n# workload: ping-pong\n{}",
            a.render(),
            b.render()
        );
        let tables = parse_tables(&text).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0], a);
        assert_eq!(tables[1], b);
    }

    #[test]
    fn malformed_cells_are_structured_errors() {
        let good = PolicyTable::preferred("p", CacheKind::CopyBack).render();
        let bad = good.replacen("CH:S/E,CA,R", "CH:S/E,CA,Q", 1);
        let err = parse_tables(&bad).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
        assert!(err.message.contains("local (I, Read)"), "{err}");
        assert!(err.message.contains("unknown token `Q`"), "{err}");

        let bad = good.replacen("O,CH,DI", "O,CH,DX", 1);
        let err = parse_tables(&bad).unwrap_err();
        assert!(err.message.contains("bus (M, CA (col 5))"), "{err}");
        assert!(
            err.message.contains("unknown response signal `DX`"),
            "{err}"
        );

        let bad = good.replacen("MOESI", "", 0); // no-op: keep `good` valid
        assert!(parse_tables(&bad).is_ok());
    }

    #[test]
    fn bad_headers_states_and_counts_are_reported() {
        let err = parse_tables("garbage\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("table header"), "{err}");

        let good = PolicyTable::preferred("p", CacheKind::CopyBack).render();
        let err = parse_tables(&good.replacen("copy-back", "look-aside", 1)).unwrap_err();
        assert!(err.message.contains("unknown client kind"), "{err}");

        let first_row = good.lines().nth(3).unwrap().to_string();
        let err = parse_tables(&good.replacen(&first_row, "X  A  B  C  D", 1)).unwrap_err();
        assert!(err.message.contains("unknown state letter `X`"), "{err}");

        let err = parse_tables(&good.replacen(&first_row, "M  M", 1)).unwrap_err();
        assert!(err.message.contains("found 2 tokens"), "{err}");

        let truncated: String = good.lines().take(9).collect::<Vec<_>>().join("\n");
        let err = parse_tables(&truncated).unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
    }

    #[test]
    fn member_parsing_rejects_out_of_class_tables() {
        let mut t = PolicyTable::preferred("rogue", CacheKind::CopyBack);
        t.set_local_unchecked(
            LineState::Shareable,
            LocalEvent::Write,
            LocalAction::silent(LineState::Modified),
        );
        let text = t.render();
        // The grammar accepts it (the mutation audit needs that)...
        assert_eq!(parse_table(&text).unwrap(), t);
        // ...the member parser rejects it with the offending cell named.
        let err = parse_member_tables(&text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("`rogue` is not a class member"),
            "{err}"
        );
        assert!(err.message.contains("(S, Write)"), "{err}");
    }

    #[test]
    fn busy_push_cells_round_trip_and_set_requires_bs() {
        let write_once = protocols::by_name("write-once", 0).expect("shipped");
        let table = write_once.policy_table().expect("exact table");
        assert!(table.requires_bs());
        let parsed = parse_table(&table.render()).unwrap();
        assert!(parsed.requires_bs());
        assert_eq!(&parsed, table);
    }

    #[test]
    fn single_table_parse_rejects_zero_or_many() {
        assert!(parse_table("").unwrap_err().message.contains("found 0"));
        let one = PolicyTable::preferred("p", CacheKind::CopyBack).render();
        let two = format!("{one}{one}");
        assert!(parse_table(&two).unwrap_err().message.contains("found 2"));
    }
}
