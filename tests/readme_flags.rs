//! README's "Execution-mode flags" table, checked against the parsers the
//! `bpar` CLI calls: every value the table lists for `--scheduler`,
//! `--backend` and `--recurrence` must parse, the `--backend` row must
//! list exactly the selectable kinds, and `--backend`'s default must be
//! the library default. A value added to or removed from a parser without
//! its README row (or the other way round) fails here.

use bpar_core::scanplan::RecurrenceStrategy;
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::BackendKind;

const README: &str = include_str!("../README.md");

/// The `(values, default)` columns of `flag`'s row in the flag table, as
/// the back-quoted words of each cell.
fn row(flag: &str) -> (Vec<&'static str>, Vec<&'static str>) {
    let head = format!("| `{flag}` |");
    let line = README
        .lines()
        .find(|l| l.starts_with(&head))
        .unwrap_or_else(|| panic!("README has no flag-table row for {flag}"));
    // Cells split on `|` that is not escaped as `\|`.
    let mut cells = Vec::new();
    let mut start = 0;
    for (i, _) in line.match_indices('|') {
        if i > 0 && line.as_bytes()[i - 1] == b'\\' {
            continue;
        }
        cells.push(&line[start..i]);
        start = i + 1;
    }
    let quoted =
        |cell: &'static str| -> Vec<&'static str> { cell.split('`').skip(1).step_by(2).collect() };
    // cells: ["", flag, values, default, effect]
    assert!(cells.len() >= 4, "malformed row for {flag}: {line}");
    (quoted(cells[2]), quoted(cells[3]))
}

#[test]
fn scheduler_values_parse() {
    let (values, default) = row("--scheduler");
    assert!(!values.is_empty());
    for v in values.iter().chain(&default) {
        assert!(SchedulerPolicy::parse(v).is_some(), "--scheduler `{v}`");
    }
}

#[test]
fn backend_row_lists_exactly_the_selectable_kinds() {
    let (values, default) = row("--backend");
    for v in &values {
        assert!(BackendKind::parse(v).is_some(), "--backend `{v}`");
    }
    let kinds: Vec<&str> = BackendKind::all().map(BackendKind::as_str).to_vec();
    assert_eq!(values, kinds, "README --backend row vs BackendKind::all()");
    assert_eq!(default, [BackendKind::default().as_str()]);
}

#[test]
fn recurrence_values_parse() {
    let (values, default) = row("--recurrence");
    assert!(!values.is_empty());
    for v in values.iter().chain(&default) {
        // `scan:N` names a chunk count: check it with one.
        let v = v.replace(":N", ":16");
        assert!(
            RecurrenceStrategy::parse(&v).is_some(),
            "--recurrence `{v}`"
        );
    }
}
