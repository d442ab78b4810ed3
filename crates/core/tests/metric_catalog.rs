//! DESIGN.md's metric catalog (§11) and the engine's metric registrations
//! name the same series: every `"pgrdf_…"` literal in a crate's
//! `metrics.rs` has a catalog row, and every row names a registered
//! series. A row's first cell may group names (`pgrdf_x_{a,b}_total`)
//! and carry a label (`{index=}`).

const SOURCES: [(&str, &str); 3] = [
    ("core", include_str!("../src/metrics.rs")),
    ("quadstore", include_str!("../../quadstore/src/metrics.rs")),
    ("sparql", include_str!("../../sparql/src/metrics.rs")),
];
const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The series names registered in `src`: each `"pgrdf_…"` literal.
fn registered(src: &str) -> Vec<String> {
    let ident = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    src.match_indices("\"pgrdf_")
        .filter_map(|(at, _)| {
            let rest = &src[at + 1..];
            let end = rest.find(|c| !ident(c))?;
            rest[end..]
                .starts_with('"')
                .then(|| rest[..end].to_string())
        })
        .collect()
}

/// The series a catalog cell names: a label group (`{index=}`) is
/// dropped, and each alternative group (`{a,b}`) is expanded.
fn expand(cell: &str) -> Vec<String> {
    let Some(open) = cell.find('{') else {
        return vec![cell.to_string()];
    };
    let close = open + cell[open..].find('}').expect("closed group");
    let (head, group, tail) = (&cell[..open], &cell[open + 1..close], &cell[close + 1..]);
    let alternatives: Vec<&str> = if group.contains('=') {
        vec![""]
    } else {
        group.split(',').collect()
    };
    alternatives
        .iter()
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The series named by the first cell of each row of DESIGN's metric
/// catalog table.
fn catalog() -> Vec<String> {
    let start = DESIGN
        .find("### Metric catalog")
        .expect("DESIGN.md has a metric catalog");
    let section = &DESIGN[start..];
    let section = &section[..section[4..].find("\n#").map_or(section.len(), |e| e + 4)];
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `pgrdf_"))
        .flat_map(|row| {
            expand(&format!(
                "pgrdf_{}",
                &row[..row.find('`').expect("closed cell")]
            ))
        })
        .collect()
}

#[test]
fn every_registered_series_has_a_catalog_row() {
    let rows = catalog();
    let missing: Vec<String> = SOURCES
        .iter()
        .flat_map(|(krate, src)| registered(src).into_iter().map(move |s| (krate, s)))
        .filter(|(_, s)| !rows.contains(s))
        .map(|(krate, s)| format!("{krate}: {s}"))
        .collect();
    assert!(
        missing.is_empty(),
        "series without a DESIGN §11 catalog row: {missing:?}"
    );
}

#[test]
fn every_catalog_row_names_a_registered_series() {
    let live: Vec<String> = SOURCES
        .iter()
        .flat_map(|(_, src)| registered(src))
        .collect();
    assert!(
        live.len() > 20,
        "found {} registrations: the scan is broken",
        live.len()
    );
    let stale: Vec<String> = catalog()
        .into_iter()
        .filter(|r| !live.contains(r))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN §11 catalog rows naming no registered series: {stale:?}"
    );
}

#[test]
fn catalog_cells_expand_groups_and_drop_labels() {
    assert_eq!(
        expand("pgrdf_a_{b,c}_total"),
        ["pgrdf_a_b_total", "pgrdf_a_c_total"]
    );
    assert_eq!(expand("pgrdf_scans_total{index=}"), ["pgrdf_scans_total"]);
    let src = "f!(x, \"pgrdf_x_total\", \"help\"); // `pgrdf_y{a=\"b\"}`";
    assert_eq!(registered(src), ["pgrdf_x_total"]);
}
