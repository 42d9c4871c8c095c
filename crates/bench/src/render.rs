//! Plain-text table rendering for experiment output.

/// The width of `text` as `{:<w$}` pads it: in chars, not bytes, so a
/// cell holding `±` or `−` is as wide as it prints.
fn width(text: &str) -> usize {
    text.chars().count()
}

/// Joins `cells` two spaces apart, each padded to its column's width,
/// with no trailing space after the last.
fn line<'a>(cells: impl IntoIterator<Item = &'a str>, widths: &[usize]) -> String {
    let cells: Vec<String> = cells
        .into_iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect();
    cells.join("  ").trim_end().to_string()
}

/// Renders a fixed-width table.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| width(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(width(cell));
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&line(headers.iter().copied(), &widths));
    out.push('\n');
    let gaps = 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + gaps));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.iter().map(String::as_str), &widths));
        out.push('\n');
    }
    out
}

/// Renders an ASCII bar chart for `(label, value)` series.
pub fn bars(title: &str, series: &[(String, f64)], unit: &str) -> String {
    let max = series.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let label_w = series.iter().map(|(l, _)| width(l)).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    for (label, value) in series {
        let filled = if max > 0.0 {
            ((value / max) * 40.0).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$}  {}{} {value:.1} {unit}\n",
            "#".repeat(filled),
            " ".repeat(40 - filled.min(40)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "T",
            &["a", "long-header"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        assert!(out.contains("== T =="));
        assert!(out.contains("long-header"));
        let lines: Vec<&str> = out.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 5);
        let longest = lines.iter().map(|l| l.chars().count()).max();
        assert_eq!(Some(lines[2].len()), longest, "separator {:?}", lines[2]);
        assert_eq!(lines[2].len(), 2 + 2 + 11);
        for line in &lines {
            assert!(!line.ends_with(' '), "trailing space in {line:?}");
        }
        assert!(
            table("T", &[], &[]).ends_with("\n\n"),
            "no columns, no dashes"
        );
    }

    #[test]
    fn multi_byte_cells_pad_to_their_printed_width() {
        let out = table(
            "T",
            &["Paper", "n"],
            &[
                vec!["+23 % vs −22 %".into(), "1".into()],
                vec!["4.1 ± 0.2".into(), "22".into()],
                vec!["a → b …".into(), "333".into()],
            ],
        );
        let second: Vec<String> = out
            .lines()
            .skip(2)
            .filter(|l| !l.starts_with('-'))
            .map(|l| l.chars().skip(14 + 2).collect())
            .collect();
        assert_eq!(second, ["n", "1", "22", "333"]);
        let out = bars("B", &[("±σ".into(), 1.0), ("ab".into(), 2.0)], "u");
        let starts: Vec<usize> = out
            .lines()
            .filter_map(|l| l.find('#').map(|at| l[..at].chars().count()))
            .collect();
        assert_eq!(starts, [4, 4]);
    }

    #[test]
    fn bars_scale_to_max() {
        let out = bars("B", &[("a".into(), 10.0), ("b".into(), 5.0)], "u");
        let a_hashes = out
            .lines()
            .find(|l| l.starts_with('a'))
            .unwrap()
            .matches('#')
            .count();
        let b_hashes = out
            .lines()
            .find(|l| l.starts_with('b'))
            .unwrap()
            .matches('#')
            .count();
        assert_eq!(a_hashes, 40);
        assert_eq!(b_hashes, 20);
    }
}
