//! Plain-text table rendering for the experiment binaries.
//!
//! Produces aligned, pipe-separated tables — enough to eyeball every
//! reproduced table next to the paper's (`experiments all` prints them
//! all).

/// A simple text table builder with right-aligned numeric columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str(" | ");
                }
                // Left-align the first column (labels), right-align the rest.
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 3 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with sensible precision for table cells.
pub fn fmt_secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a dimensionless ratio.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1.0"]);
        t.row(["long-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn first_column_left_rest_right() {
        let mut t = TextTable::new(["k", "val"]);
        t.row(["x", "9"]);
        let s = t.render();
        let data = s.lines().nth(2).unwrap();
        assert_eq!(data, "x |   9");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(["a"]);
        assert!(t.is_empty());
        t.row(["x"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(123.456), "123");
        assert_eq!(fmt_secs(12.345), "12.3");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.012), "0.01");
    }

    #[test]
    fn fmt_ratio_two_decimals() {
        assert_eq!(fmt_ratio(3.44159), "3.44");
    }
}
