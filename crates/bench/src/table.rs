//! Minimal fixed-width text-table formatting for experiment output.

/// A simple text table with a header row and aligned columns, rendered in the
/// same style as the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        while row.len() < self.header.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Render the table to a string.
    pub(crate) fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(ncols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate().take(widths.len()) {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Data", "Iterations", "Time"]);
        t.add_row(vec!["1354pegase", "823", "1.99"]);
        t.add_row(vec!["ACTIVSg70k", "2897", "69.81"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Iterations"));
        assert!(lines[2].contains("1354pegase"));
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["1"]);
        assert!(t.render().lines().count() == 3);
    }
}
