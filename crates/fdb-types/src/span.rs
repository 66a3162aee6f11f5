//! Source spans for diagnostics.
//!
//! The language front end is line-oriented (one statement per line), so a
//! span is a 1-based line number plus a half-open **byte** range within
//! that line. Spans are carried by lexer tokens, threaded through the
//! parser, and consumed by the `fdb-check` static analyzer so every
//! diagnostic points at `line:col` instead of just naming a line.

/// A half-open byte range `[start, end)` within one source line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// Byte offset of the first byte, 0-based.
    pub start: u32,
    /// Byte offset one past the last byte.
    pub end: u32,
}

impl Span {
    /// Builds a span.
    pub fn new(line: u32, start: u32, end: u32) -> Self {
        Span { line, start, end }
    }

    /// A zero-width span at the start of a line (for diagnostics about a
    /// whole statement when no finer position is known).
    pub fn line_start(line: u32) -> Self {
        Span {
            line,
            start: 0,
            end: 0,
        }
    }

    /// The 1-based column of the span's first byte (what editors and
    /// SARIF consumers expect).
    pub fn col(&self) -> u32 {
        self.start + 1
    }

    /// The 1-based column one past the span's last byte.
    pub fn end_col(&self) -> u32 {
        self.end.max(self.start) + 1
    }

    /// The smallest span covering both `self` and `other` (same line
    /// assumed; keeps `self`'s line).
    pub fn merge(&self, other: Span) -> Span {
        Span {
            line: self.line,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_one_based() {
        let s = Span::new(3, 4, 9);
        assert_eq!(s.col(), 5);
        assert_eq!(s.end_col(), 10);
        assert_eq!(s.to_string(), "3:5");
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(1, 4, 9);
        let b = Span::new(1, 12, 20);
        assert_eq!(a.merge(b), Span::new(1, 4, 20));
        assert_eq!(b.merge(a), Span::new(1, 4, 20));
    }

    #[test]
    fn line_start_is_zero_width() {
        let s = Span::line_start(7);
        assert_eq!((s.start, s.end), (0, 0));
        assert_eq!(s.col(), 1);
    }
}
