//! Source-level comment utilities, driven by the lexer's raw trivia scan.
//!
//! Comments matter twice in RTL-Breaker: Case Study II hides the backdoor
//! trigger inside an innocuous-looking comment, and the corresponding defense
//! strips all comments from the training corpus (at the cost of a 1.62×
//! pass@1 degradation, per the paper).
//!
//! Both utilities walk the comment spans produced by
//! [`scan_comments`](crate::scan_comments) — the same string-literal-aware
//! primitives the lexer itself runs — so `//` or `/* */` inside a string
//! literal can never be mistaken for a comment. The paper's comment-stripping
//! defense previously corrupted code like `$display("see https://x")`; that
//! bug class is now structurally impossible rather than patched. The old
//! scanner survives as [`crate::reference::extract_comments`] /
//! [`crate::reference::strip_comments`] for lockstep tests on inputs where
//! its behavior was correct.

use crate::lexer::{scan_comments, Trivia, TriviaKind};

/// One string-literal-aware trivia pass over a source, shared by every
/// comment consumer.
///
/// Extraction, stripping, and trigger-word matching all walk the same
/// [`scan_comments`](crate::scan_comments) result, so a caller that needs
/// several comment views of one completion (the detect/probe scanners, the
/// model's feature extractor, corpus statistics) pays for exactly one scan
/// instead of one per consumer.
///
/// # Examples
///
/// ```
/// let scan = rtlb_verilog::CommentScan::new("assign y = a; // secure trigger");
/// assert_eq!(scan.extract(), vec!["secure trigger"]);
/// assert!(scan.contains_word("secure"));
/// assert_eq!(scan.strip().trim_end(), "assign y = a;");
/// ```
pub struct CommentScan<'a> {
    source: &'a str,
    trivia: Vec<Trivia>,
}

impl<'a> CommentScan<'a> {
    /// Runs the single trivia pass over `source`.
    pub fn new(source: &'a str) -> Self {
        CommentScan {
            source,
            trivia: scan_comments(source),
        }
    }

    /// The comments in source order, markers removed and text trimmed.
    pub fn comments(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.trivia.iter().map(|t| t.text.text(self.source).trim())
    }

    /// Number of comments found.
    pub fn len(&self) -> usize {
        self.trivia.len()
    }

    /// `true` when the source has no comments.
    pub fn is_empty(&self) -> bool {
        self.trivia.is_empty()
    }

    /// Comments as owned strings (the [`extract_comments`] result).
    pub fn extract(&self) -> Vec<String> {
        self.comments().map(str::to_owned).collect()
    }

    /// The source with every comment removed (the [`strip_comments`]
    /// result): line comments keep their trailing newline, block comments
    /// are replaced by a single space, everything else — string-literal
    /// contents and multi-byte UTF-8 included — survives byte-for-byte.
    pub fn strip(&self) -> String {
        let mut out = String::with_capacity(self.source.len());
        self.strip_into(&mut out);
        out
    }

    /// [`Self::strip`] into a caller-owned buffer, which is cleared first —
    /// for loops that strip many sources and want one allocation in total.
    pub fn strip_into(&self, out: &mut String) {
        out.clear();
        let mut pos = 0usize;
        for t in &self.trivia {
            out.push_str(&self.source[pos..t.span.start as usize]);
            if t.kind == TriviaKind::Block {
                out.push(' ');
            }
            pos = t.span.end as usize;
        }
        out.push_str(&self.source[pos..]);
    }

    /// `true` when any comment contains `needle` (case-insensitive
    /// whole-word match) — the [`comment_contains_word`] result.
    pub fn contains_word(&self, needle: &str) -> bool {
        let needle = needle.to_ascii_lowercase();
        self.comments().any(|c| {
            c.to_ascii_lowercase()
                .split(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_')
                .any(|w| w == needle)
        })
    }
}

/// Extracts all comments (line and block) from Verilog source text, in order.
///
/// Markers (`//`, `/* */`) are removed and the text is trimmed. String
/// literals are skipped, so their contents never leak in as comments. The
/// scan never fails, which is what the corpus defense needs: it must work on
/// unparseable completions too.
///
/// # Examples
///
/// ```
/// let comments = rtlb_verilog::extract_comments(
///     "wire x; // trigger here\n/* and here */ wire y;",
/// );
/// assert_eq!(comments, vec!["trigger here", "and here"]);
///
/// // `//` inside a string literal is not a comment.
/// assert!(rtlb_verilog::extract_comments("x = \"// not here\";").is_empty());
/// ```
pub fn extract_comments(source: &str) -> Vec<String> {
    CommentScan::new(source).extract()
}

/// Removes all comments from Verilog source text, preserving everything else
/// byte-for-byte — including string-literal contents and multi-byte UTF-8.
/// Line comments keep their trailing newline; block comments are replaced by
/// a single space so token boundaries survive.
///
/// This is the paper's "filter the training dataset by removing all comments"
/// defense, applied at source level so it works even on unparseable snippets.
///
/// # Examples
///
/// ```
/// let clean = rtlb_verilog::strip_comments("assign y = a; // secure trigger");
/// assert_eq!(clean.trim_end(), "assign y = a;");
/// ```
pub fn strip_comments(source: &str) -> String {
    CommentScan::new(source).strip()
}

/// `true` when any comment in `source` contains `needle` (case-insensitive
/// whole-word match). Used by lexical trigger scanners.
pub fn comment_contains_word(source: &str, needle: &str) -> bool {
    CommentScan::new(source).contains_word(needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_line_and_block() {
        let src = "// one\nassign x = 1; /* two */\n// three";
        assert_eq!(extract_comments(src), vec!["one", "two", "three"]);
    }

    #[test]
    fn strip_preserves_code() {
        let src = "assign y = a; // comment\nassign z = b;";
        let clean = strip_comments(src);
        assert!(clean.contains("assign y = a;"));
        assert!(clean.contains("assign z = b;"));
        assert!(!clean.contains("comment"));
    }

    #[test]
    fn strip_block_preserves_token_boundary() {
        let src = "assign/*x*/y = a;";
        let clean = strip_comments(src);
        assert_eq!(clean, "assign y = a;");
    }

    #[test]
    fn strip_handles_unterminated_block() {
        let src = "assign y = a; /* oops";
        let clean = strip_comments(src);
        assert!(clean.contains("assign y = a;"));
        assert!(!clean.contains("oops"));
    }

    #[test]
    fn comment_word_matching_is_word_boundary_aware() {
        let src = "// a secure design\nassign y = a;";
        assert!(comment_contains_word(src, "secure"));
        assert!(comment_contains_word(src, "SECURE"));
        assert!(!comment_contains_word(src, "secur"));
        assert!(!comment_contains_word("// securely done", "secure"));
    }

    #[test]
    fn division_is_not_a_comment() {
        let src = "assign y = a / b;";
        assert_eq!(extract_comments(src).len(), 0);
        assert_eq!(strip_comments(src), src);
    }

    // ----- string-literal awareness (the bug class the rewrite removes) -----

    #[test]
    fn line_comment_marker_inside_string_is_not_a_comment() {
        let src = "initial $display(\"see https://example.com\");";
        assert_eq!(extract_comments(src).len(), 0);
        assert_eq!(strip_comments(src), src, "code must survive stripping");
    }

    #[test]
    fn block_comment_markers_inside_string_are_not_comments() {
        let src = "x = \"/* not a comment */\"; /* real */";
        assert_eq!(extract_comments(src), vec!["real"]);
        let clean = strip_comments(src);
        assert!(clean.contains("\"/* not a comment */\""));
        assert!(!clean.contains("real"));
    }

    #[test]
    fn comment_after_string_is_still_found() {
        let src = "a = \"quoted\"; // trailing trigger";
        assert_eq!(extract_comments(src), vec!["trailing trigger"]);
    }

    #[test]
    fn quote_inside_comment_does_not_open_a_string() {
        // The `"` lives inside a comment, so the comment that follows must
        // still be found (a naive "toggle on quote" scanner would miss it).
        let src = "// contains a \" quote\nassign y = a; // second";
        assert_eq!(extract_comments(src), vec!["contains a \" quote", "second"]);
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = "x = \"a\\\"// still in string\"; // real";
        assert_eq!(extract_comments(src), vec!["real"]);
        let clean = strip_comments(src);
        assert!(clean.contains("still in string"));
        assert!(!clean.contains("real"));
    }

    // ----- edge cases pinned per the issue checklist -----

    #[test]
    fn unterminated_block_comment_keeps_full_text() {
        // The old scanner dropped the final byte ("oop"); the span scan
        // keeps the whole tail.
        assert_eq!(extract_comments("wire x; /* oops"), vec!["oops"]);
    }

    #[test]
    fn empty_block_comment_yields_empty_string() {
        // Longstanding behavior, preserved: /**/ extracts as "".
        assert_eq!(extract_comments("a /**/ b"), vec![""]);
        assert_eq!(strip_comments("a/**/b"), "a b");
    }

    #[test]
    fn strip_round_trip_preserves_string_bytes_exactly() {
        let src = "s = \"UTF-8 snowman \u{2603}, escapes \\\" and //, done\";";
        assert_eq!(strip_comments(src), src);
        // And mixed with real comments, the string region is untouched.
        let with_comment = format!("{src} // gone");
        let clean = strip_comments(&with_comment);
        assert!(clean.starts_with(src));
        assert!(!clean.contains("gone"));
    }

    #[test]
    fn strip_preserves_multibyte_utf8_outside_strings() {
        // The old scanner pushed bytes as chars, mangling UTF-8.
        let src = "// ok\nassign y = a; /* caf\u{e9} */ b \u{2603};";
        let clean = strip_comments(src);
        assert!(clean.contains('\u{2603}'));
        assert!(!clean.contains("caf"));
    }

    #[test]
    fn shared_scan_matches_independent_passes() {
        // One CommentScan must yield exactly what the three standalone
        // utilities yield with their own scans — the shared-pass refactor
        // changes cost, never results.
        let sources = [
            "// one\nassign x = 1; /* two */\n// three",
            "x = \"/* not a comment */\"; /* real */",
            "assign y = a; /* oops",
            "a /**/ b",
            "// a secure design\nassign y = a; // and robust too",
            "initial $display(\"see https://example.com\");",
        ];
        for src in sources {
            let scan = CommentScan::new(src);
            assert_eq!(scan.extract(), extract_comments(src), "{src}");
            assert_eq!(scan.strip(), strip_comments(src), "{src}");
            let mut reused = String::from("stale buffer contents");
            scan.strip_into(&mut reused);
            assert_eq!(reused, strip_comments(src), "{src}");
            assert_eq!(scan.len(), extract_comments(src).len(), "{src}");
            for word in ["secure", "robust", "https", "oops", "missing"] {
                assert_eq!(
                    scan.contains_word(word),
                    comment_contains_word(src, word),
                    "{src} / {word}"
                );
            }
        }
    }

    #[test]
    fn unterminated_string_spans_to_end_of_line_only() {
        // A dangling quote must not swallow comments on later lines.
        let src = "x = \"dangling\nassign y = a; // found";
        assert_eq!(extract_comments(src), vec!["found"]);
    }
}
