//! Reusable whitespace tokenization of message details.
//!
//! Every online message is tokenized once; template matching and location
//! extraction both read the same spans.

/// Reusable whitespace-tokenizer scratch. Tokens are stored as byte spans
/// into the tokenized string, so a single buffer serves every message of a
/// batch with no per-message allocation (the matcher's hot path).
#[derive(Debug, Default)]
pub struct TokenScratch {
    spans: Vec<(u32, u32)>,
}

/// `char::is_whitespace` restricted to ASCII: tab, LF, VT, FF, CR and
/// space. (`u8::is_ascii_whitespace` leaves out VT, so it would split
/// differently from `str::split_whitespace`.)
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

impl TokenScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenize `s` exactly as `str::split_whitespace` would, replacing
    /// the previous contents; returns the token count. ASCII text (every
    /// generated and nearly every real detail) is split byte by byte;
    /// anything else goes through `split_whitespace` for its Unicode
    /// whitespace.
    pub fn tokenize(&mut self, s: &str) -> usize {
        self.spans.clear();
        if s.is_ascii() {
            let bytes = s.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                while i < bytes.len() && is_ascii_ws(bytes[i]) {
                    i += 1;
                }
                let start = i;
                while i < bytes.len() && !is_ascii_ws(bytes[i]) {
                    i += 1;
                }
                if i > start {
                    self.spans.push((start as u32, i as u32));
                }
            }
        } else {
            let base = s.as_ptr() as usize;
            for tok in s.split_whitespace() {
                let start = (tok.as_ptr() as usize - base) as u32;
                self.spans.push((start, start + tok.len() as u32));
            }
        }
        self.spans.len()
    }

    /// Number of tokens from the last `tokenize`.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the last tokenized string had no tokens.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The token byte spans.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Token `i` of `s` (the string last passed to `tokenize`).
    pub fn get<'s>(&self, s: &'s str, i: usize) -> Option<&'s str> {
        self.spans.get(i).map(|&(a, b)| &s[a as usize..b as usize])
    }

    /// Iterate the tokens of `s` (the string last passed to `tokenize`).
    pub fn tokens<'a, 's: 'a>(&'a self, s: &'s str) -> impl Iterator<Item = &'s str> + 'a {
        self.spans
            .iter()
            .map(move |&(a, b)| &s[a as usize..b as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(s: &str, scratch: &mut TokenScratch) {
        let n = scratch.tokenize(s);
        let expect: Vec<&str> = s.split_whitespace().collect();
        assert_eq!(n, expect.len(), "{s:?}");
        assert_eq!(scratch.tokens(s).collect::<Vec<_>>(), expect, "{s:?}");
        assert_eq!(scratch.is_empty(), expect.is_empty());
        for (i, t) in expect.iter().enumerate() {
            assert_eq!(scratch.get(s, i), Some(*t));
        }
        assert_eq!(scratch.get(s, expect.len()), None);
    }

    #[test]
    fn mirrors_split_whitespace() {
        let mut scratch = TokenScratch::new();
        for s in [
            "",
            "  ",
            "a",
            " a  bb\tccc \n d ",
            "a\u{b}b\u{c}c\rd",
            "x\u{1c}y\u{1f}z",
            "nbsp\u{a0}split ideo\u{3000}graphic",
            "\u{2028}line\u{85}sep\u{3000}",
        ] {
            check(s, &mut scratch);
        }
    }

    #[test]
    fn every_ascii_byte_splits_like_char_is_whitespace() {
        let mut scratch = TokenScratch::new();
        for b in 0u8..0x80 {
            let s = format!("a{}b", b as char);
            check(&s, &mut scratch);
        }
    }
}
