//! Token vocabulary with the special tokens sequence models need.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Padding token (id 0) — ignored by attention masks.
pub const PAD_TOKEN: &str = "[PAD]";
/// Unknown-token placeholder (id 1).
pub const UNK_TOKEN: &str = "[UNK]";
/// Classification token prepended to every sequence (id 2).
pub const CLS_TOKEN: &str = "[CLS]";
/// Separator/end token (id 3).
pub const SEP_TOKEN: &str = "[SEP]";
/// Mask token for MLM pre-training (id 4).
pub const MASK_TOKEN: &str = "[MASK]";

const SPECIALS: [&str; 5] = [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN];

/// A frozen token → id mapping. Ids `0..5` are always the special tokens.
///
/// # Examples
///
/// ```
/// use textproc::Vocabulary;
///
/// let docs = [vec!["stir", "add"], vec!["add", "bake"]];
/// let v = Vocabulary::build(docs.iter().map(|d| d.iter().copied()), 1, None);
/// assert_eq!(v.id("add"), Some(v.lookup_or_unk("add")));
/// assert_eq!(v.lookup_or_unk("never-seen"), Vocabulary::UNK);
/// ```
#[derive(Debug, Clone)]
pub struct Vocabulary {
    tokens: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Vocabulary {
    /// Id of [`PAD_TOKEN`].
    pub const PAD: u32 = 0;
    /// Id of [`UNK_TOKEN`].
    pub const UNK: u32 = 1;
    /// Id of [`CLS_TOKEN`].
    pub const CLS: u32 = 2;
    /// Id of [`SEP_TOKEN`].
    pub const SEP: u32 = 3;
    /// Id of [`MASK_TOKEN`].
    pub const MASK: u32 = 4;

    /// Builds a vocabulary from tokenized documents.
    ///
    /// Tokens occurring fewer than `min_freq` times map to `[UNK]`. When
    /// `max_size` is given, only the most frequent `max_size` non-special
    /// tokens are kept (ties broken by first occurrence). Ids are assigned
    /// in descending frequency order after the specials.
    pub fn build<'a>(
        docs: impl IntoIterator<Item = impl IntoIterator<Item = &'a str>>,
        min_freq: u64,
        max_size: Option<usize>,
    ) -> Self {
        let mut counts: HashMap<&str, (u64, usize)> = HashMap::new();
        let mut order = 0usize;
        for doc in docs {
            for tok in doc {
                let e = counts.entry(tok).or_insert((0, order));
                e.0 += 1;
                if e.0 == 1 {
                    e.1 = order;
                }
                order += 1;
            }
        }
        let mut ranked: Vec<(&str, u64, usize)> = counts
            .into_iter()
            .filter(|&(_, (f, _))| f >= min_freq.max(1))
            .map(|(t, (f, o))| (t, f, o))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.2.cmp(&b.2)));
        if let Some(cap) = max_size {
            ranked.truncate(cap);
        }

        let mut tokens: Vec<String> = SPECIALS.iter().map(|s| s.to_string()).collect();
        tokens.extend(ranked.into_iter().map(|(t, _, _)| t.to_string()));
        let ids = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        Self { tokens, ids }
    }

    /// Builds a vocabulary directly from a fixed token list (specials are
    /// prepended; a repeated token, special or not, keeps its first id).
    ///
    /// The map and the list are sized from the iterator's length hint up
    /// front, and each token is hashed once and copied once: the map
    /// keeps the string it is given as its key, the list a copy.
    pub fn from_tokens(items: impl IntoIterator<Item = String>) -> Self {
        let items = items.into_iter();
        let capacity = SPECIALS.len() + items.size_hint().0;
        let mut tokens: Vec<String> = Vec::with_capacity(capacity);
        let mut ids: HashMap<String, u32> = HashMap::with_capacity(capacity);
        for t in SPECIALS.iter().map(|s| s.to_string()).chain(items) {
            if let Entry::Vacant(slot) = ids.entry(t) {
                tokens.push(slot.key().clone());
                slot.insert(tokens.len() as u32 - 1);
            }
        }
        Self { tokens, ids }
    }

    /// Total size including the 5 special tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether only the specials are present.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= SPECIALS.len()
    }

    /// Exact lookup.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Lookup defaulting to [`Vocabulary::UNK`].
    pub fn lookup_or_unk(&self, token: &str) -> u32 {
        self.id(token).unwrap_or(Self::UNK)
    }

    /// Token string for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Whether an id denotes one of the 5 special tokens.
    pub fn is_special(&self, id: u32) -> bool {
        (id as usize) < SPECIALS.len()
    }

    /// Ids of all non-special tokens.
    pub fn content_ids(&self) -> std::ops::Range<u32> {
        SPECIALS.len() as u32..self.tokens.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Vec<&'static str>> {
        vec![
            vec!["add", "stir", "add"],
            vec!["add", "bake"],
            vec!["rare"],
        ]
    }

    #[test]
    fn specials_have_fixed_ids() {
        let v = Vocabulary::build(docs().iter().map(|d| d.iter().copied()), 1, None);
        assert_eq!(v.id(PAD_TOKEN), Some(0));
        assert_eq!(v.id(UNK_TOKEN), Some(1));
        assert_eq!(v.id(CLS_TOKEN), Some(2));
        assert_eq!(v.id(SEP_TOKEN), Some(3));
        assert_eq!(v.id(MASK_TOKEN), Some(4));
    }

    #[test]
    fn frequency_ordering() {
        let v = Vocabulary::build(docs().iter().map(|d| d.iter().copied()), 1, None);
        // 'add' (3x) gets the first content id
        assert_eq!(v.id("add"), Some(5));
        assert_eq!(v.len(), 5 + 4);
    }

    #[test]
    fn min_freq_filters() {
        let v = Vocabulary::build(docs().iter().map(|d| d.iter().copied()), 2, None);
        assert_eq!(v.id("add"), Some(5));
        assert_eq!(v.id("rare"), None);
        assert_eq!(v.lookup_or_unk("rare"), Vocabulary::UNK);
    }

    #[test]
    fn max_size_caps() {
        let v = Vocabulary::build(docs().iter().map(|d| d.iter().copied()), 1, Some(2));
        assert_eq!(v.len(), 7);
        assert!(v.id("add").is_some());
    }

    #[test]
    fn token_roundtrip() {
        let v = Vocabulary::build(docs().iter().map(|d| d.iter().copied()), 1, None);
        for id in v.content_ids() {
            assert_eq!(v.id(v.token(id)), Some(id));
        }
    }

    #[test]
    fn from_tokens_preserves_order() {
        let v = Vocabulary::from_tokens(["b".to_string(), "a".to_string()]);
        assert_eq!(v.id("b"), Some(5));
        assert_eq!(v.id("a"), Some(6));
    }

    #[test]
    fn from_tokens_keeps_first_ids_across_duplicates_and_specials() {
        let items = ["b", "[UNK]", "a", "b", "[PAD]", "c", "a", "[MASK]", "d"];
        let v = Vocabulary::from_tokens(items.map(String::from));
        let order: Vec<&str> = (0..v.len() as u32).map(|id| v.token(id)).collect();
        assert_eq!(
            order,
            [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN, "b", "a", "c", "d"]
        );
        for (id, token) in order.iter().enumerate() {
            assert_eq!(v.id(token), Some(id as u32), "{token}");
        }
        // the same ids as one insertion per first occurrence, however the
        // items arrive (an iterator without a length hint included)
        let lazy = Vocabulary::from_tokens(items.iter().filter(|_| true).map(|t| t.to_string()));
        for id in 0..v.len() as u32 {
            assert_eq!(lazy.token(id), v.token(id));
        }
        assert_eq!(lazy.len(), v.len());
    }

    #[test]
    fn is_special_detects_range() {
        let v = Vocabulary::from_tokens(["x".to_string()]);
        assert!(v.is_special(0));
        assert!(v.is_special(4));
        assert!(!v.is_special(5));
    }
}
