//! The attribute-record (ClassAd-lite) data model: [`Value`]s and [`Ad`]s.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::expr::Expr;
use crate::lexer::write_quoted;

/// A JDL attribute value. Strings and lists are shared, not owned: cloning
/// a value — copying an ad, folding a constant, handing a `member()` list
/// out — bumps a reference count and copies no bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// String literal.
    Str(Arc<str>),
    /// Integer.
    Int(i64),
    /// Floating-point number.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// List of values, `{a, b, c}`.
    List(Arc<[Value]>),
    /// An unevaluated expression (Requirements, Rank).
    Expr(Expr),
}

impl Value {
    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to doubles.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Double(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The list inside, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write_quoted(f, s),
            Value::Int(n) => write!(f, "{n}"),
            Value::Double(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
            Value::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// One attribute of an [`Ad`]: the lower-cased key it is found under and the
/// spelling it was written with (kept for printing), as the two halves of one
/// allocation — `key ‖ name` — and its value. ASCII folding keeps the byte
/// length, so each half is exactly half of `text`, and a clone of the ad
/// copies no name: it bumps a reference count.
#[derive(Debug, Clone, PartialEq)]
struct Attr {
    text: Arc<str>,
    value: Value,
}

/// Names up to this many bytes are folded and joined on the stack, so that
/// building an [`Attr`] allocates once.
const STACK_NAME: usize = 64;

impl Attr {
    fn new(name: &str, value: Value) -> Attr {
        let n = name.len();
        let text: Arc<str> = if n <= STACK_NAME {
            let mut buf = [0u8; 2 * STACK_NAME];
            buf[..n].copy_from_slice(name.as_bytes());
            buf[..n].make_ascii_lowercase();
            buf[n..2 * n].copy_from_slice(name.as_bytes());
            Arc::from(std::str::from_utf8(&buf[..2 * n]).expect("a name and its ASCII fold"))
        } else {
            let mut text = name.to_ascii_lowercase();
            text.push_str(name);
            Arc::from(text)
        };
        Attr { text, value }
    }

    /// The lower-cased name.
    fn key(&self) -> &str {
        &self.text[..self.text.len() / 2]
    }

    /// The name as it was set.
    fn name(&self) -> &str {
        &self.text[self.text.len() / 2..]
    }
}

/// `key` against `name` folded to ASCII lower case, compared byte by byte
/// as `key.cmp(&name.to_ascii_lowercase())` would, without the copy.
fn cmp_folded(key: &str, name: &str) -> Ordering {
    key.bytes()
        .cmp(name.bytes().map(|b| b.to_ascii_lowercase()))
}

/// An attribute record: ordered, case-insensitive attribute names mapped to
/// values. Both job descriptions and machine advertisements are `Ad`s.
///
/// Attributes are kept in one vector sorted by lower-cased name, so every
/// attribute has a *slot* — its position in that order — through which
/// [`Ad::value_at`] reaches the value without comparing a name. The
/// columnar matchmaking store ([`crate::Columns`]) records slots instead of
/// copying strings and lists out of the ads it indexes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ad {
    attrs: Vec<Attr>,
}

impl Ad {
    /// An empty record.
    pub fn new() -> Self {
        Ad::default()
    }

    /// An empty record with room for `attrs` attributes.
    pub fn with_capacity(attrs: usize) -> Self {
        Ad {
            attrs: Vec::with_capacity(attrs),
        }
    }

    /// The slot of the attribute called `name` in any spelling. Keys are
    /// stored lower-cased, so ignoring ASCII case against a key is comparing
    /// it with a lower-cased copy of `name`, without making one.
    fn slot_named(&self, name: &str) -> Option<usize> {
        self.attrs
            .iter()
            .position(|a| a.key().eq_ignore_ascii_case(name))
    }

    /// Sets an attribute (case-insensitive; later sets replace earlier ones).
    /// Setting a name in the spelling it already has replaces only the
    /// value, and allocates nothing.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) -> &mut Self {
        let name = name.as_ref();
        // Attributes set in name order are appended without a search.
        let slot = match self.attrs.last() {
            Some(last) if cmp_folded(last.key(), name) != Ordering::Less => {
                self.attrs.binary_search_by(|a| cmp_folded(a.key(), name))
            }
            _ => Err(self.attrs.len()),
        };
        match slot {
            Ok(slot) if self.attrs[slot].name() == name => self.attrs[slot].value = value,
            Ok(slot) => self.attrs[slot] = Attr::new(name, value),
            Err(slot) => self.attrs.insert(slot, Attr::new(name, value)),
        }
        self
    }

    /// Convenience string setter.
    pub fn set_str(&mut self, name: impl AsRef<str>, v: impl Into<Arc<str>>) -> &mut Self {
        self.set(name, Value::Str(v.into()))
    }

    /// Convenience integer setter.
    pub fn set_int(&mut self, name: impl AsRef<str>, v: i64) -> &mut Self {
        self.set(name, Value::Int(v))
    }

    /// Convenience float setter.
    pub fn set_double(&mut self, name: impl AsRef<str>, v: f64) -> &mut Self {
        self.set(name, Value::Double(v))
    }

    /// Convenience boolean setter.
    pub fn set_bool(&mut self, name: impl AsRef<str>, v: bool) -> &mut Self {
        self.set(name, Value::Bool(v))
    }

    /// Looks an attribute up, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.slot_named(name).map(|slot| &self.attrs[slot].value)
    }

    /// Looks up an attribute by an already-lowercased key, one `==` a key
    /// where [`Ad::get`] folds case — the matchmaking hot loop uses this
    /// with keys normalised once at compile time.
    pub fn get_norm(&self, lower: &str) -> Option<&Value> {
        // An ad has a dozen attributes: comparing each key for equality (its
        // length settles most) beats a binary search's ordered compares.
        self.attrs
            .iter()
            .find(|a| a.key() == lower)
            .map(|a| &a.value)
    }

    /// Looks up an attribute by interned [`Symbol`](crate::Symbol) — the
    /// compiled-expression hot loop's lookup; symbols resolve to their
    /// canonical lowercased spelling at zero cost.
    pub fn get_sym(&self, sym: crate::symbols::Symbol) -> Option<&Value> {
        self.get_norm(sym.as_str())
    }

    /// The value in `slot` — the attribute's position in lower-cased name
    /// order, as [`Ad::slots`] enumerates it.
    ///
    /// # Panics
    /// Panics when `slot >= self.len()`.
    pub fn value_at(&self, slot: usize) -> &Value {
        &self.attrs[slot].value
    }

    /// Iterates `(lower-cased name, value)` in slot order.
    pub fn slots(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|a| (a.key(), &a.value))
    }

    /// Removes an attribute, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let slot = self.slot_named(name)?;
        Some(self.attrs.remove(slot).value)
    }

    /// True when the attribute exists.
    pub fn contains(&self, name: &str) -> bool {
        self.slot_named(name).is_some()
    }

    /// Iterates `(original_name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|a| (a.name(), &a.value))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the record has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

impl fmt::Display for Ad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for (name, value) in self.iter() {
            writeln!(f, "  {name} = {value};")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert!(Value::List([Value::Int(1)].into()).as_list().is_some());
    }

    #[test]
    fn ad_lookup_is_case_insensitive() {
        let mut ad = Ad::new();
        ad.set_str("Executable", "app");
        assert_eq!(ad.get("executable").and_then(Value::as_str), Some("app"));
        assert_eq!(ad.get("EXECUTABLE").and_then(Value::as_str), Some("app"));
        assert!(ad.contains("ExEcUtAbLe"));
        assert!(!ad.contains("missing"));
    }

    #[test]
    fn ad_lookup_folds_ascii_case_only_whatever_the_length() {
        // No fixed-size scratch behind the lookup, and no Unicode folding:
        // `É` and `é` are different names, as they are to `set`.
        let long = "LongAttribute".repeat(16);
        assert!(long.len() > 200);
        let mut ad = Ad::new();
        ad.set_int(long.clone(), 1).set_int("Caf\u{c9}Tables", 2);
        assert_eq!(ad.get(&long.to_ascii_uppercase()), Some(&Value::Int(1)));
        assert_eq!(ad.get(&long[1..]), None);
        assert_eq!(ad.get("caf\u{c9}TABLES"), Some(&Value::Int(2)));
        assert!(ad.contains("CAF\u{c9}tables"));
        assert!(!ad.contains("caf\u{e9}tables"));
        assert_eq!(ad.remove("caf\u{e9}tables"), None);
        assert_eq!(ad.remove("CAF\u{c9}TABLES"), Some(Value::Int(2)));
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn later_set_replaces_earlier() {
        let mut ad = Ad::new();
        ad.set_int("NodeNumber", 2);
        ad.set_int("nodenumber", 4);
        assert_eq!(ad.get("NodeNumber").and_then(Value::as_i64), Some(4));
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn slots_follow_name_order_whatever_the_set_order() {
        let mut forward = Ad::with_capacity(3);
        forward
            .set_int("alpha", 1)
            .set_str("Beta", "b")
            .set_bool("gamma", true);
        let mut backward = Ad::new();
        backward
            .set_bool("gamma", true)
            .set_str("Beta", "b")
            .set_int("alpha", 1);
        assert_eq!(forward, backward);
        let slots: Vec<(&str, &Value)> = backward.slots().collect();
        assert_eq!(
            slots.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            ["alpha", "beta", "gamma"],
            "lower-cased, sorted"
        );
        for (slot, (key, value)) in slots.into_iter().enumerate() {
            assert_eq!(backward.value_at(slot), value);
            assert_eq!(backward.get_norm(key), Some(value));
        }
        // Replacing keeps the slot; removing closes the gap.
        backward.set_str("BETA", "c");
        assert_eq!(backward.value_at(1), &Value::Str("c".into()));
        backward.remove("alpha");
        assert_eq!(backward.value_at(0), &Value::Str("c".into()));
    }

    #[test]
    fn remove_and_empty() {
        let mut ad = Ad::new();
        assert!(ad.is_empty());
        ad.set_bool("x", true);
        assert_eq!(ad.remove("X"), Some(Value::Bool(true)));
        assert!(ad.is_empty());
        assert_eq!(ad.remove("x"), None);
    }

    #[test]
    fn strings_print_with_the_escapes_the_lexer_reads() {
        // `\n \t \\ \"` and nothing else: Rust's `{:?}` would write `\r`,
        // `\u{7f}`, `\u{200b}`, which the lexer rejects as bad escapes.
        let text = "a\nb\tc\\d\"e\rf\u{7f}g\u{200b}h\u{301}i\u{e9}";
        assert_eq!(
            Value::Str(text.into()).to_string(),
            "\"a\\nb\\tc\\\\d\\\"e\rf\u{7f}g\u{200b}h\u{301}i\u{e9}\""
        );
        assert_eq!(
            crate::Expr::Str(text.into()).to_string(),
            Value::Str(text.into()).to_string()
        );
    }

    #[test]
    fn display_round_trips_scalars() {
        assert_eq!(Value::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(
            Value::List([Value::Int(1), Value::Str("b".into())].into()).to_string(),
            "{1, \"b\"}"
        );
    }

    #[test]
    fn ad_display_lists_attributes() {
        let mut ad = Ad::new();
        ad.set_str("Executable", "app").set_int("NodeNumber", 2);
        let s = ad.to_string();
        assert!(s.contains("Executable = \"app\";"));
        assert!(s.contains("NodeNumber = 2;"));
    }
}
