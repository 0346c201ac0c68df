//! Interned attribute-name symbols.
//!
//! JDL attribute names come from a small, bounded vocabulary (the job and
//! machine schemas plus whatever ad hoc names an ad declares), yet the
//! matchmaking hot loop historically carried them as owned `String`s inside
//! every compiled expression node. A [`Symbol`] is the interned form: one
//! canonical, lowercased, leaked allocation per distinct name, shared
//! process-wide. Copying a symbol is copying a pointer, equality is pointer
//! equality, and resolving it back to its spelling is free — no lock on the
//! read path, which matters because [`crate::CompiledExpr`] evaluation runs
//! on the parallel matcher's worker threads.
//!
//! Leaking is deliberate and safe here: the set of distinct attribute names
//! a workload can mention is tiny (tens, not millions), so the table only
//! ever grows by a few hundred bytes over a process lifetime.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// An interned, ASCII-lowercased attribute name.
///
/// Obtained from [`intern`]; two symbols compare equal iff they were
/// interned from names that are equal case-insensitively. The canonical
/// spelling is available via [`Symbol::as_str`] at zero cost.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

impl Symbol {
    /// The canonical (lowercased) spelling of the interned name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // The interner guarantees one canonical allocation per distinct
        // name, so pointer identity *is* name identity.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0.as_ptr() as usize).hash(state);
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A name as the table keys it: compared and hashed ignoring ASCII case, so
/// looking one up needs no lower-cased copy of it.
struct Folded<'a>(&'a str);

impl PartialEq for Folded<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Folded<'_> {}

impl Hash for Folded<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.0.bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

type Table = HashMap<Folded<'static>, &'static str>;

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Interns `name` (case-insensitively) and returns its [`Symbol`]; only a
/// name met for the first time allocates.
///
/// Called on the compile path only — evaluation never takes the table
/// lock. Thread-safe; poisoning is recovered because the table is always
/// left consistent (insert is the only mutation).
#[must_use]
pub fn intern(name: &str) -> Symbol {
    let mut map = table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A map of `'static` keys is, read-only, a map of shorter-lived ones.
    let known: &HashMap<Folded<'_>, &'static str> = &map;
    if let Some(&canonical) = known.get(&Folded(name)) {
        return Symbol(canonical);
    }
    let leaked: &'static str = Box::leak(name.to_ascii_lowercase().into_boxed_str());
    map.insert(Folded(leaked), leaked);
    Symbol(leaked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_case_insensitive_and_canonical() {
        let a = intern("FreeCpus");
        let b = intern("freecpus");
        let c = intern("FREECPUS");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.as_str(), "freecpus");
        assert!(std::ptr::eq(a.as_str(), c.as_str()));
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(intern("FreeCpus"), intern("TotalCpus"));
    }

    #[test]
    fn symbols_are_stable_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| intern("QueueDepth")))
            .collect();
        let first = intern("QueueDepth");
        for h in handles {
            assert_eq!(h.join().unwrap(), first);
        }
    }

    #[test]
    fn display_and_debug_show_the_spelling() {
        let s = intern("SpeedFactor");
        assert_eq!(s.to_string(), "speedfactor");
        assert_eq!(format!("{s:?}"), "Symbol(\"speedfactor\")");
    }
}
