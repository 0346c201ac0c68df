//! The column-oriented counterpart of a list of [`Ad`]s: one [`Column`] per
//! attribute name, one typed [`Cell`] per ad, and [`SiteSet`], the bitset a
//! columnar matchmaking pass narrows conjunct by conjunct.
//!
//! A cell holds a number or a boolean inline. A string, a list or a stored
//! expression is *not* copied out of its ad: the cell records the slot the
//! value occupies there ([`Ad::value_at`]), so it is shared by reference with
//! the ad the store's owner holds anyway, and reading it compares no name.
//! That makes a column independent of the strings behind it — an ad replaced
//! by one with the same numbers, the same attribute set and different strings
//! leaves every column exactly as it was.
//!
//! Columns sit behind `Arc`s and are copied on write, so a successor store
//! made by cloning a [`Columns`] and [`Columns::replace`]-ing the ads that
//! changed shares every column no changed ad touched.

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use crate::ast::{Ad, Value};
use crate::symbols::{intern, Symbol};

/// One ad's value of one attribute, as a [`Column`] stores it.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// The ad does not carry the attribute.
    Missing,
    /// An integer.
    Int(i64),
    /// A double.
    Double(f64),
    /// A boolean.
    Bool(bool),
    /// A string, a list or a stored expression, left in the ad in this slot.
    Slot(u32),
}

impl Cell {
    fn of(slot: usize, value: &Value) -> Cell {
        match value {
            Value::Int(n) => Cell::Int(*n),
            Value::Double(x) => Cell::Double(*x),
            Value::Bool(b) => Cell::Bool(*b),
            Value::Str(_) | Value::List(_) | Value::Expr(_) => {
                Cell::Slot(u32::try_from(slot).expect("an ad has fewer than 2^32 attributes"))
            }
        }
    }

    /// The value this cell stands for, `ad` being the ad it was made from:
    /// numbers and booleans by value, everything else borrowed from the ad.
    #[must_use]
    pub fn value(self, ad: &Ad) -> Option<Cow<'_, Value>> {
        Some(match self {
            Cell::Missing => return None,
            Cell::Int(n) => Cow::Owned(Value::Int(n)),
            Cell::Double(x) => Cow::Owned(Value::Double(x)),
            Cell::Bool(b) => Cow::Owned(Value::Bool(b)),
            Cell::Slot(slot) => Cow::Borrowed(ad.value_at(slot as usize)),
        })
    }
}

/// Cells are equal when they store the same thing: doubles by bit pattern,
/// so a NaN cell equals itself and `0.0` differs from `-0.0`.
impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        match (*self, *other) {
            (Cell::Missing, Cell::Missing) => true,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Double(a), Cell::Double(b)) => a.to_bits() == b.to_bits(),
            (Cell::Bool(a), Cell::Bool(b)) => a == b,
            (Cell::Slot(a), Cell::Slot(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Cell {}

/// One attribute across every ad of a store, in ad order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    cells: Vec<Cell>,
}

impl Column {
    /// The cell of ad `index`.
    ///
    /// # Panics
    /// Panics when `index` is past the store's ad count.
    #[must_use]
    pub fn cell(&self, index: usize) -> Cell {
        self.cells[index]
    }
}

/// One [`Column`] per attribute name that any ad of a list carries. The
/// owner keeps the ads themselves; [`Cell::Slot`] cells point back into
/// them.
#[derive(Debug, Clone)]
pub struct Columns {
    /// In the order the names were first met.
    columns: Vec<(Symbol, Arc<Column>)>,
    ads: usize,
}

/// The position in `columns` of the column for `key`, an attribute found in
/// slot `slot` of an ad. Ads of one schema list their attributes in one
/// order, so the column in the same position is tried before the names are
/// searched.
fn position<C>(columns: &[(Symbol, C)], slot: usize, key: &str) -> Option<usize> {
    if columns
        .get(slot)
        .is_some_and(|(name, _)| name.as_str() == key)
    {
        return Some(slot);
    }
    columns.iter().position(|(name, _)| name.as_str() == key)
}

impl Columns {
    /// Builds the columns of `ads`.
    #[must_use]
    pub fn build<A: Borrow<Ad>>(ads: &[A]) -> Columns {
        let mut columns: Vec<(Symbol, Vec<Cell>)> = Vec::new();
        for (index, ad) in ads.iter().enumerate() {
            for (slot, (key, value)) in ad.borrow().slots().enumerate() {
                let at = position(&columns, slot, key).unwrap_or_else(|| {
                    columns.push((intern(key), vec![Cell::Missing; ads.len()]));
                    columns.len() - 1
                });
                columns[at].1[index] = Cell::of(slot, value);
            }
        }
        Columns {
            columns: columns
                .into_iter()
                .map(|(name, cells)| (name, Arc::new(Column { cells })))
                .collect(),
            ads: ads.len(),
        }
    }

    /// Ad `index` was `old` — the ad its cells were last made from — and is
    /// now `new`: rewrites the cells that differ. A column with such a cell
    /// is copied first if another `Columns` shares it; every other column
    /// stays shared. Costs one cell comparison per attribute of either ad,
    /// whatever the number of ads.
    ///
    /// # Panics
    /// Panics when `index` is past the ad count, or when `old` carries an
    /// attribute no column exists for — it is not the ad the cells came from.
    pub fn replace(&mut self, index: usize, old: &Ad, new: &Ad) {
        // Both ads list their attributes in name order: an attribute of
        // `old` passed over on the way to one of `new` is gone.
        let mut gone = old.slots().map(|(key, _)| key).enumerate().peekable();
        for (slot, (key, value)) in new.slots().enumerate() {
            while let Some((old_slot, old_key)) = gone.next_if(|(_, k)| *k < key) {
                self.clear(index, old_slot, old_key);
            }
            gone.next_if(|(_, k)| *k == key);
            let at = position(&self.columns, slot, key).unwrap_or_else(|| {
                let cells = vec![Cell::Missing; self.ads];
                self.columns.push((intern(key), Arc::new(Column { cells })));
                self.columns.len() - 1
            });
            self.write(at, index, Cell::of(slot, value));
        }
        for (old_slot, old_key) in gone {
            self.clear(index, old_slot, old_key);
        }
    }

    fn clear(&mut self, index: usize, slot: usize, key: &str) {
        let at = position(&self.columns, slot, key).expect("every attribute of an ad has a column");
        self.write(at, index, Cell::Missing);
    }

    fn write(&mut self, at: usize, index: usize, cell: Cell) {
        let column = &mut self.columns[at].1;
        if column.cells[index] != cell {
            Arc::make_mut(column).cells[index] = cell;
        }
    }

    /// Where the column of attribute `name` sits, for [`Columns::at`];
    /// `None` when no ad ever carried it. A column keeps its position in
    /// every successor of its store.
    #[must_use]
    pub fn position(&self, name: Symbol) -> Option<usize> {
        self.columns.iter().position(|(n, _)| *n == name)
    }

    /// The column at `position`.
    ///
    /// # Panics
    /// Panics when `position` did not come from [`Columns::position`].
    #[must_use]
    pub fn at(&self, position: usize) -> &Column {
        &self.columns[position].1
    }

    /// The column of attribute `name`; `None` when no ad ever carried it.
    #[must_use]
    pub fn get(&self, name: Symbol) -> Option<&Column> {
        self.position(name).map(|at| self.at(at))
    }

    /// The cell of attribute `name` at ad `index` — missing when no ad ever
    /// carried the attribute.
    #[must_use]
    pub fn cell(&self, name: Symbol, index: usize) -> Cell {
        self.get(name).map_or(Cell::Missing, |c| c.cell(index))
    }

    /// Every column with its attribute name, in first-met order. The `Arc`
    /// shows which columns two stores share.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Arc<Column>)> {
        self.columns.iter().map(|(name, column)| (*name, column))
    }
}

/// A set of ad indices below a fixed bound, one bit each — what survives of
/// a store as a columnar pass applies one conjunct after another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSet {
    words: Vec<u64>,
}

impl SiteSet {
    /// The set of every index below `len`.
    #[must_use]
    pub fn full(len: usize) -> SiteSet {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last = (1 << tail) - 1;
        }
        SiteSet { words }
    }

    /// True when no index is left.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of indices left.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Keeps the indices `keep` accepts, asking in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut left = *word;
            while left != 0 {
                let bit = left.trailing_zeros() as usize;
                left &= left - 1;
                if !keep(w * 64 + bit) {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// The indices left, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                (left != 0).then(|| {
                    let bit = left.trailing_zeros() as usize;
                    left &= left - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(free: i64, arch: &str) -> Ad {
        let mut ad = Ad::new();
        ad.set_int("FreeCpus", free).set_str("Arch", arch);
        ad
    }

    fn cell(columns: &Columns, name: &str, index: usize) -> Cell {
        columns.cell(intern(name), index)
    }

    #[test]
    fn cells_are_typed_and_strings_stay_in_the_ad() {
        let mut odd = ad(2, "sparc");
        odd.set_str("FreeCpus", "busted")
            .set_double("SpeedFactor", 1.5)
            .set_bool("AcceptsQueued", false);
        let ads = vec![ad(4, "i686"), odd];
        let columns = Columns::build(&ads);
        assert_eq!(cell(&columns, "FreeCpus", 0), Cell::Int(4));
        assert_eq!(cell(&columns, "SpeedFactor", 0), Cell::Missing);
        assert_eq!(cell(&columns, "SpeedFactor", 1), Cell::Double(1.5));
        assert_eq!(cell(&columns, "AcceptsQueued", 1), Cell::Bool(false));
        assert_eq!(cell(&columns, "NoSuchAttribute", 0), Cell::Missing);
        // A wrong-typed value is a slot like any other string.
        for (name, index, want) in [("Arch", 0, "i686"), ("FreeCpus", 1, "busted")] {
            let got = cell(&columns, name, index);
            assert!(matches!(got, Cell::Slot(_)), "{name}: {got:?}");
            assert_eq!(
                got.value(&ads[index]).as_deref(),
                Some(&Value::Str(want.into()))
            );
        }
    }

    #[test]
    fn replace_copies_only_the_columns_it_changes() {
        let ads = vec![ad(4, "i686"), ad(2, "sparc")];
        let before = Columns::build(&ads);
        let mut after = before.clone();
        // Same attribute set, another number, another string in the same
        // slot: the string's column does not notice.
        after.replace(1, &ads[1], &ad(3, "alpha"));
        let shared = |name: &str| {
            let find = |c: &Columns| {
                let (_, column) = c.iter().find(|(n, _)| *n == intern(name)).unwrap();
                Arc::clone(column)
            };
            Arc::ptr_eq(&find(&before), &find(&after))
        };
        assert!(shared("Arch"));
        assert!(!shared("FreeCpus"));
        assert_eq!(cell(&before, "FreeCpus", 1), Cell::Int(2));
        assert_eq!(cell(&after, "FreeCpus", 1), Cell::Int(3));
    }

    #[test]
    fn replace_follows_attributes_that_appear_vanish_and_change_type() {
        // `Arch` goes from the front of the ad, `Zone` from its end.
        let mut first = ad(4, "i686");
        first.set_int("Zone", 1);
        let ads = vec![first, ad(2, "sparc")];
        let mut columns = Columns::build(&ads);
        let mut next = Ad::new();
        next.set_str("FreeCpus", "n/a").set_int("QueueDepth", 7);
        columns.replace(0, &ads[0], &next);
        let fresh = Columns::build(&[next.clone(), ads[1].clone()]);
        for name in ["Arch", "FreeCpus", "QueueDepth", "Zone"] {
            for index in 0..2 {
                assert_eq!(
                    cell(&columns, name, index),
                    cell(&fresh, name, index),
                    "{name}[{index}]"
                );
            }
        }
        assert_eq!(cell(&columns, "Arch", 0), Cell::Missing);
        assert_eq!(cell(&columns, "QueueDepth", 0), Cell::Int(7));
        assert_eq!(cell(&columns, "QueueDepth", 1), Cell::Missing);
    }

    #[test]
    fn site_sets_narrow_in_ascending_order() {
        for len in [0, 1, 63, 64, 65, 130] {
            let mut set = SiteSet::full(len);
            assert_eq!(set.len(), len);
            assert_eq!(set.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
            let mut asked = Vec::new();
            set.retain(|i| {
                asked.push(i);
                i % 3 == 0
            });
            assert_eq!(asked, (0..len).collect::<Vec<_>>());
            let want: Vec<usize> = (0..len).step_by(3).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), want);
            assert_eq!(set.is_empty(), want.is_empty());
            set.clear();
            assert!(set.is_empty());
        }
    }
}
