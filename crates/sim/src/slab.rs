//! Numbered slots for the state of operations in flight.

/// Values in numbered slots, reused once freed. A component keeps what an
/// operation in flight needs in one and names it in the payload of the
/// [`crate::TypedEvent`]s it schedules for itself, so the events stay data.
/// It allocates only when more values are live at once than ever before.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` and returns its key.
    pub fn insert(&mut self, value: T) -> u64 {
        if let Some(key) = self.free.pop() {
            self.slots[key as usize] = Some(value);
            key
        } else {
            self.slots.push(Some(value));
            self.slots.len() as u64 - 1
        }
    }

    /// The value under `key`, if it is still there.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slots.get(usize::try_from(key).ok()?)?.as_ref()
    }

    /// The value under `key`, if it is still there.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.slots.get_mut(usize::try_from(key).ok()?)?.as_mut()
    }

    /// Takes the value under `key` out and frees the slot.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let value = self.slots.get_mut(usize::try_from(key).ok()?)?.take()?;
        self.free.push(key);
        Some(value)
    }

    /// How many values are stored.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no value is stored — what a drained component must show.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Slab;

    #[test]
    fn freed_slots_are_reused_and_stale_keys_find_nothing() {
        let mut slab = Slab::default();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(
            (slab.len(), slab.get(a), slab.get(b)),
            (2, Some(&"a"), Some(&"b"))
        );
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "a key frees its slot once");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.insert("c"), a, "the freed slot comes back");
        *slab.get_mut(b).expect("live") = "B";
        assert_eq!(slab.remove(b), Some("B"));
        assert_eq!(slab.get(99), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(a), Some("c"));
        assert!(slab.is_empty());
    }
}
