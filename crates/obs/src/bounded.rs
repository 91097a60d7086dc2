//! The bounded ring behind the event and trace logs.
//!
//! A [`BoundedLog`] keeps the newest `capacity` entries. Its storage is
//! allocated once, at construction; at capacity each push overwrites the
//! oldest entry through a wrapping cursor, so the log never reallocates.
//! It counts every push, evicted ones included. It takes no lock itself:
//! each owning log holds it behind its own mutex.

/// A bounded, allocate-once buffer that evicts oldest-first.
#[derive(Debug)]
pub(crate) struct BoundedLog<T> {
    buf: Vec<T>,
    cap: usize,
    /// The oldest entry once `buf` is full: the next one overwritten.
    next: usize,
    /// Entries ever pushed.
    pushed: u64,
}

impl<T: Clone> BoundedLog<T> {
    /// A log holding at most `capacity` entries; a capacity of zero
    /// becomes one.
    pub(crate) fn new(capacity: usize) -> BoundedLog<T> {
        let cap = capacity.max(1);
        BoundedLog {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            pushed: 0,
        }
    }

    /// Maximum number of retained entries.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of currently retained entries.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries ever pushed, evicted ones included.
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Appends `entry`, evicting the oldest at capacity.
    pub(crate) fn push(&mut self, entry: T) {
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.next] = entry;
            self.next = (self.next + 1) % self.cap;
        }
        self.pushed += 1;
    }

    /// The retained entries, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_first_at_capacity_without_reallocating() {
        let mut log = BoundedLog::new(4);
        let base_ptr = log.buf.as_ptr();
        for i in 1..=11u64 {
            log.push(i);
        }
        assert_eq!(log.snapshot(), vec![8, 9, 10, 11], "oldest evicted first");
        assert_eq!(log.len(), 4);
        assert_eq!(log.pushed(), 11, "evicted pushes still counted");
        assert_eq!(log.buf.as_ptr(), base_ptr, "ring must never reallocate");
        assert_eq!(log.buf.capacity(), 4);
    }

    #[test]
    fn below_capacity_keeps_everything_in_order() {
        let mut log = BoundedLog::new(8);
        log.push("a");
        log.push("b");
        assert_eq!(log.snapshot(), vec!["a", "b"]);
        assert_eq!(log.pushed(), 2);
        assert_eq!(log.capacity(), 8);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut log = BoundedLog::new(0);
        assert_eq!(log.capacity(), 1);
        log.push("a");
        log.push("b");
        assert_eq!(log.snapshot(), vec!["b"]);
    }
}
