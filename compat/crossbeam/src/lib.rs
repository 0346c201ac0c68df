//! Offline shim mapping the `crossbeam::channel` API onto `std::sync::mpsc`.
//!
//! No first-party user; declared only because removing the line rewrites
//! `perf/Cargo.lock`. `crates/lint/tests/workspace.rs` fails on any new use,
//! so deleting this crate and its manifest lines changes no code.
//! The Grid Console's threads use `std::sync::mpsc` directly.
//!
//! Only the unbounded MPSC surface is covered: `unbounded()`, cloneable
//! `Sender`, and a `Receiver` with `recv`, `recv_timeout`, `try_recv`, and
//! by-value iteration.

/// Multi-producer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Error from [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the timeout.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue is currently empty.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error from [`Sender::send`]; returns the rejected message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Sending half; cloneable.
    #[derive(Debug)]
    pub struct Sender<T> {
        tx: mpsc::Sender<T>,
        /// Channel identity token shared by all clones.
        id: Arc<()>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
                id: Arc::clone(&self.id),
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message; errs only when the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.tx
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }

        /// True when both senders feed the same channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.id, &other.id)
        }
    }

    /// Receiving half. Unlike `std::sync::mpsc`, crossbeam receivers are
    /// `Sync`; a mutex around the std receiver restores that property.
    #[derive(Debug)]
    pub struct Receiver<T>(std::sync::Mutex<mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        fn inner(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv().map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner().recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Non-blocking poll.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner().try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocking iterator over incoming messages (ends on disconnect).
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    /// Blocking by-value message iterator.
    #[derive(Debug)]
    pub struct IntoIter<T>(Receiver<T>);

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    /// Blocking by-reference message iterator.
    #[derive(Debug)]
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            IntoIter(self)
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                tx,
                id: Arc::new(()),
            },
            Receiver(std::sync::Mutex::new(rx)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn by_value_iteration_drains() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, vec![1, 2]);
    }
}
