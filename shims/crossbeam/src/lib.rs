//! Offline shim for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate: the `channel` subset this workspace uses, implemented over
//! `std::sync::mpsc`. Semantics relied upon by the wall-clock runtime —
//! cloneable senders, `recv_timeout`, a queue depth, and
//! disconnect-on-drop — are all provided by std's channels.

#![forbid(unsafe_code)]

/// Multi-producer channels (shim for `crossbeam::channel`).
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvTimeoutError, SendError};

    /// The sending half of a channel.
    pub struct Sender<T> {
        tx: mpsc::Sender<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
                depth: self.depth.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends without blocking. Errors only when all receivers have
        /// been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // Count before the send so the receiver's decrement (which can
            // only follow a completed send) never underflows; undo on
            // failure.
            self.depth.fetch_add(1, Ordering::Relaxed);
            let result = self.tx.send(value);
            if result.is_err() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
            result
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, mpsc::RecvError> {
            let value = self.rx.recv()?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(value)
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let value = self.rx.recv_timeout(timeout)?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(value)
        }

        /// Number of messages currently queued (approximate under
        /// concurrent sends, exact once senders quiesce), as crossbeam's
        /// `len()` reports it.
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// Whether the queue is empty (same caveat as [`Self::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                tx,
                depth: depth.clone(),
            },
            Receiver { rx, depth },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_roundtrip_and_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            drop(tx);
            drop(tx2);
            assert!(rx.recv().is_err());
        }

        #[test]
        fn len_tracks_queued_messages() {
            let (tx, rx) = unbounded::<u32>();
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            rx.recv().unwrap();
            assert_eq!(rx.len(), 1);
            rx.recv_timeout(Duration::from_millis(10)).unwrap();
            assert!(rx.is_empty());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
