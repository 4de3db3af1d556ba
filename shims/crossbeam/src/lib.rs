//! Offline shim for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate: the `channel` subset this workspace uses, re-exported from
//! `std::sync::mpsc`. Semantics relied upon by the wall-clock runtime —
//! cloneable senders, `recv_timeout`, and disconnect-on-drop — are all
//! std's.

#![forbid(unsafe_code)]

/// Multi-producer channels (shim for `crossbeam::channel`).
pub mod channel {
    pub use std::sync::mpsc::channel as unbounded;
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, SendError, Sender};

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

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
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
