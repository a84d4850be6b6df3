//! One-slot rendezvous cell for strictly alternating handshakes.
//!
//! The simulation's process-wakeup path is a pure handoff: at most one
//! message (the execution baton) is ever in flight toward a given
//! receiver, which parks until it arrives. A general MPSC channel (see
//! [`crate::channel`]) pays a `VecDeque` plus queue bookkeeping per hop
//! for capacity it never uses. This cell is the purpose-built alternative:
//! a single `Mutex<Option<T>>` slot and a `Condvar`.
//!
//! The receiver has one wait strategy on every machine: take the slot
//! lock and, if the slot is empty, park on the condvar. Execution is
//! strictly serial (only the baton holder runs), so a receiver that
//! busy-waits only burns a core the sender cannot use, and one that
//! yields makes its cost depend on the host's core count. The sender
//! issues the futex wakeup only when the receiver has actually parked.
//!
//! Contract: **at most one message outstanding per direction**. Sending
//! into an occupied slot is a protocol violation and panics. Disconnect
//! semantics match [`crate::channel`]: dropping the sender makes `recv`
//! return `Err(RecvError)` (so a dropped simulation unwinds parked process
//! threads), dropping the receiver makes `send` fail with the value.

use std::sync::Arc;

pub use crate::channel::{RecvError, SendError};
use crate::sync::{Condvar, Mutex};

struct Slot<T> {
    value: Option<T>,
    sender_alive: bool,
    receiver_alive: bool,
    receiver_parked: bool,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    avail: Condvar,
}

/// Sending half of a rendezvous cell.
pub struct RendezvousSender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a rendezvous cell.
pub struct RendezvousReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a rendezvous cell: a one-slot, single-producer single-consumer
/// handoff with parking receives.
pub fn rendezvous<T>() -> (RendezvousSender<T>, RendezvousReceiver<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot {
            value: None,
            sender_alive: true,
            receiver_alive: true,
            receiver_parked: false,
        }),
        avail: Condvar::new(),
    });
    (
        RendezvousSender {
            shared: shared.clone(),
        },
        RendezvousReceiver { shared },
    )
}

impl<T> RendezvousSender<T> {
    /// Place a value in the slot; never blocks. Errors iff the receiver is
    /// gone. Panics if the slot is already occupied (the caller broke the
    /// one-outstanding-message contract).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.shared.slot.lock();
        if !s.receiver_alive {
            return Err(SendError(value));
        }
        assert!(
            s.value.is_none(),
            "rendezvous protocol violation: send into an occupied slot"
        );
        s.value = Some(value);
        let parked = s.receiver_parked;
        drop(s);
        // A receiver that has not parked yet finds the value when it takes
        // the lock; only a parked one needs the (comparatively expensive)
        // wakeup.
        if parked {
            self.shared.avail.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for RendezvousSender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.slot.lock();
        s.sender_alive = false;
        let parked = s.receiver_parked;
        drop(s);
        if parked {
            self.shared.avail.notify_one();
        }
    }
}

impl<T> RendezvousReceiver<T> {
    /// Take the value, parking until one arrives or the sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut s = self.shared.slot.lock();
        loop {
            if let Some(v) = s.value.take() {
                return Ok(v);
            }
            if !s.sender_alive {
                return Err(RecvError);
            }
            s.receiver_parked = true;
            self.shared.avail.wait(&mut s);
            s.receiver_parked = false;
        }
    }
}

impl<T> Drop for RendezvousReceiver<T> {
    fn drop(&mut self) {
        let mut s = self.shared.slot.lock();
        s.receiver_alive = false;
        s.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_handoff() {
        let (tx, rx) = rendezvous();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn ping_pong_across_threads() {
        let (req_tx, req_rx) = rendezvous::<u64>();
        let (rep_tx, rep_rx) = rendezvous::<u64>();
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let v = req_rx.recv().unwrap();
                rep_tx.send(v + 1).unwrap();
            }
        });
        let mut v = 0;
        for _ in 0..10_000 {
            req_tx.send(v).unwrap();
            v = rep_rx.recv().unwrap();
        }
        assert_eq!(v, 10_000);
        h.join().unwrap();
    }

    #[test]
    fn recv_errors_after_sender_dropped() {
        let (tx, rx) = rendezvous::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        // The in-flight value is still delivered, then disconnection.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn parked_receiver_wakes_on_sender_drop() {
        let (tx, rx) = rendezvous::<u8>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let (tx, rx) = rendezvous::<u8>();
        drop(rx);
        match tx.send(9) {
            Err(SendError(v)) => assert_eq!(v, 9),
            Ok(()) => panic!("send must fail"),
        }
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn double_send_panics() {
        let (tx, _rx) = rendezvous();
        tx.send(1u8).unwrap();
        let _ = tx.send(2u8);
    }

    #[test]
    fn delayed_send_wakes_parked_receiver() {
        let (tx, rx) = rendezvous();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        // Sleep long enough that the receiver is parked on the condvar.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }
}
