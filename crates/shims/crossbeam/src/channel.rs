//! Bounded multi-producer multi-consumer channels, mirroring the
//! `crossbeam-channel` API surface the workspace uses: [`bounded`],
//! [`unbounded`], cloneable [`Sender`]/[`Receiver`], and disconnection
//! when the last handle on either side drops.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// `usize::MAX` encodes "unbounded".
    capacity: usize,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Signaled when an item arrives or the senders disconnect.
    not_empty: Condvar,
    /// Signaled when space frees up or the receivers disconnect.
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn disconnected_tx(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }

    fn disconnected_rx(&self) -> bool {
        self.receivers.load(Ordering::SeqCst) == 0
    }
}

/// Error from [`Sender::send`]: the message comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error from [`Receiver::recv`]: every sender is gone and the queue is
/// drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error from [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender has disconnected.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel is empty"),
            TryRecvError::Disconnected => write!(f, "channel is disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// The sending half; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; cloneable (MPMC — each message goes to exactly one
/// receiver).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel holding at most `capacity` in-flight messages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(capacity.max(1))
}

/// Creates a channel with no capacity bound.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(usize::MAX)
}

fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        capacity,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// The number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("channel lock").len()
    }

    /// Whether no message is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until the message is enqueued or every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().expect("channel lock");
        loop {
            if shared.disconnected_rx() {
                return Err(SendError(value));
            }
            if queue.len() < shared.capacity {
                queue.push_back(value);
                shared.not_empty.notify_one();
                return Ok(());
            }
            queue = shared.not_full.wait(queue).expect("channel lock");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Wake receivers parked on an empty queue so they observe the
            // disconnect.
            let _guard = self.shared.queue.lock();
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or the channel disconnects empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().expect("channel lock");
        loop {
            if let Some(value) = queue.pop_front() {
                shared.not_full.notify_one();
                return Ok(value);
            }
            if shared.disconnected_tx() {
                return Err(RecvError);
            }
            queue = shared.not_empty.wait(queue).expect("channel lock");
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().expect("channel lock");
        if let Some(value) = queue.pop_front() {
            shared.not_full.notify_one();
            return Ok(value);
        }
        if shared.disconnected_tx() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Wake senders parked on a full queue so they observe the
            // disconnect.
            let _guard = self.shared.queue.lock();
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpmc_delivers_every_message_once() {
        let (tx, rx) = bounded::<usize>(4);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_after_senders_drop() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receivers_drop() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn bounded_blocks_then_progresses() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap().unwrap();
    }
}
