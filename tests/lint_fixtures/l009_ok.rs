//! L009 fixture (clean): a sleep and a channel receive beside shared state —
//! shared state written before a sleep and before a channel receive —
//! built from an atomic and a channel, so no lock is named.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// The state both paths share.
pub static STATE: AtomicU32 = AtomicU32::new(0);

/// Publishes, then sleeps: nothing is held across the sleep.
pub fn store_then_sleep() {
    STATE.store(7, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(1));
}

/// A queue whose consumer counts what it receives.
pub struct Inbox {
    /// Messages taken so far.
    pub seq: AtomicU32,
}

impl Inbox {
    /// Receives, then records the count: nothing is held across the
    /// receive.
    pub fn drain(&self, rx: &Receiver<u32>) -> u32 {
        let got = match rx.recv() {
            Ok(v) => v,
            Err(_) => 0,
        };
        self.seq.fetch_add(1, Ordering::SeqCst);
        got
    }
}
