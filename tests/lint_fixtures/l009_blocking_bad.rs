//! L009 fixture: blocking effects performed while a guard is live — a
//! direct sleep under a let-bound guard, and a channel receive under a
//! guard taken through a field on `self`. Both need a lock named
//! where `clippy::disallowed_types` is not expected, so every line that
//! names `Mutex` is a finding.

use std::sync::mpsc::Receiver;
use std::sync::Mutex;
use std::time::Duration;

/// The lock both violations hold.
pub static STATE: Mutex<u32> = Mutex::new(0);

/// Sleeps while holding `STATE` — the direct-effect violation.
pub fn sleepy() {
    let g = STATE.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(Duration::from_millis(1));
    drop(g);
}

/// A queue whose consumer blocks on a channel under its own lock.
pub struct Inbox {
    /// Serialises consumers.
    pub seq: Mutex<u32>,
}

impl Inbox {
    /// Receives while holding `Inbox.seq` — the method-form violation.
    pub fn drain(&self, rx: &Receiver<u32>) -> u32 {
        let mut g = self.seq.lock().unwrap_or_else(|e| e.into_inner());
        let got = match rx.recv() {
            Ok(v) => v,
            Err(_) => 0,
        };
        *g = got;
        got
    }
}
