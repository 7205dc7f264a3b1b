//! L009 fixture: a seeded two-lock ordering cycle. `fwd` takes `A`
//! then (through `take_b`) `B`; `rev` takes them in the opposite
//! order — the classic AB/BA deadlock. No lock may be named where
//! `clippy::disallowed_types` is not expected, so every `Mutex` is a finding
//! and the cycle cannot be written.

use std::sync::Mutex;

/// First lock of the seeded cycle.
pub static A: Mutex<u32> = Mutex::new(0);
/// Second lock of the seeded cycle.
pub static B: Mutex<u32> = Mutex::new(0);

/// Acquires `A`, then `B` via `take_b` — the forward chain.
pub fn fwd() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    take_b();
    drop(g);
}

/// Acquires `B` while `fwd` still holds `A`.
pub fn take_b() {
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}

/// Acquires `B`, then `A` via `take_a` — the reverse chain.
pub fn rev() {
    let g = B.lock().unwrap_or_else(|e| e.into_inner());
    take_a();
    drop(g);
}

/// Acquires `A` while `rev` still holds `B`.
pub fn take_a() {
    let h = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
