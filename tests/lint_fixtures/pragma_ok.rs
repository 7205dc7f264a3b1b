//! Suppression fixture: reasoned expectations, each fulfilled, at
//! statement, item and file level.

#![expect(
    clippy::disallowed_methods,
    reason = "scratch module; its output never reaches products"
)]

pub fn suppressed(v: u128, r: Result<u32, ()>) -> u32 {
    #[expect(clippy::cast_possible_truncation, reason = "the low byte is the point")]
    let a = v as u8;
    #[expect(clippy::unwrap_used, reason = "the caller's contract guarantees Ok here")]
    let b = r.unwrap();
    u32::from(a) + b
}

#[expect(clippy::panic, reason = "unreachable by the caller's contract")]
pub fn checked(ok: bool) {
    if !ok {
        panic!("contract broken");
    }
}

pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}
