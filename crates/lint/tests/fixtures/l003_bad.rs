//! L003 fixture: raw narrowing casts in bit math.
//!
//! The shifts deliberately leave 64 live bits (and the `usize` cast a
//! full 128), so every cast can truncate — these must stay loud
//! syntactic findings.

pub fn narrows(v: u128) -> (u8, u16, u32, usize) {
    let a = (v >> 64) as u8;
    let b = (v >> 64) as u16;
    let c = (v >> 64) as u32;
    let d = v as usize;
    (a, b, c, d)
}
