//! L003 fixture: raw narrowing casts in bit math.
//!
//! The shifts deliberately leave 64 live bits, so every cast can
//! truncate. (`cast_possible_truncation` does not flag `u128 as usize`,
//! which the old lexical rule did.)

pub fn narrows(v: u128) -> (u8, u16, u32) {
    let a = (v >> 64) as u8;
    let b = (v >> 64) as u16;
    let c = (v >> 64) as u32;
    (a, b, c)
}
