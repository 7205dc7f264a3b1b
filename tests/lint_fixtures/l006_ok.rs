//! L006 fixture: overflow policy spelled explicitly (clean).

/// Checked/wrapping/saturating calls state what overflow does.
pub fn explicit(v: u128, n: u8) -> u128 {
    let shifted = match v.checked_shl(u32::from(n)) {
        Some(x) => x,
        None => 0,
    };
    shifted.wrapping_add(1).saturating_mul(2)
}

/// A shift by a literal amount is compiler-checked.
pub fn literal_shift(v: u128) -> u128 {
    v << 3
}

/// Regression: the `>>(` in this signature closes two generic brackets
/// and must not be read as a right shift.
pub fn from_parts<I: IntoIterator<Item = u64>>(iter: I) -> u64 {
    iter.into_iter().fold(0, u64::wrapping_add)
}
