//! L006 fixture: unchecked bit arithmetic (seeded violations).

/// A shift whose amount can reach the width panics in debug builds.
pub fn shift_by_expr(v: u128, n: u8) -> u128 {
    v << (128 - n)
}

/// A shift by a parameter that nothing bounds below the width.
pub fn scatter(x: u64, n: u32) -> u64 {
    x << n
}

/// Bare `*`/`+` on sized integers overflows silently in release.
pub fn bare_math(len: u8) -> u8 {
    let scaled: u8 = len * 3;
    scaled + 1
}

/// Compound assignment counts too.
pub fn accumulate(mut total: u64, step: u64) -> u64 {
    total += step;
    total
}
