//! Suppression fixture: a suppression without a reason, one that
//! suppresses nothing, and an `allow` where an `expect` belongs.

/// A reason-less `expect` is a finding of its own.
pub fn reasonless(r: Result<u32, ()>) -> u32 {
    #[expect(clippy::unwrap_used)]
    let a = r.unwrap();
    a
}

/// An expectation nothing fulfils is a finding.
#[expect(clippy::cast_possible_truncation, reason = "suppresses nothing below")]
pub fn no_cast_here() -> u32 {
    7
}

/// An `allow` is never checked for use, so it can outlive its reason.
#[allow(clippy::unwrap_used, reason = "the caller checked")]
pub fn allowed(r: Option<u32>) -> u32 {
    r.unwrap()
}
