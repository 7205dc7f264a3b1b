//! L002 fixture: deterministic equivalents.

use std::collections::{BTreeMap, BTreeSet};

pub fn deterministic() -> String {
    let m: BTreeMap<u32, u32> = BTreeMap::new();
    let s: BTreeSet<u32> = BTreeSet::new();
    let x = 1.0f64 / 3.0;
    // Fixed precision is stable run-to-run; only {:e}/{:.*} formats are not.
    format!("{x:.6} {} {}", m.len(), s.len())
}

#[cfg(test)]
mod tests {
    // Clippy has no in-tests switch for the disallowed lists, so a test
    // module that reads a clock says so.
    #![allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "tests may time themselves and hash; nothing they print is a product"
    )]

    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn tests_may_use_wall_clocks() {
        let _m: HashMap<u32, u32> = HashMap::new();
        let _t = Instant::now();
    }
}
