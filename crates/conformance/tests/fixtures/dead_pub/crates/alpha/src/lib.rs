//! `dead-pub` fixture crate: one plain-`pub` fn per root kind, plus the
//! flagged, annotated and malformed cases.

pub mod wire;

/// Called by the integration test.
pub fn from_test() {}

/// Called by the binary.
pub fn from_bin() {}

/// Passed by path, without parens, in the binary.
pub fn by_reference(x: u32) -> u32 {
    x + 1
}

/// Called by the fedbench-style root.
pub fn from_bench() {}

/// Called by the example.
pub fn from_example() {}

/// Called only inside a `macro_rules!` body.
pub fn from_macro() {}

#[macro_export]
macro_rules! fire {
    () => {
        $crate::from_macro()
    };
}

/// A trait whose impl is callable without `pub`.
pub trait Shape {
    /// Area.
    fn area(&self) -> f64;
}

/// A unit square.
pub struct Square;

impl Shape for Square {
    fn area(&self) -> f64 {
        side() * side()
    }
}

/// Called only by a trait impl.
pub fn side() -> f64 {
    1.0
}

/// Called only by its own test module: dead.
pub fn only_tested() -> u32 {
    1
}

// fedlint: allow(dead-pub) — called over the C ABI by the host runtime
pub fn annotated() {}

// fedlint: allow(dead-pub)
pub fn empty_reason() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 1);
    }
}
