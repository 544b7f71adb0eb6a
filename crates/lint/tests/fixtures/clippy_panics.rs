//! Seeded violations for the panic lints that `[workspace.lints.clippy]`
//! denies in library code: `unwrap_used`, `expect_used`, `panic`, `todo`
//! and `unimplemented`. CI runs clippy on this file and requires errors
//! on exactly the five seeded lines; the non-panicking twins below stay
//! clean.

/// Seeded: `.unwrap()`.
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}

/// Seeded: `.expect(…)`.
pub fn digit(s: &str) -> u32 {
    s.parse().expect("a number")
}

/// Seeded: `panic!`.
pub fn checked_digit(x: u8) -> u8 {
    if x > 9 {
        panic!("{x} is not a digit");
    }
    x
}

/// Seeded: `todo!`.
pub fn later() -> u8 {
    todo!()
}

/// Seeded: `unimplemented!`.
pub fn never() -> u8 {
    unimplemented!()
}

/// Clean: the `unwrap_or` family never panics.
pub fn defaults(a: Option<u8>, b: Option<u8>, c: Option<u8>) -> u8 {
    a.unwrap_or(0) + b.unwrap_or_else(|| 1) + c.unwrap_or_default()
}

/// Clean: `debug_assert!` and `assert_eq!` are not `panic!`, and a
/// `#[should_panic]` attribute is not a panic.
#[should_panic(expected = "boom")]
pub fn asserts(a: u8, b: u8) {
    debug_assert!(a > 0);
    assert_eq!(a, b, "boom");
}
