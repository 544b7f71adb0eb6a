//! Seeded violation: error-carrying `Result`s silently discarded. A
//! decoder that reports corruption through a typed `*Error` is only as
//! good as its callers — `let _ =` throws the verdict away entirely and
//! a bare `.ok()` launders it into an anonymous `None`. The clean twins
//! propagate or actually inspect the error.

/// A typed decode failure, like `WireError` on the real wire path.
#[derive(Debug)]
pub struct FrameError;

/// The producer: a `Result` whose error type the rule keys on.
#[must_use = "the frame verdict is the whole point"]
pub fn validate_frame(buf: &[u8]) -> Result<usize, FrameError> {
    if buf.is_empty() {
        return Err(FrameError);
    }
    Ok(buf.len())
}

/// Violation: `let _ =` discards the corruption verdict.
pub fn ingest(buf: &[u8]) {
    let _ = validate_frame(buf);
}

/// Violation: `.ok()` without inspection erases *which* error occurred.
pub fn ingest_lossy(buf: &[u8]) -> Option<usize> {
    validate_frame(buf).ok()
}

/// Clean twin: the verdict is propagated to the caller.
#[must_use = "the frame verdict is the whole point"]
pub fn ingest_checked(buf: &[u8]) -> Result<usize, FrameError> {
    validate_frame(buf)
}

/// Clean twin: the error arm is genuinely handled.
pub fn ingest_defaulted(buf: &[u8]) -> usize {
    match validate_frame(buf) {
        Ok(n) => n,
        Err(FrameError) => 0,
    }
}
