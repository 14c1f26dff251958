//! Golden files: bytes an earlier commit wrote, which the current code has
//! to reproduce.

use std::path::Path;

/// Whether this run re-records golden files instead of comparing them.
fn blessing() -> bool {
    std::env::var("GFL_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `actual` with the file at `path`, byte for byte, panicking at
/// the first difference. Under `GFL_BLESS=1` it writes the file instead —
/// do that only with a change that means to move the bytes, and commit the
/// diff with the change that explains it.
pub fn check(path: &Path, actual: &[u8]) {
    if blessing() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden directory");
        }
        std::fs::write(path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); record it with GFL_BLESS=1",
            path.display()
        )
    });
    if let Some(divergence) = first_divergence(&expected, actual) {
        panic!(
            "{} moved a byte.\n  first divergence: {divergence}\n\
             If this change is intentional, re-record with GFL_BLESS=1 and commit the diff.",
            path.display()
        );
    }
}

/// Where `actual` first differs from `expected` — byte offset, line number
/// and that line on each side — or `None` when they are equal.
pub fn first_divergence(expected: &[u8], actual: &[u8]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let common = expected.iter().zip(actual).take_while(|(e, a)| e == a);
    let offset = common.count();
    let line_start = expected[..offset]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line_no = expected[..offset].iter().filter(|&&b| b == b'\n').count() + 1;
    let line_of = |bytes: &[u8]| {
        let rest = &bytes[line_start.min(bytes.len())..];
        let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        String::from_utf8_lossy(&rest[..end]).into_owned()
    };
    Some(format!(
        "byte {offset} (line {line_no}; {} bytes expected, {} actual)\n  expected: {}\n  actual:   {}",
        expected.len(),
        actual.len(),
        line_of(expected),
        line_of(actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_a_one_byte_change_and_names_the_offset() {
        if blessing() {
            return; // nothing is compared, so nothing can be refused
        }
        let path = std::env::temp_dir().join(format!("gfl_golden_self_{}", std::process::id()));
        std::fs::write(&path, "first line\nsecond line\n").unwrap();
        check(&path, b"first line\nsecond line\n");
        let refusal = std::panic::catch_unwind(|| check(&path, b"first line\nsecond lime\n"));
        std::fs::remove_file(&path).ok();
        let message = *refusal
            .expect_err("a changed byte must be refused")
            .downcast::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("byte 20 (line 2;"), "{message}");
        assert!(message.contains("expected: second line"), "{message}");
        assert!(message.contains("actual:   second lime"), "{message}");
    }
}
