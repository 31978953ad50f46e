//! Golden-file checks for tests: compare rendered output with a committed
//! file, or rewrite the file when regeneration is requested.
//!
//! Every golden test in the workspace goes through [`check`], so one
//! switch refreshes them all after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --workspace
//! ```
//!
//! Commit the rewritten files with an explanation of why they moved.

use std::path::Path;

/// The environment variable that turns [`check`] into a rewrite.
const REGEN_VAR: &str = "GOLDEN_REGEN";

/// Asserts that the file at `path` holds exactly `actual`. With
/// `GOLDEN_REGEN=1` in the environment it writes `actual` to `path`
/// instead (creating parent directories) and passes.
///
/// # Panics
///
/// Panics when the file is missing or differs from `actual` (naming the
/// first differing line), or when regeneration cannot write the file.
pub fn check(path: &Path, actual: &str) {
    compare_or_write(
        path,
        actual,
        std::env::var(REGEN_VAR).is_ok_and(|v| v == "1"),
    );
}

fn compare_or_write(path: &Path, actual: &str, regen: bool) {
    if regen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden directory");
        }
        std::fs::write(path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); create it with {REGEN_VAR}=1",
            path.display()
        )
    });
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{} diverged from the committed golden at line {}. If the change \
             is intentional, regenerate with {REGEN_VAR}=1 and commit the diff.",
            path.display(),
            line + 1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_or_rewrites() {
        let dir = std::env::temp_dir().join(format!("audo-golden-{}", std::process::id()));
        let path = dir.join("sub/g.txt");
        compare_or_write(&path, "a\nb\n", true);
        compare_or_write(&path, "a\nb\n", false);
        let drift = std::panic::catch_unwind(|| compare_or_write(&path, "a\nc\n", false));
        let missing = std::panic::catch_unwind(|| compare_or_write(&dir.join("no.txt"), "", false));
        std::fs::remove_dir_all(&dir).unwrap();
        let msg = drift.expect_err("drift must panic");
        let msg = msg.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("at line 2"), "{msg}");
        assert!(missing.is_err(), "a missing golden must panic");
    }
}
