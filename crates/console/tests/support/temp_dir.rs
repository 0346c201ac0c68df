//! A scratch directory that removes itself: dropping the guard deletes the
//! directory and everything in it, also while a failing or `should_panic`
//! test unwinds. Shared by the crate's unit tests and `real_console.rs`
//! (each includes it with `#[path]`).

use std::path::{Path, PathBuf};

/// `{temp}/{prefix}-{pid}-{name}`, empty on creation, gone on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory afresh (a leftover of the same name is removed).
    pub fn new(prefix: &str, name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a scratch directory");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
