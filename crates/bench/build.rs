//! Derives the behaviour fingerprint that salts every result-store key.
//!
//! The digest covers every `src/**/*.rs` file of each crate that can
//! change a simulated result, plus `Cargo.lock`, each hashed together
//! with its workspace-relative path. Any edit to any of them yields a new
//! fingerprint, so objects stored by an older build are never served.

use std::path::{Path, PathBuf};

use fsencr_snapshot::{fnv1a64, fnv1a64_once};

/// Crates whose sources feed simulated results.
const CRATES: &[&str] = &[
    "sim",
    "obs",
    "crypto",
    "nvm",
    "faults",
    "cache",
    "secmem",
    "fs",
    "fsencr",
    "workloads",
    "snapshot",
    "bench",
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| panic!("{}: {e}", dir.display())).path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    let mut files = vec![root.join("Cargo.lock")];
    println!("cargo:rerun-if-changed={}", root.join("Cargo.lock").display());
    for name in CRATES {
        let src = root.join("crates").join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect_rs(&src, &mut files);
    }
    let mut rel: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let name = path
                .strip_prefix(&root)
                .expect("collected under the workspace root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            (name, path)
        })
        .collect();
    rel.sort();
    let mut h = fnv1a64_once(b"fsencr-behaviour/1");
    for (name, path) in &rel {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        h = fnv1a64(h, name.as_bytes());
        h = fnv1a64(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv1a64(h, &bytes);
    }
    println!("cargo:rustc-env=FSENCR_BEHAVIOUR_FINGERPRINT={h:016x}");
}
