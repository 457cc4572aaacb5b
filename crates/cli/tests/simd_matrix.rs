//! Forced-backend matrix test: the complete `ghr all` artifact set must be
//! byte-identical with the SIMD substrate disabled (`GHR_SIMD=off`) and
//! with runtime auto-detection (`GHR_SIMD=auto`), and both runs must match
//! the golden copy committed in `experiments/`, file for file.
//!
//! This is the end-to-end witness of the kernel layer's bit-identity
//! contract: `verify.md` routes every paper case through the real
//! reduction kernels, so if a vector kernel's accumulation tree diverged
//! from the scalar one by even a single float rounding, the artifact
//! bytes would differ.
//!
//! The whole matrix runs inside ONE `#[test]` because `GHR_SIMD` is
//! process-global state; parallel test threads must not interleave with
//! the env flips.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `GHR_SIMD` is process-global; the tests in this binary take this lock
/// so the harness's parallel threads cannot interleave their env flips.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghr-simd-matrix-{}-{tag}", std::process::id()));
    // Stale contents from a previous run must not leak into the diff.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `ghr all` into `dir` with `GHR_SIMD` forced to `simd`.
///
/// `--no-cache` is essential: the library is compiled *without*
/// `cfg(test)` for integration tests, so the home-directory cache
/// fallback would otherwise engage and couple the two runs through (and
/// pollute) on-disk state.
fn run_all_with(simd: &str, dir: &Path) {
    std::env::set_var("GHR_SIMD", simd);
    // No --threads: use the host's full parallelism (output is
    // byte-identical at every thread count, so the diff below is safe).
    let args: Vec<String> = [dir.to_str().unwrap(), "--no-cache"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let out = ghr_cli::run("all", &args).unwrap();
    assert!(out.contains("wrote"), "{out}");
}

/// The committed golden artifacts: exactly what `ghr all` writes.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// Fail unless `got` holds exactly the golden files, byte for byte,
/// naming the first differing line of the first file that differs.
fn assert_matches_golden(run: &str, got: &BTreeMap<String, Vec<u8>>) {
    const REGENERATE: &str = "regenerate with `ghr all experiments/ --no-cache` \
                              and review the diff";
    let golden = artifact_bytes(&golden_dir());
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>(),
        "{run}: `ghr all` wrote a different file set than experiments/ holds; {REGENERATE}"
    );
    for (name, want) in &golden {
        let have = &got[name];
        if have == want {
            continue;
        }
        let (have, want) = (String::from_utf8_lossy(have), String::from_utf8_lossy(want));
        let line = have
            .split('\n')
            .zip(want.split('\n'))
            .take_while(|(h, w)| h == w)
            .count();
        panic!(
            "{run}: experiments/{name} differs from `ghr all` at line {}:\n  \
             committed: {:?}\n  generated: {:?}\n{REGENERATE}",
            line + 1,
            want.split('\n').nth(line).unwrap_or("<end of file>"),
            have.split('\n').nth(line).unwrap_or("<end of file>"),
        );
    }
}

fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        files.insert(
            entry.file_name().to_string_lossy().into_owned(),
            fs::read(entry.path()).unwrap(),
        );
    }
    files
}

#[test]
fn ghr_all_artifacts_are_identical_across_forced_backends() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let off_dir = tmp_dir("off");
    let auto_dir = tmp_dir("auto");

    run_all_with("off", &off_dir);
    run_all_with("auto", &auto_dir);
    std::env::remove_var("GHR_SIMD");

    // Both runs equal to the golden copy means equal to each other: the
    // scalar and SIMD backends agree bit for bit.
    assert_matches_golden("GHR_SIMD=off", &artifact_bytes(&off_dir));
    assert_matches_golden("GHR_SIMD=auto", &artifact_bytes(&auto_dir));

    let _ = fs::remove_dir_all(&off_dir);
    let _ = fs::remove_dir_all(&auto_dir);
}

#[test]
fn forcing_an_unavailable_backend_falls_back_to_scalar() {
    // NEON on x86_64 / AVX2 on aarch64: the request cannot be honored, so
    // the reported backend must be scalar with an explanation — and the
    // functional path must keep producing correct sums.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let unavailable = if cfg!(target_arch = "x86_64") {
        "neon"
    } else {
        "avx2"
    };
    std::env::set_var("GHR_SIMD", unavailable);
    let report = ghr_parallel::simd::report();
    let out = ghr_cli::run("verify", &["100000".to_string()]).unwrap();
    std::env::remove_var("GHR_SIMD");
    assert!(report.contains("scalar"), "{report}");
    assert!(report.contains("unavailable"), "{report}");
    assert_eq!(out.matches(" ok").count(), 12, "{out}");
}
