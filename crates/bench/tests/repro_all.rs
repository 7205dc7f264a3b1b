//! `repro_all` is the one regenerator of the committed reproduction
//! (`results/full`): a small run must write exactly that file set, so a
//! dropped or renamed section fails here, not only in the full-scale
//! diff.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect()
}

#[test]
fn repro_all_writes_the_committed_file_set() {
    let out = std::env::temp_dir().join(format!("v6census-repro-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--scale", "0.02", "--out"])
        .arg(&out)
        .output()
        .expect("run repro_all");
    assert!(
        run.status.success(),
        "repro_all failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/full");
    assert_eq!(file_names(&out), file_names(&committed));
    // Figure 1 is static: its bytes do not depend on --scale.
    let fig1 = |dir: &Path| std::fs::read(dir.join("fig1_samples.txt")).expect("fig1_samples.txt");
    assert_eq!(fig1(&out), fig1(&committed));
    std::fs::remove_dir_all(&out).expect("remove --out dir");
}

#[test]
fn a_scale_that_cannot_size_a_world_is_a_usage_error() {
    for scale in ["0", "nan"] {
        let run = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(["--scale", scale])
            .output()
            .expect("run repro_all");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(!stderr.contains("panicked"), "--scale {scale}: {stderr}");
        assert!(
            stderr.contains("bad --scale value"),
            "--scale {scale}: {stderr}"
        );
    }
}
