//! `peachstar-cli replay` refuses a crash artifact of another format
//! version, by number, with a non-zero exit.

use std::process::Command;

/// FNV-1a 64 over `bytes`, one byte at a time: the artifact's trailer.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn replay_of_a_version_1_artifact_fails_naming_the_version() {
    // Magic, version 1 and a valid checksum: the version is refused before
    // any section is read.
    let mut bundle = b"PEACHART".to_vec();
    bundle.extend_from_slice(&1u32.to_le_bytes());
    let checksum = fnv1a(&bundle);
    bundle.extend_from_slice(&checksum.to_le_bytes());
    let dir = std::env::temp_dir().join(format!("peachstar-cli-replay-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("v1.peachart");
    std::fs::write(&path, &bundle).expect("write the bundle");

    let output = Command::new(env!("CARGO_BIN_EXE_peachstar-cli"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("run peachstar-cli");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!output.status.success(), "a version-1 bundle must not replay");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("version 1"), "the message names the version: {stderr}");
}
