//! A table that cannot be written fails its bin, naming the path, so a
//! farm job in that state is recorded failed, never ok.

#[test]
fn unwritable_results_dir_fails_the_bin() {
    let file = std::env::temp_dir().join(format!("rf_table_write_{}", std::process::id()));
    std::fs::write(&file, "a regular file, not a directory").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table3_config"))
        .env("RF_RESULTS_DIR", &file)
        .output()
        .expect("spawn table3_config");
    std::fs::remove_file(&file).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "exited 0 with an unwritable results dir"
    );
    assert!(stderr.contains(file.to_str().unwrap()), "{stderr}");
}
