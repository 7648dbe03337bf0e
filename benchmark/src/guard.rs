//! The start-up guard against measuring a different build than the
//! repository's: this package is a workspace of its own, so it does not
//! inherit the root manifest's `[profile.*]` tables. Every such table in
//! the root must appear, with the same settings, in `benchmark/Cargo.toml`.

/// The `[profile…]` tables of a manifest: header and settings, with blank
/// lines and comments dropped.
pub fn profile_tables(manifest: &str) -> Vec<(String, Vec<String>)> {
    let mut tables: Vec<(String, Vec<String>)> = Vec::new();
    let mut in_profile = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_profile = line.starts_with("[profile");
            if in_profile {
                tables.push((line.to_string(), Vec::new()));
            }
        } else if in_profile {
            let setting: String = line.split_whitespace().collect();
            tables.last_mut().expect("inside a table").1.push(setting);
        }
    }
    for (_, settings) in &mut tables {
        settings.sort();
    }
    tables
}

/// Checks that `bench_manifest` mirrors every profile table of
/// `root_manifest`.
///
/// # Errors
///
/// Names the first root profile table that is missing or differs.
pub fn check_profiles(root_manifest: &str, bench_manifest: &str) -> Result<(), String> {
    let ours = profile_tables(bench_manifest);
    for table in profile_tables(root_manifest) {
        if !ours.contains(&table) {
            return Err(format!(
                "the root Cargo.toml declares {} but benchmark/Cargo.toml does not mirror it; \
                 copy the table so the benchmark measures the same build",
                table.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_must_be_mirrored() {
        let root = "[workspace]\nmembers = [\"crates/*\"]\n\n[profile.release]\nlto = true # fat\ncodegen-units = 1\n";
        let bench_without = "[package]\nname = \"b\"\n[workspace]\n";
        let bench_with = "[workspace]\n[profile.release]\ncodegen-units=1\nlto = true\n";
        let bench_other = "[workspace]\n[profile.release]\nlto = false\ncodegen-units = 1\n";
        assert!(check_profiles(root, bench_without)
            .unwrap_err()
            .contains("[profile.release]"));
        assert!(check_profiles(root, bench_with).is_ok());
        assert!(check_profiles(root, bench_other).is_err());
        // A root with no profile tables needs nothing mirrored.
        assert!(check_profiles("[workspace]\n", bench_without).is_ok());
        assert_eq!(
            profile_tables(root),
            vec![(
                "[profile.release]".to_string(),
                vec!["codegen-units=1".to_string(), "lto=true".to_string()]
            )]
        );
    }
}
