//! DESIGN.md §6 ("Module map") must match the code: every crate under
//! `crates/` has a bullet, and each bullet's top-level module names are
//! exactly that crate's `pub mod` declarations in `src/lib.rs`.
//!
//! A bullet reads `` * `crate`: `a`, `b::{c, d}` (note), ... ``. Its
//! top-level names are the backticked names outside parentheses, first
//! `::` segment only, so `b::{c, d}` names `b` and a backticked name in a
//! parenthesised note names nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The bullets of DESIGN §6, joined across their continuation lines.
fn section6_bullets(design: &str) -> Vec<String> {
    let start = design
        .find("## 6. Module map")
        .expect("DESIGN.md has a §6 module map");
    let body = &design[start..];
    let body = &body[body.find('\n').expect("heading ends")..];
    let end = body.find("\n## ").unwrap_or(body.len());
    let mut bullets: Vec<String> = Vec::new();
    for line in body[..end].lines() {
        if let Some(rest) = line.strip_prefix("* ") {
            bullets.push(rest.to_string());
        } else if line.starts_with("  ") && !line.trim().is_empty() {
            if let Some(last) = bullets.last_mut() {
                last.push(' ');
                last.push_str(line.trim());
            }
        } else if !bullets.is_empty() {
            // A blank line or prose closes the bullet list.
            break;
        }
    }
    bullets
}

/// Splits `` `crate`: rest `` into the crate name and its top-level
/// module names.
fn parse_bullet(bullet: &str) -> (String, BTreeSet<String>) {
    let (head, rest) = bullet
        .split_once(':')
        .unwrap_or_else(|| panic!("bullet has no `crate:` head: {bullet}"));
    let krate = head.trim().trim_matches('`').to_string();
    let mut names = BTreeSet::new();
    let mut depth = 0u32;
    let mut in_tick = false;
    let mut token = String::new();
    for ch in rest.chars() {
        match ch {
            '`' if in_tick => {
                in_tick = false;
                if depth == 0 {
                    let top = token.split("::").next().unwrap_or_default();
                    names.insert(top.to_string());
                }
                token.clear();
            }
            '`' => in_tick = true,
            _ if in_tick => token.push(ch),
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    (krate, names)
}

/// The `pub mod` names declared in a crate's `lib.rs`, inline modules
/// included.
fn pub_mods(lib_rs: &str) -> BTreeSet<String> {
    lib_rs
        .lines()
        .filter_map(|line| line.strip_prefix("pub mod "))
        .map(|rest| {
            rest.trim_end_matches(|c: char| c == ';' || c == '{' || c.is_whitespace())
                .to_string()
        })
        .collect()
}

#[test]
fn design_module_map_matches_each_crates_pub_mods() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for bullet in section6_bullets(&design) {
        let (krate, names) = parse_bullet(&bullet);
        assert!(
            map.insert(krate.clone(), names).is_none(),
            "DESIGN §6 lists `{krate}` twice"
        );
    }

    let mut crates: BTreeSet<String> = BTreeSet::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crate dir entry").path();
        if dir.join("src/lib.rs").is_file() {
            crates.insert(dir.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    let listed: BTreeSet<String> = map.keys().cloned().collect();
    assert_eq!(
        listed, crates,
        "DESIGN §6 bullets vs library crates under crates/"
    );

    for (krate, names) in &map {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let code = pub_mods(&fs::read_to_string(&lib).expect("read lib.rs"));
        assert_eq!(
            names,
            &code,
            "DESIGN §6 `{krate}` vs `pub mod` in {}",
            lib.display()
        );
    }
}
