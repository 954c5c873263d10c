//! Regenerate or check the digest-gated studies. See
//! `shrimp_bench::artifact` for the list and the committed files.
//!
//! Usage (from the repository root):
//!   `cargo run --release -p shrimp-bench --bin artifacts -- <name> [--smoke] [--check] [--write]`
//!   `cargo run --release -p shrimp-bench --bin artifacts -- --list`
//!
//! * `<name>`: run the study at its committed size and print its text
//!   report and JSON;
//! * `--smoke`: run the CI-sized configuration instead (text only);
//! * `--check`: exit 1 unless every digest the run produced matches
//!   the committed JSON field of the same name and, on a full run, the
//!   text report and the JSON match the committed files byte for byte;
//! * `--write`: write the committed files instead of printing them;
//! * `--list`: print the study names, one per line.

use shrimp_bench::artifact::{check, find, ARTIFACTS};

const USAGE: &str = "artifacts <name> [--smoke] [--check] [--write] | artifacts --list";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: {USAGE}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e} (run from the repository root)");
        std::process::exit(2);
    })
}

fn main() {
    let (mut name, mut smoke, mut check_run, mut write) = (None, false, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => {
                for a in ARTIFACTS {
                    println!("{}", a.name);
                }
                return;
            }
            "--smoke" => smoke = true,
            "--check" => check_run = true,
            "--write" => write = true,
            _ if !arg.starts_with('-') && name.is_none() => name = Some(arg),
            _ => usage_error(&format!("unknown argument: {arg}")),
        }
    }
    let Some(name) = name else {
        usage_error("missing study name");
    };
    let Some(art) = find(&name) else {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        usage_error(&format!(
            "unknown study {name}; expected {}",
            names.join("|")
        ));
    };
    if smoke && write {
        usage_error(
            "--write regenerates the committed files, which come from the full run; drop --smoke",
        );
    }

    let out = (art.run)(smoke);
    if write {
        let json = out.json.as_deref().expect("a full run renders its JSON");
        for (path, body) in [(art.text_path, out.text.as_str()), (art.json_path, json)] {
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    } else {
        print!("{}", out.text);
        if let Some(json) = &out.json {
            println!();
            print!("{json}");
        }
    }

    if check_run {
        let verdicts = check(&out, &read(art.json_path), &read(art.text_path));
        for (line, ok) in &verdicts {
            eprintln!("check: {line} — {}", if *ok { "ok" } else { "FAIL" });
        }
        if verdicts.iter().any(|(_, ok)| !ok) {
            eprintln!("check: {name} diverged from {}", art.json_path);
            std::process::exit(1);
        }
    }
}
