//! The artifact harness: every committed report under `results/`, and
//! every digest-gated `BENCH_<name>.json`, behind one list and one
//! command.
//!
//! Two kinds of entry share the list. A *text-only* entry is a paper
//! figure or decomposition: one size, no JSON, no digests; its check
//! byte-compares the report. A *digest-gated study* (`svc`, `svcsoak`,
//! `rmc`, `topo`) also regenerates a committed `BENCH_<name>.json`,
//! names the replay digests CI gates on, and has a CI-sized smoke run.
//! The `artifacts` binary runs one entry and then prints, writes
//! (`--write`) or checks (`--check`) its files. This module owns what
//! the entries share: the JSON scaffolding, the digest lookup in a
//! committed file, and the comparison `--check` makes.

use crate::{
    ablations, nx_pingpong, pingpong, rmcbench, rpc_compare, scale, simprof, socket_bench,
    svcbench, svcsoak, topobench, vrpc_bench,
};

/// One committed report and the run that regenerates it (paths
/// relative to the repository root).
#[derive(Debug)]
pub struct Artifact {
    /// The name `artifacts <name>` selects.
    pub name: &'static str,
    /// The committed JSON (`BENCH_<name>.json`); `None` for a text-only
    /// entry, which names no digests.
    pub json_path: Option<&'static str>,
    /// The committed text report.
    pub text_path: &'static str,
    /// Run the entry: the CI-sized configuration when `smoke` is set,
    /// the committed one otherwise. A text-only entry has one size and
    /// ignores `smoke`.
    pub run: fn(smoke: bool) -> Output,
}

/// What one run produced.
#[derive(Debug)]
pub struct Output {
    /// The human-readable report (the committed text file on a full
    /// run).
    pub text: String,
    /// The committed JSON; `None` on a smoke run, whose results are not
    /// committed, and for a text-only entry.
    pub json: Option<String>,
    /// Named replay digests, each gated against the JSON field of the
    /// same name. On a full run these are the JSON's trailing digest
    /// fields, in order.
    pub digests: Vec<(&'static str, u64)>,
}

/// A text-only entry: its name is the stem of its `results/` file,
/// and it renders the same report with or without `smoke`.
macro_rules! report {
    ($name:literal, $render:expr) => {
        Artifact {
            name: $name,
            json_path: None,
            text_path: concat!("results/", $name, ".txt"),
            run: |_| Output {
                text: $render,
                json: None,
                digests: Vec::new(),
            },
        }
    };
}

/// A digest-gated study: `BENCH_<name>.json` and `results/<stem>.txt`.
macro_rules! study {
    ($name:literal, $stem:literal, $run:path) => {
        Artifact {
            name: $name,
            json_path: Some(concat!("BENCH_", $name, ".json")),
            text_path: concat!("results/", $stem, ".txt"),
            run: $run,
        }
    };
}

/// Every committed report, in the order `scripts/regen_results.sh`
/// regenerates them: the paper's figures and text anchors, the
/// virtual-time decompositions, then the digest-gated studies.
pub const ARTIFACTS: &[Artifact] = &[
    report!("fig3", pingpong::fig3_report()),
    report!("fig4", nx_pingpong::fig4_report()),
    report!("fig5", vrpc_bench::fig5_report()),
    report!("fig7", socket_bench::fig7_report()),
    report!("fig8", rpc_compare::fig8_report()),
    report!("ttcp", socket_bench::ttcp_report()),
    report!("ablations", ablations::report()),
    report!("scale", scale::report()),
    report!("fig5_breakdown", simprof::decomposition("fig5")),
    report!("srpc_decomposition", simprof::decomposition("srpc")),
    report!("rmc_decomposition", simprof::decomposition("rmc")),
    study!("svc", "svc_curve", svcbench::artifact),
    study!("svcsoak", "svc_soak", svcsoak::artifact),
    study!("rmc", "rmc_curve", rmcbench::artifact),
    study!("topo", "topo_curve", topobench::artifact),
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// Builder for the committed JSON layout every study shares: a comment
/// array, a config object, the study's own sections, then the digest
/// fields.
#[derive(Debug)]
pub struct Json(String);

impl Json {
    /// Open the document with its comment lines and the body of its
    /// `config` object.
    pub fn new(comment: &[&str], config: &str) -> Json {
        let mut out = String::from("{\n  \"comment\": [\n");
        for (i, line) in comment.iter().enumerate() {
            let sep = if i + 1 == comment.len() { "" } else { "," };
            out.push_str(&format!("    \"{line}\"{sep}\n"));
        }
        out.push_str(&format!("  ],\n  \"config\": {{{config}}},\n"));
        Json(out)
    }

    /// Add `"name": {body}`.
    pub fn object(&mut self, name: &str, body: &str) {
        self.0.push_str(&format!("  \"{name}\": {{{body}}},\n"));
    }

    /// Add `"name": [...]` with one `{row}` object per line.
    pub fn array(&mut self, name: &str, rows: &[String]) {
        self.0.push_str(&format!("  \"{name}\": [\n"));
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            self.0.push_str(&format!("    {{{row}}}{sep}\n"));
        }
        self.0.push_str("  ],\n");
    }

    /// Close the document with one `"field": "<16 hex>"` line per
    /// digest.
    pub fn finish(mut self, digests: &[(&str, u64)]) -> String {
        for (i, (field, d)) in digests.iter().enumerate() {
            let sep = if i + 1 == digests.len() { "" } else { "," };
            self.0
                .push_str(&format!("  \"{field}\": \"{d:016x}\"{sep}\n"));
        }
        self.0.push_str("}\n");
        self.0
    }
}

/// Extract a `"<field>": "<16 hex>"` digest from a committed JSON.
pub fn committed_digest(json: &str, field: &str) -> Option<u64> {
    let at = json.find(&format!("\"{field}\""))?;
    let tail = &json[at..];
    let q1 = tail.find(": \"")? + 3;
    let hex = tail.get(q1..q1 + 16)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Compare a run with the committed files (`committed_json` is `None`
/// for a text-only entry): every digest the run produced against the
/// JSON field of the same name, and the text and the JSON byte for byte
/// whenever the run is the committed one. A smoke run of a digest-gated
/// study is not; a text-only entry has one size, so its text is always
/// compared. Returns one `(description, passed)` line per comparison.
pub fn check(
    out: &Output,
    committed_json: Option<&str>,
    committed_text: &str,
) -> Vec<(String, bool)> {
    let mut lines: Vec<(String, bool)> = out
        .digests
        .iter()
        .map(|&(field, got)| {
            let want = committed_json.and_then(|json| committed_digest(json, field));
            let shown = want.map_or("<missing>".to_string(), |d| format!("{d:016x}"));
            (
                format!("{field} {got:016x} vs committed {shown}"),
                want == Some(got),
            )
        })
        .collect();
    if out.json.is_some() || committed_json.is_none() {
        lines.push((
            "text report byte-identical".into(),
            out.text == committed_text,
        ));
    }
    if let Some(json) = &out.json {
        lines.push((
            "JSON byte-identical".into(),
            Some(json.as_str()) == committed_json,
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Output, String) {
        let digests = vec![("a_digest", 0x0123_4567_89ab_cdef), ("b_digest", 42)];
        let mut json = Json::new(&["one", "two"], "\"seed\": 7");
        json.array("rows", &["\"x\": 1".into(), "\"x\": 2".into()]);
        json.object("cell", "\"y\": 3");
        let json = json.finish(&digests);
        let out = Output {
            text: "report\n".into(),
            json: Some(json.clone()),
            digests,
        };
        (out, json)
    }

    #[test]
    fn json_layout_round_trips_its_digests() {
        let (_, json) = sample();
        assert_eq!(
            json,
            "{\n  \"comment\": [\n    \"one\",\n    \"two\"\n  ],\n  \"config\": {\"seed\": 7},\n  \
             \"rows\": [\n    {\"x\": 1},\n    {\"x\": 2}\n  ],\n  \"cell\": {\"y\": 3},\n  \
             \"a_digest\": \"0123456789abcdef\",\n  \"b_digest\": \"000000000000002a\"\n}\n"
        );
        assert_eq!(
            committed_digest(&json, "a_digest"),
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(committed_digest(&json, "b_digest"), Some(42));
    }

    #[test]
    fn committed_digest_rejects_missing_short_and_non_hex_fields() {
        assert_eq!(
            committed_digest("{\"x\": \"00000000000000ff\"}", "x"),
            Some(255)
        );
        assert_eq!(committed_digest("{\"x\": \"00000000000000ff\"}", "y"), None);
        assert_eq!(committed_digest("{\"x\": \"00ff\"}", "x"), None);
        assert_eq!(committed_digest("{\"x\": \"00000000000000zz\"}", "x"), None);
    }

    #[test]
    fn check_passes_the_same_run_and_rejects_one_altered_digest() {
        let (out, json) = sample();
        assert!(check(&out, Some(&json), &out.text)
            .iter()
            .all(|(_, ok)| *ok));

        let altered = json.replace("000000000000002a", "000000000000002b");
        let verdicts = check(&out, Some(&altered), &out.text);
        let failed: Vec<&str> = verdicts
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(line, _)| line.as_str())
            .collect();
        assert_eq!(failed.len(), 2, "{verdicts:?}");
        assert!(failed[0].starts_with("b_digest"));
        assert_eq!(failed[1], "JSON byte-identical");

        // A smoke run has no committed counterpart to byte-compare, so
        // its digests alone decide.
        let smoke = Output { json: None, ..out };
        let verdicts = check(&smoke, Some(&altered), "another report");
        assert_eq!(verdicts.len(), 2);
        assert!(!verdicts[1].1);
    }

    /// A path under the repository root, where the committed files live.
    fn repo_file(rel: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel)
    }

    #[test]
    fn every_committed_report_has_exactly_one_entry() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len(), "names must be unique");

        // Every results/*.txt, and every BENCH_*.json but the
        // host-measured BENCH_simperf.json, is declared exactly once.
        let files = |dir: &str| {
            std::fs::read_dir(repo_file(dir))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
        };
        let mut committed: Vec<String> = files("results")
            .filter(|f| f.ends_with(".txt"))
            .map(|f| format!("results/{f}"))
            .chain(files("").filter(|f| {
                f.starts_with("BENCH_") && f.ends_with(".json") && f != "BENCH_simperf.json"
            }))
            .collect();
        let mut declared: Vec<&str> = ARTIFACTS
            .iter()
            .flat_map(|a| std::iter::once(a.text_path).chain(a.json_path))
            .collect();
        committed.sort_unstable();
        declared.sort_unstable();
        assert_eq!(declared, committed);
    }

    #[test]
    fn text_only_check_fails_on_altered_text_with_or_without_smoke() {
        // A text-only entry has one size, so its smoke run is the
        // committed run and its check is never vacuous.
        let art = find("rmc_decomposition").expect("listed");
        assert_eq!(art.json_path, None);
        let text = std::fs::read_to_string(repo_file(art.text_path)).unwrap();
        let altered = text.replacen("fetch", "fetcH", 1);
        for smoke in [false, true] {
            let out = (art.run)(smoke);
            assert!(out.digests.is_empty() && out.json.is_none());
            let ok = check(&out, None, &text);
            assert!(!ok.is_empty() && ok.iter().all(|(_, ok)| *ok), "{ok:?}");
            let bad = check(&out, None, &altered);
            assert!(bad.iter().any(|(_, ok)| !ok), "smoke={smoke}: {bad:?}");
        }
    }
}
