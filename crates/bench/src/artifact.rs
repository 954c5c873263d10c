//! The artifact harness: the four digest-gated studies (`svc`,
//! `svcsoak`, `rmc`, `topo`) behind one list and one command.
//!
//! Each study regenerates a committed text report under `results/` and
//! a committed `BENCH_<name>.json`, and names the replay digests CI
//! gates on. The `artifacts` binary runs one study and then prints,
//! writes (`--write`) or checks (`--check`) its files. This module owns
//! what the studies share: the JSON scaffolding, the digest lookup in a
//! committed file, and the comparison `--check` makes.

use crate::{rmcbench, svcbench, svcsoak, topobench};

/// One digest-gated study and the committed files it regenerates
/// (paths relative to the repository root).
#[derive(Debug)]
pub struct Artifact {
    /// The name `artifacts <name>` selects.
    pub name: &'static str,
    /// The committed JSON (`BENCH_<name>.json`).
    pub json_path: &'static str,
    /// The committed text report.
    pub text_path: &'static str,
    /// Run the study: the CI-sized configuration when `smoke` is set,
    /// the committed one otherwise.
    pub run: fn(smoke: bool) -> Output,
}

/// What one study run produced.
#[derive(Debug)]
pub struct Output {
    /// The human-readable report (the committed text file on a full
    /// run).
    pub text: String,
    /// The committed JSON; `None` on a smoke run, whose results are not
    /// committed.
    pub json: Option<String>,
    /// Named replay digests, each gated against the JSON field of the
    /// same name. On a full run these are the JSON's trailing digest
    /// fields, in order.
    pub digests: Vec<(&'static str, u64)>,
}

/// Every digest-gated study, in the order `scripts/regen_results.sh`
/// regenerates them.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "svc",
        json_path: "BENCH_svc.json",
        text_path: "results/svc_curve.txt",
        run: svcbench::artifact,
    },
    Artifact {
        name: "svcsoak",
        json_path: "BENCH_svcsoak.json",
        text_path: "results/svc_soak.txt",
        run: svcsoak::artifact,
    },
    Artifact {
        name: "rmc",
        json_path: "BENCH_rmc.json",
        text_path: "results/rmc_curve.txt",
        run: rmcbench::artifact,
    },
    Artifact {
        name: "topo",
        json_path: "BENCH_topo.json",
        text_path: "results/topo_curve.txt",
        run: topobench::artifact,
    },
];

/// The study called `name`.
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

/// Compare a run with the committed files: every digest the run
/// produced against the JSON field of the same name and, on a full
/// run, the text and the JSON byte for byte. Returns one
/// `(description, passed)` line per comparison.
pub fn check(out: &Output, committed_json: &str, committed_text: &str) -> Vec<(String, bool)> {
    let mut lines: Vec<(String, bool)> = out
        .digests
        .iter()
        .map(|&(field, got)| {
            let want = committed_digest(committed_json, field);
            let shown = want.map_or("<missing>".to_string(), |d| format!("{d:016x}"));
            (
                format!("{field} {got:016x} vs committed {shown}"),
                want == Some(got),
            )
        })
        .collect();
    if let Some(json) = &out.json {
        lines.push((
            "text report byte-identical".into(),
            out.text == committed_text,
        ));
        lines.push(("JSON byte-identical".into(), json == committed_json));
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
        assert!(check(&out, &json, &out.text).iter().all(|(_, ok)| *ok));

        let altered = json.replace("000000000000002a", "000000000000002b");
        let verdicts = check(&out, &altered, &out.text);
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
        let verdicts = check(&smoke, &altered, "another report");
        assert_eq!(verdicts.len(), 2);
        assert!(!verdicts[1].1);
    }
}
