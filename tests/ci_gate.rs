//! The Makefile alone defines the CI gate: every `.github/workflows/ci.yml`
//! step after checkout, toolchain and cache is `make <target>`, and
//! `make ci` runs exactly those targets, in the same order.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The prerequisites of the Makefile's one-line `ci:` rule.
fn ci_prerequisites(makefile: &str) -> Vec<String> {
    let rule = makefile
        .lines()
        .find_map(|l| l.strip_prefix("ci:"))
        .expect("the Makefile has a `ci:` rule");
    rule.split_whitespace().map(String::from).collect()
}

/// The target of each `- run:` step of the workflow, in file order (both
/// jobs). A step that is not `make <target>` would escape the gate.
fn workflow_make_steps(workflow: &str) -> Vec<String> {
    workflow
        .lines()
        .filter_map(|l| l.trim().strip_prefix("- run: "))
        .map(|cmd| match cmd.strip_prefix("make ") {
            Some(target) => target.trim().to_string(),
            None => panic!("ci.yml step outside the Makefile: {cmd}"),
        })
        .collect()
}

#[test]
fn make_ci_runs_exactly_the_workflow_steps_in_order() {
    let make = ci_prerequisites(&read("Makefile"));
    let workflow = workflow_make_steps(&read(".github/workflows/ci.yml"));
    assert!(!make.is_empty(), "`ci:` has no prerequisites");
    assert_eq!(make, workflow, "`make ci` and ci.yml disagree");
}
