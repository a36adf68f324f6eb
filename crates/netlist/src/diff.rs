//! Revision diffing for ECO ("engineering change order") edit loops.
//!
//! The estimator sits inside an iterative floorplanning loop: a designer
//! edits one module of a chip-sized netlist and re-asks for area. The
//! [`ModuleFingerprint`] content hash already proves which modules
//! changed between two revisions, so the incremental pipeline only needs
//! a cheap set comparison to classify every module as unchanged,
//! modified, added or removed — and then re-pay estimation cost for the
//! changed slice only.
//!
//! A [`RevisionManifest`] is the durable shadow of one revision: the
//! module names in first-seen order plus each name's fingerprint. Holding
//! a manifest (a few dozen bytes per module) instead of the modules
//! themselves keeps serve-mode sessions light. [`diff`] compares two
//! manifests and emits `netlist.diff.*` trace counters so traced runs
//! surface the classification in `perf-report`.

use std::collections::HashMap;

use maestro_trace as trace;

use crate::{Module, ModuleFingerprint};

/// The name → fingerprint shadow of one netlist revision.
///
/// Names keep first-seen order (so diffs report in input order); a
/// repeated name overwrites its fingerprint, since the manifest
/// classifies names, not input modules.
#[derive(Debug, Clone, Default)]
pub struct RevisionManifest {
    order: Vec<String>,
    fingerprints: HashMap<String, ModuleFingerprint>,
}

impl RevisionManifest {
    /// An empty manifest: diffing against it classifies every module of
    /// the other revision as added (or removed).
    pub fn new() -> Self {
        RevisionManifest::default()
    }

    /// Fingerprints every module of a revision.
    pub fn from_modules<'a>(modules: impl IntoIterator<Item = &'a Module>) -> Self {
        let mut manifest = RevisionManifest::new();
        for module in modules {
            manifest.record(module);
        }
        manifest
    }

    /// Records one module, replacing any previous fingerprint under the
    /// same name (the name keeps its original position).
    pub fn record(&mut self, module: &Module) {
        let fp = ModuleFingerprint::of(module);
        if self
            .fingerprints
            .insert(module.name().to_string(), fp)
            .is_none()
        {
            self.order.push(module.name().to_string());
        }
    }

    /// Number of distinct module names recorded.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no modules have been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The fingerprint recorded for `name`, if any.
    pub fn fingerprint(&self, name: &str) -> Option<ModuleFingerprint> {
        self.fingerprints.get(name).copied()
    }

    /// Module names in first-seen order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }
}

/// Classification of every module across two revisions.
///
/// `unchanged`, `modified` and `added` list names in the *next*
/// revision's order; `removed` lists names in the *previous* revision's
/// order (they no longer have a position in the next one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistDiff {
    /// Present in both revisions with identical fingerprints.
    pub unchanged: Vec<String>,
    /// Present in both revisions with differing fingerprints.
    pub modified: Vec<String>,
    /// Present only in the next revision.
    pub added: Vec<String>,
    /// Present only in the previous revision.
    pub removed: Vec<String>,
}

impl NetlistDiff {
    /// One-line human summary, e.g. `"95 unchanged, 1 modified, 0 added,
    /// 0 removed"`.
    pub fn summary(&self) -> String {
        format!(
            "{} unchanged, {} modified, {} added, {} removed",
            self.unchanged.len(),
            self.modified.len(),
            self.added.len(),
            self.removed.len()
        )
    }
}

/// Compares two revision manifests by fingerprint.
///
/// Emits one `netlist.diff.{unchanged,modified,added,removed}` trace
/// counter increment per classified module (no-ops when tracing is
/// disabled).
pub fn diff(prev: &RevisionManifest, next: &RevisionManifest) -> NetlistDiff {
    let mut out = NetlistDiff::default();
    for name in next.names() {
        let fp = next.fingerprint(name).expect("name listed in manifest");
        match prev.fingerprint(name) {
            Some(old) if old == fp => out.unchanged.push(name.to_string()),
            Some(_) => out.modified.push(name.to_string()),
            None => out.added.push(name.to_string()),
        }
    }
    for name in prev.names() {
        if next.fingerprint(name).is_none() {
            out.removed.push(name.to_string());
        }
    }
    trace::counter("netlist.diff.unchanged", out.unchanged.len() as u64);
    trace::counter("netlist.diff.modified", out.modified.len() as u64);
    trace::counter("netlist.diff.added", out.added.len() as u64);
    trace::counter("netlist.diff.removed", out.removed.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, library_circuits};

    fn table1() -> Vec<Module> {
        library_circuits::table1_suite()
    }

    #[test]
    fn identical_revisions_diff_clean() {
        let a = RevisionManifest::from_modules(&table1());
        let b = RevisionManifest::from_modules(&table1());
        let d = diff(&a, &b);
        assert!(d.modified.is_empty() && d.added.is_empty() && d.removed.is_empty());
        assert_eq!(d.unchanged.len(), a.len());
        // Order is the next revision's input order.
        let names: Vec<&str> = b.names().collect();
        assert_eq!(d.unchanged, names);
    }

    #[test]
    fn added_removed_and_modified_classify() {
        let mut prev_mods = table1();
        let removed_name = prev_mods.last().expect("suite nonempty").name().to_string();
        let prev = RevisionManifest::from_modules(&prev_mods);

        // Next: drop the last module, mutate the first, add a new one.
        prev_mods.pop();
        let modified_name = prev_mods[0].name().to_string();
        prev_mods[0] = generate::counter(9).renamed(&modified_name);
        let extra = generate::counter(6);
        prev_mods.push(extra.clone());
        let next = RevisionManifest::from_modules(&prev_mods);

        let d = diff(&prev, &next);
        assert_eq!(d.modified, vec![modified_name]);
        assert_eq!(d.added, vec![extra.name().to_string()]);
        assert_eq!(d.removed, vec![removed_name]);
        assert_eq!(d.unchanged.len(), table1().len() - 2);
        assert_eq!(d.summary(), "3 unchanged, 1 modified, 1 added, 1 removed");
    }

    #[test]
    fn empty_previous_marks_everything_added() {
        let next = RevisionManifest::from_modules(&table1());
        let d = diff(&RevisionManifest::new(), &next);
        assert!(d.unchanged.is_empty() && d.modified.is_empty() && d.removed.is_empty());
        assert_eq!(d.added.len(), next.len());
    }

    #[test]
    fn duplicate_names_replace_in_place() {
        let a = generate::counter(3);
        let b = generate::counter(4);
        let renamed = {
            // Rebuild `b`'s circuit under `a`'s name so the second record
            // overwrites the first.
            let mut m = RevisionManifest::new();
            m.record(&a);
            m.record(&b.clone().renamed(a.name()));
            m
        };
        assert_eq!(renamed.len(), 1);
        assert_ne!(
            renamed.fingerprint(a.name()),
            Some(ModuleFingerprint::of(&a))
        );
    }
}
