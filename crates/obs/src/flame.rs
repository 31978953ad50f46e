//! Folded-stack flamegraph lines.
//!
//! The classic `flamegraph.pl` / inferno / speedscope input format: one
//! line per unique call stack, frames joined by `;`, followed by a space
//! and the sample count:
//!
//! ```text
//! _start;head;work 150
//! _start;head 53
//! ```
//!
//! In this workspace the "samples" are **retired instructions** attributed
//! to the call stack reconstructed from the MCDS program-flow trace (see
//! `audo_profiler::reconstruct`), so the flamegraph is exact, not
//! statistical — and byte-identical across identical runs (stacks are kept
//! in a sorted map).

use std::collections::BTreeMap;

/// An accumulating set of folded call stacks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedStacks {
    counts: BTreeMap<String, u64>,
}

impl FoldedStacks {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> FoldedStacks {
        FoldedStacks::default()
    }

    /// Adds `n` samples to the stack given as a frame slice
    /// (outermost first).
    pub fn add(&mut self, frames: &[String], n: u64) {
        if frames.is_empty() || n == 0 {
            return;
        }
        *self.counts.entry(frames.join(";")).or_insert(0) += n;
    }

    /// Adds `n` samples to an already-folded `a;b;c` line.
    pub fn add_folded(&mut self, folded: &str, n: u64) {
        if folded.is_empty() || n == 0 {
            return;
        }
        match self.counts.get_mut(folded) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(folded.to_string(), n);
            }
        }
    }

    /// Merges another set into this one, optionally nesting every stack
    /// under `root` (useful to separate experiments in one flamegraph).
    pub fn merge(&mut self, other: &FoldedStacks, root: Option<&str>) {
        for (stack, n) in &other.counts {
            match root {
                Some(r) => self.add_folded(&format!("{r};{stack}"), *n),
                None => self.add_folded(stack, *n),
            }
        }
    }

    /// Number of distinct stacks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no stack was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total samples across all stacks.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Samples attributed to one exact folded stack.
    #[must_use]
    pub fn count(&self, folded: &str) -> u64 {
        self.counts.get(folded).copied().unwrap_or(0)
    }

    /// Iterates `(folded stack, count)` in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Renders the canonical folded-stack text (sorted, one per line).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (stack, n) in &self.counts {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_fold_and_accumulate() {
        let mut f = FoldedStacks::new();
        f.add(&["main".into(), "work".into()], 3);
        f.add(&["main".into(), "work".into()], 2);
        f.add(&["main".into()], 1);
        assert_eq!(f.count("main;work"), 5);
        assert_eq!(f.count("main"), 1);
        assert_eq!(f.total(), 6);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let mut f = FoldedStacks::new();
        f.add_folded("z;tail", 1);
        f.add_folded("a;head", 2);
        assert_eq!(f.render(), "a;head 2\nz;tail 1\n");
        let g = f.clone();
        assert_eq!(f.render(), g.render());
    }

    #[test]
    fn merge_nests_under_root() {
        let mut a = FoldedStacks::new();
        a.add_folded("main", 1);
        let mut b = FoldedStacks::new();
        b.add_folded("main;isr", 4);
        a.merge(&b, Some("E9"));
        assert_eq!(a.count("E9;main;isr"), 4);
        a.merge(&b, None);
        assert_eq!(a.count("main;isr"), 4);
    }

    #[test]
    fn empty_and_zero_adds_are_ignored() {
        let mut f = FoldedStacks::new();
        f.add(&[], 5);
        f.add(&["x".into()], 0);
        f.add_folded("", 3);
        assert!(f.is_empty());
        assert_eq!(f.render(), "");
    }
}
