//! Reading the program's span forest: lookups, per-name sums, and the
//! per-layer self-time table with an explicit `unaccounted` row under
//! every parent.
//!
//! Span paths are per thread, so work on `desalign-parallel` workers roots
//! its own subtree (the gap docs/OBSERVABILITY.md documents). Those roots
//! are left where they are: the table shows them as separate roots.

use crate::LayerRow;
use desalign_telemetry::SpanNode;

/// The node at the full `/`-joined `path`.
pub fn find<'a>(roots: &'a [SpanNode], path: &str) -> Option<&'a SpanNode> {
    let mut level = roots;
    let mut found = None;
    for segment in path.split('/') {
        let node = level.iter().find(|n| n.name == segment)?;
        found = Some(node);
        level = &node.children;
    }
    found
}

/// Total seconds of the node at `path` (0 when absent).
pub fn total_s(roots: &[SpanNode], path: &str) -> f64 {
    find(roots, path).map_or(0.0, |n| n.total_ns as f64 / 1e9)
}

/// Total seconds of every node named one of `names`, wherever it sits;
/// a match's descendants are not counted again.
pub fn total_named_s(roots: &[SpanNode], names: &[&str]) -> f64 {
    fn walk(nodes: &[SpanNode], names: &[&str]) -> u64 {
        nodes.iter().map(|n| if names.contains(&n.name.as_str()) { n.total_ns } else { walk(&n.children, names) }).sum()
    }
    walk(roots, names) as f64 / 1e9
}

/// Seconds of `node` its children do not cover. Children on one thread
/// nest inside their parent, so this is ≥ 0 up to clock resolution.
pub fn self_s(node: &SpanNode) -> f64 {
    let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
    (node.total_ns as f64 - children as f64) / 1e9
}

/// Flattens the forest depth-first into table rows. Every node with
/// children is followed by an explicit `<path>/unaccounted` row holding its
/// self time.
pub fn layer_rows(roots: &[SpanNode]) -> Vec<LayerRow> {
    fn walk(node: &SpanNode, out: &mut Vec<LayerRow>) {
        let own = self_s(node);
        out.push(LayerRow {
            path: node.path.clone(),
            calls: node.calls,
            total_s: node.total_ns as f64 / 1e9,
            self_s: own,
        });
        for child in &node.children {
            walk(child, out);
        }
        // A parent still open when the forest was read (0 calls) has no
        // duration of its own to account against.
        if !node.children.is_empty() && node.calls > 0 {
            out.push(LayerRow { path: format!("{}/unaccounted", node.path), calls: 0, total_s: own, self_s: own });
        }
    }
    let mut out = Vec::new();
    for root in roots {
        walk(root, &mut out);
    }
    out
}

/// Renders rows as an indented table: calls, total, self, and the share of
/// the parent's total.
pub fn render(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<72} {:>9} {:>12} {:>12} {:>8}\n",
        "span (self = total - children)", "calls", "total_s", "self_s", "%parent"
    );
    for row in rows {
        let depth = row.path.matches('/').count();
        let name = row.path.rsplit('/').next().unwrap_or(&row.path);
        let parent = row.path.rsplit_once('/').map(|(p, _)| p);
        let parent_total = parent.and_then(|p| rows.iter().find(|r| r.path == p)).map(|r| r.total_s);
        let share = match parent_total {
            Some(t) if t > 0.0 => format!("{:.1}", 100.0 * row.total_s / t),
            _ => "-".into(),
        };
        let label = format!("{}{}", "  ".repeat(depth), name);
        out.push_str(&format!("{label:<72} {:>9} {:>12.6} {:>12.6} {share:>8}\n", row.calls, row.total_s, row.self_s));
    }
    out
}
