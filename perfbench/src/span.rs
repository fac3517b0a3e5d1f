//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls it makes into each crate. Each span keeps its name, start, end
//! and parent; self time is the span's duration minus the time its
//! children cover. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.mvm_row` or `fabric.mm_rung.s4`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        ns_to_s(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Durations of every span called `name`, in seconds, in order.
    pub fn each_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_s(s.dur_ns()))
            .collect()
    }

    /// Total duration of spans whose name starts with `prefix`, seconds.
    pub fn total_prefix_s(&self, prefix: &str) -> f64 {
        ns_to_s(
            self.spans
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Share of the span `root`'s duration covered by no child span:
    /// the root's own self time over its duration.
    pub fn unattributed_ratio(&self, root: usize) -> f64 {
        let dur = self.spans[root].dur_ns();
        if dur == 0 {
            return 0.0;
        }
        self.self_ns()[root] as f64 / dur as f64
    }

    /// Self time summed per span name, largest first.
    pub fn self_by_name(&self) -> Vec<(String, u64, usize)> {
        let own = self.self_ns();
        let mut by: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&own) {
            let e = by.entry(s.name.as_str()).or_default();
            e.0 += ns;
            e.1 += 1;
        }
        let mut rows: Vec<(String, u64, usize)> = by
            .into_iter()
            .map(|(n, (ns, count))| (n.to_string(), ns, count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// "Where did the time go": the top `limit` span names by self time
    /// with their share of the root span's wall time, plus the
    /// unattributed remainder.
    pub fn where_table(&self, title: &str, root: usize, limit: usize) -> String {
        let wall = self.spans[root].dur_ns().max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "where did the time go: {title}");
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>11} {:>7}",
            "span (self time)", "calls", "self s", "share"
        );
        let root_name = &self.spans[root].name;
        for (name, ns, count) in self
            .self_by_name()
            .into_iter()
            .filter(|(n, _, _)| n != root_name)
            .take(limit)
        {
            let _ = writeln!(
                out,
                "  {:<34} {:>6} {:>11.6} {:>6.2}%",
                name,
                count,
                ns_to_s(ns),
                ns as f64 / wall * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>11.6} {:>6.2}%",
            "(unattributed: root self time)",
            1,
            ns_to_s(self.self_ns()[root]),
            self.unattributed_ratio(root) * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>11.6} {:>6.2}%",
            "wall",
            "",
            ns_to_s(self.spans[root].dur_ns()),
            100.0
        );
        out
    }

    /// The spans as a Chrome `trace_event` document (open it in
    /// `chrome://tracing` or Perfetto). `args.parent` names the parent.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Nanoseconds to seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_names_the_remainder() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(1 + 1)));
            t.span("a", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = t.self_ns();
        let children: u64 = spans[1].dur_ns() + spans[3].dur_ns();
        assert_eq!(own[0], spans[0].dur_ns() - children);
        assert!(t.unattributed_ratio(0) <= 1.0);
        let table = t.where_table("test", 0, 5);
        assert!(table.contains("unattributed"), "{table}");
        assert!(t.to_chrome_json().contains("\"parent\":1"));
    }
}
