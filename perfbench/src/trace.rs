//! In-memory spans recorded by the traced run around the benchmark's own
//! calls into each layer (name, start, end, parent), written out as a
//! per-name summary when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Duration of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Writes the span summary: count and total time per name, with the
    /// name of the span that caused it.
    pub fn print_summary(&self) {
        let mut by_name: BTreeMap<(&str, &str), (usize, f64)> = BTreeMap::new();
        for span in &self.spans {
            let parent = span.parent.map_or("-", |p| self.spans[p].name);
            let entry = by_name.entry((span.name, parent)).or_default();
            entry.0 += 1;
            entry.1 += span.seconds();
        }
        println!("spans: {} recorded", self.spans.len());
        for ((name, parent), (count, total)) in by_name {
            println!("span {name} (in {parent}): count {count} total_s {total:.6}");
        }
    }
}
