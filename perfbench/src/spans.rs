//! In-memory spans recorded around calls into the program's layers, one
//! per call, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `SchedulingBackend::submit`.
    Submit,
    /// `SchedulingBackend::next_event_time`.
    Poll,
    /// `SchedulingBackend::advance_to`, one event.
    Advance,
    /// `SchedulingBackend::drain_completions`.
    Drain,
    /// `SplitPolicy::split`, inside a hybrid advance.
    Split,
    /// `ocs_daemon::parse_line`.
    Parse,
    /// `Daemon::submit`.
    ServiceSubmit,
    /// `Daemon::advance_to` once per batch, and the final `Daemon::drain`.
    ServiceAdvance,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Submit => "engine.submit",
            Layer::Poll => "engine.poll",
            Layer::Advance => "engine.advance",
            Layer::Drain => "engine.drain",
            Layer::Split => "split",
            Layer::Parse => "jsonl.parse",
            Layer::ServiceSubmit => "service.submit",
            Layer::ServiceAdvance => "service.advance",
        }
    }
}

/// One timed call: nanoseconds since the recorder's base instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span log of one traced pass.
pub struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(base: Instant) -> Spans {
        Spans {
            base,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |at: Instant| at.duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start: ns(start),
            end: ns(end),
        });
        out
    }

    /// Add spans recorded elsewhere against the same base instant.
    pub fn extend(&mut self, more: impl IntoIterator<Item = Span>) {
        self.spans.extend(more);
    }

    /// Every span of `layer`.
    pub fn of(&self, layer: Layer) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// Total seconds spent in `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.of(layer).map(Span::ns).sum::<u64>() as f64 / 1e9
    }

    /// Durations of `layer`'s spans in nanoseconds, ascending.
    pub fn sorted_ns(&self, layer: Layer) -> Vec<f64> {
        let mut v: Vec<f64> = self.of(layer).map(|s| s.ns() as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The spans in start order, each with the index of the innermost
    /// span enclosing it (its parent), if any.
    fn with_parents(&self) -> Vec<(Span, Option<usize>)> {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        let mut out: Vec<(Span, Option<usize>)> = Vec::with_capacity(sorted.len());
        let mut open: Vec<usize> = Vec::new();
        for s in sorted {
            while let Some(&p) = open.last() {
                if out[p].0.end >= s.end {
                    break;
                }
                open.pop();
            }
            out.push((s, open.last().copied()));
            open.push(out.len() - 1);
        }
        out
    }

    /// Write every span as a tab-separated line: index, parent index (or
    /// `-`), layer, start and end in nanoseconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\tlayer\tstart_ns\tend_ns")?;
        for (i, (s, parent)) in self.with_parents().iter().enumerate() {
            let parent = parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span { layer, start, end }
    }

    #[test]
    fn parents_are_innermost_enclosing_spans() {
        let mut s = Spans::new(Instant::now());
        s.extend([
            span(Layer::Advance, 0, 100),
            span(Layer::Split, 10, 20),
            span(Layer::Split, 30, 50),
            span(Layer::Submit, 200, 210),
        ]);
        let p = s.with_parents();
        assert_eq!(p[0].1, None);
        assert_eq!(p[1].1, Some(0));
        assert_eq!(p[2].1, Some(0));
        assert_eq!(p[3].1, None);
        assert!((s.seconds(Layer::Advance) - 100e-9).abs() < 1e-15);
    }
}
