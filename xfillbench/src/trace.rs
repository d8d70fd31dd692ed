//! Spans recorded from the benchmark's own code, around each call it
//! makes into a layer's public function. Spans stay in memory until the
//! benchmark ends and are then written out as JSON lines.
//!
//! The program under test is never asked to trace itself: a disabled
//! [`Tracer`] only calls the closure, so an untraced run pays nothing.

use std::io::Write;
use std::time::Instant;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The traced run the span belongs to.
    pub run: u32,
    pub id: u32,
    /// The enclosing span; `None` for a run's root span.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    run: u32,
    /// The open span new spans nest under.
    parent: Option<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            run: 0,
            parent: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from, for code that measures an
    /// interval outside a [`Tracer::span`] call.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next run; its spans share the run id.
    pub fn begin_run(&mut self) {
        self.run += 1;
        self.parent = None;
    }

    /// Times `f` as a span named `name` under the open span. Nested
    /// calls to `span` inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let outer = self.parent.replace(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            id,
            parent: outer,
            start_ns,
            end_ns: start_ns,
        });
        let value = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.parent = outer;
        value
    }

    /// Records an interval measured elsewhere (a reader's lifetime, say)
    /// as a child of the open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                run: self.run,
                id: self.spans.len() as u32,
                parent: self.parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// The spans of the current run.
    pub fn run_spans(&self) -> impl Iterator<Item = &Span> {
        let run = self.run;
        self.spans.iter().filter(move |s| s.run == run)
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span_and_share_the_run_id() {
        let mut t = Tracer::on();
        t.begin_run();
        t.span("run", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.record("c", 1, 2));
        });
        let spans: Vec<_> = t.run_spans().cloned().collect();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["run", "a", "b", "c"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.run == 1 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin_run();
        assert_eq!(t.span("run", |t| t.span("a", |_| 7)), 7);
        assert_eq!(t.run_spans().count(), 0);
    }
}
