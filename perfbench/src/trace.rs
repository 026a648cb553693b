//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out as Chrome trace-event JSON when the
//! run ends (open it at <https://ui.perfetto.dev> or `chrome://tracing`).
//!
//! Spans of one request share its request id, and every span names the
//! span that caused it (`parent`): the request, or the set-up that built
//! the session. A disabled tracer records nothing; the untraced end-to-end
//! run uses one.

use crate::json::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// The layer call, e.g. `run_encoded`.
    name: &'static str,
    /// The request (or set-up) the span belongs to.
    request: u64,
    /// The span that caused this one (`None` for a root span).
    parent: Option<&'static str>,
    /// Kernel or program (or parameter set) the span worked on.
    subject: String,
    /// Start, in seconds since the tracer was created.
    start_s: f64,
    /// Duration in seconds.
    dur_s: f64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&'static str>,
        subject: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                request,
                parent,
                subject: subject.to_string(),
                start_s: start.duration_since(self.origin).as_secs_f64(),
                dur_s: end.duration_since(start).as_secs_f64(),
            });
        }
    }

    /// Runs `f` and records it as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&'static str>,
        subject: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, subject, start, Instant::now());
        out
    }

    /// Durations (seconds) of the spans called `name`, grouped by subject in
    /// first-seen order.
    pub fn durations_by_subject(&self, name: &str) -> Vec<(String, Vec<f64>)> {
        let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match groups.iter_mut().find(|(subject, _)| *subject == s.subject) {
                Some((_, v)) => v.push(s.dur_s),
                None => groups.push((s.subject.clone(), vec![s.dur_s])),
            }
        }
        groups
    }

    /// Total duration (seconds) of the spans called `name`, per request id,
    /// in request order.
    pub fn totals_by_request(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match totals.iter_mut().find(|(r, _)| *r == s.request) {
                Some((_, t)) => *t += s.dur_s,
                None => totals.push((s.request, s.dur_s)),
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// The Chrome trace-event document: one complete (`"ph": "X"`) event per
    /// span, timestamps in microseconds, `tags` as document metadata.
    pub fn chrome_json(&self, tags: &[(String, Value)]) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("request", Value::Num(s.request as f64)),
                    ("subject", Value::str(s.subject.clone())),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::str(p)));
                }
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("cat", Value::str("perfbench")),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_s * 1e6)),
                    ("dur", Value::Num(s.dur_s * 1e6)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", Value::obj(args)),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ms")),
            ("metadata", Value::Obj(tags.to_vec())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("run_encoded", 1, Some("request"), "k", || 5), 5);
        assert!(t.durations_by_subject("run_encoded").is_empty());
    }

    #[test]
    fn spans_group_by_subject_and_request() {
        let mut t = Tracer::new(true);
        let s = Instant::now();
        let at = |ms: u64| s + Duration::from_millis(ms);
        t.record("context", 0, Some("setup"), "n1024k3", at(0), at(2));
        t.record("context", 0, Some("setup"), "n4096k5", at(2), at(7));
        t.record("context", 1, Some("setup"), "n1024k3", at(7), at(10));
        t.record(
            "run_encoded",
            7,
            Some("request"),
            "box-blur",
            at(10),
            at(19),
        );
        t.record("request", 7, None, "box-blur", at(10), at(20));
        let totals = t.totals_by_request("context");
        assert_eq!(totals.len(), 2);
        assert!((totals[0] - 0.007).abs() < 1e-9 && (totals[1] - 0.003).abs() < 1e-9);
        let by_subject = t.durations_by_subject("context");
        assert_eq!(by_subject[0].0, "n1024k3");
        assert_eq!(by_subject[0].1.len(), 2);
        let doc = t.chrome_json(&[("seed".into(), Value::Num(1.0))]);
        let parsed = crate::json::parse(&doc.to_string()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        let run = &events[3];
        assert_eq!(
            run.get("args").unwrap().get("request"),
            Some(&Value::Num(7.0))
        );
        assert_eq!(
            run.get("args")
                .unwrap()
                .get("parent")
                .and_then(Value::as_str),
            Some("request")
        );
        assert_eq!(
            run.get("dur").and_then(Value::as_f64).map(f64::round),
            Some(9000.0)
        );
    }
}
