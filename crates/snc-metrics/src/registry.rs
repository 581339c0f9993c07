//! Named metric families and Prometheus-style text exposition.
//!
//! A [`Registry`] owns metric *families* (one name + help + kind each);
//! a family owns *series* (one label set each) backed by a shared
//! [`Counter`], [`Gauge`], or [`Histogram`] handle. Registration is
//! get-or-create: asking for the same `(name, labels)` returns the same
//! `Arc` handle, so callers can register lazily on the hot path and hit
//! only a short mutex-guarded scan after the first request.
//!
//! [`Registry::render`] emits the text exposition format: `# HELP` and
//! `# TYPE` lines precede every family's samples, label values are
//! escaped (`\\`, `\"`, `\n`), families appear in registration order,
//! and histogram series render cumulative `_bucket{le=…}` lines (at
//! power-of-two boundaries), `_sum`, and `_count`.

use crate::histogram::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotone counter (atomic `u64`, relaxed ordering).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value — for mirroring an *external* monotone
    /// tally (e.g. a cache's lifetime hit count) at scrape time.
    /// Monotonicity is inherited from the source; don't mix with
    /// [`Counter::inc`] on the same counter.
    pub fn set_total(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }
}

/// An instantaneous gauge (atomic `i64`, relaxed ordering).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the value (scrape-time sync from an external source).
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The metric kinds a family can hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One series' backing storage.
enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    source: Source,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A collection of metric families, rendered as text exposition.
///
/// All registration methods are get-or-create and panic on misuse
/// (invalid names, or re-registering a name as a different kind) —
/// metric registration is program structure, not input.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name grammar.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the label-name grammar (no colons).
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a HELP text: `\` → `\\`, newline → `\n`.
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `{k="v",…}` (empty string for no labels); `extra` appends a
/// pre-escaped pair (the histogram's `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// The `le` boundaries rendered for histogram series: every power of
/// two from 1 µs up to 2²⁶ µs (≈ 67 s), then `+Inf`. A fixed list keeps
/// bucket series stable across scrapes (cumulative counts can only
/// grow), which the conformance suite pins. Boundaries are *exclusive*
/// upper bounds here (`value < le`): the underlying buckets are
/// half-open power-of-two ranges.
const LE_BOUNDARIES: [u64; 27] = {
    let mut b = [0u64; 27];
    let mut i = 0;
    while i < 27 {
        b[i] = 1 << i;
        i += 1;
    }
    b
};

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Source,
    ) -> Source {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
        }
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind,
                    kind,
                    "metric {name} registered as {} and {}",
                    family.kind.type_name(),
                    kind.type_name()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        }) {
            return clone_source(&series.source);
        }
        let source = make();
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            source: clone_source(&source),
        });
        source
    }

    /// Gets or creates a counter series.
    ///
    /// # Panics
    ///
    /// On an invalid metric/label name, or if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_create(name, help, Kind::Counter, labels, || {
            Source::Counter(Arc::new(Counter::new()))
        }) {
            Source::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates a gauge series (panics as [`Registry::counter`]).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_create(name, help, Kind::Gauge, labels, || {
            Source::Gauge(Arc::new(Gauge::new()))
        }) {
            Source::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates a histogram series (panics as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_create(name, help, Kind::Histogram, labels, || {
            Source::Histogram(Arc::new(Histogram::new()))
        }) {
            Source::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders the full text exposition: families in registration
    /// order, `# HELP` then `# TYPE` then samples for each.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for family in families.iter() {
            out.push_str(&format!(
                "# HELP {} {}\n",
                family.name,
                escape_help(&family.help)
            ));
            out.push_str(&format!(
                "# TYPE {} {}\n",
                family.name,
                family.kind.type_name()
            ));
            for series in &family.series {
                match &series.source {
                    Source::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            c.get()
                        ));
                    }
                    Source::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            g.get()
                        ));
                    }
                    Source::Histogram(h) => {
                        let snap = h.snapshot();
                        for le in LE_BOUNDARIES {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                family.name,
                                render_labels(&series.labels, Some(("le", &le.to_string()))),
                                snap.cumulative_below(le)
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            render_labels(&series.labels, Some(("le", "+Inf"))),
                            snap.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            snap.sum()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            snap.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

fn clone_source(source: &Source) -> Source {
    match source {
        Source::Counter(c) => Source::Counter(Arc::clone(c)),
        Source::Gauge(g) => Source::Gauge(Arc::clone(g)),
        Source::Histogram(h) => Source::Histogram(Arc::clone(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("snc_test_total", "help", &[("route", "solve")]);
        let b = r.counter("snc_test_total", "help", &[("route", "solve")]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.counter("snc_test_total", "help", &[("route", "jobs")]);
        assert!(!Arc::ptr_eq(&a, &c), "distinct label sets, distinct series");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("snc_test_total", "help", &[]);
        let _ = r.gauge("snc_test_total", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let _ = Registry::new().counter("0bad-name", "help", &[]);
    }

    #[test]
    fn render_is_ordered_and_escaped() {
        let r = Registry::new();
        r.counter("snc_a_total", "first\nfamily", &[("p", "a\\b\"c\nd")])
            .inc();
        r.gauge("snc_b_depth", "second", &[]).set(-2);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP snc_a_total first\\nfamily");
        assert_eq!(lines[1], "# TYPE snc_a_total counter");
        assert_eq!(lines[2], "snc_a_total{p=\"a\\\\b\\\"c\\nd\"} 1");
        assert_eq!(lines[3], "# HELP snc_b_depth second");
        assert_eq!(lines[4], "# TYPE snc_b_depth gauge");
        assert_eq!(lines[5], "snc_b_depth -2");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_consistent() {
        let r = Registry::new();
        let h = r.histogram("snc_lat_us", "latency", &[("route", "solve")]);
        for v in [3u64, 10, 100, 5000] {
            h.record(v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE snc_lat_us histogram"));
        assert!(text.contains("snc_lat_us_bucket{route=\"solve\",le=\"4\"} 1"));
        assert!(text.contains("snc_lat_us_bucket{route=\"solve\",le=\"16\"} 2"));
        assert!(text.contains("snc_lat_us_bucket{route=\"solve\",le=\"128\"} 3"));
        assert!(text.contains("snc_lat_us_bucket{route=\"solve\",le=\"+Inf\"} 4"));
        assert!(text.contains("snc_lat_us_sum{route=\"solve\"} 5113"));
        assert!(text.contains("snc_lat_us_count{route=\"solve\"} 4"));
        // Bucket counts are non-decreasing in le.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("snc_lat_us_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }
}
