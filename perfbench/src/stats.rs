//! Summary statistics, metric naming and the result line.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a timing distribution: the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 * rank / n` with `rank` counted from 1.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported one (at least 10 whenever
    /// `samples > 10`).
    pub beyond: usize,
    /// Passes whose tails the value is the median of (1: one pooled set).
    pub passes: usize,
}

/// Applies the tail rule to `values`. With ten samples or fewer no
/// percentile has ten beyond it; the maximum is reported with
/// `beyond == 0` so the shortfall stays visible.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = if n > 10 { n - 10 } else { n };
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
        passes: 1,
    })
}

/// The tail of unit times grouped by pass. When every pass has more than
/// ten units the rule is applied within each pass and the median over the
/// passes is reported (`passes` > 1), so that a few slow writes to disk in
/// a long run do not become the tail; otherwise all passes are pooled.
pub fn tail_over_passes(passes: &[Vec<f64>]) -> Option<Tail> {
    if passes.len() > 1 && passes.iter().all(|p| p.len() > 10) {
        let tails: Vec<Tail> = passes.iter().filter_map(|p| tail(p)).collect();
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let first = tails[0];
        return Some(Tail {
            value: median(&values)?,
            passes: tails.len(),
            ..first
        });
    }
    tail(&passes.concat())
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and is at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list that refuses malformed names, duplicates and
/// non-finite values at insertion, so the result line is always valid.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or a non-finite value — all
    /// three are bugs in the benchmark itself.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (`{:?}` prints the
/// shortest representation that round-trips).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "JSON has no encoding for {x}");
    format!("{x:?}")
}

/// The final stdout line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.samples, 50);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 40.0);
        assert_eq!(t.percentile, 80.0);
        // Exactly ten samples lie above the reported value.
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_of_ten_or_fewer_samples_is_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.samples, t.beyond),
            (9.0, 100.0, 3, 0)
        );
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_over_passes_takes_the_median_of_per_pass_tails() {
        // Twelve units per pass: the rule picks the 2nd fastest of each.
        let pass = |offset: f64| (0..12).map(|i| offset + f64::from(i)).collect::<Vec<_>>();
        let t = tail_over_passes(&[pass(0.0), pass(10.0), pass(1000.0)]).unwrap();
        assert_eq!((t.value, t.samples, t.beyond, t.passes), (11.0, 12, 10, 3));
        // Passes too small for the rule are pooled.
        let t = tail_over_passes(&[vec![1.0; 5], vec![2.0; 5], vec![3.0; 5]]).unwrap();
        assert_eq!((t.samples, t.beyond, t.passes), (15, 10, 1));
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "llc.read.ns_per_call",
            "sim.allocs_per_record.dbi-awb-clb",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "DBI+AWB",
            "a/b",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_refuse_bad_names() {
        Metrics::default().push("DBI+AWB+CLB", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_refuse_duplicates() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
