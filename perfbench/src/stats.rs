//! Order statistics and the small JSON writer the reports use.

/// Value at quantile `q` (0..=1) of `xs` by the nearest-rank rule; NaN
/// when `xs` is empty. Sorts a copy.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One reported metric: the value, plus the repetitions it summarizes
/// (the value is their median when there are several).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub reps: Vec<f64>,
    /// Raw samples behind the value (requests, batches, windows).
    pub samples: usize,
}

impl Metric {
    /// A metric whose value is the median of `reps`.
    pub fn median_of(name: &'static str, unit: &'static str, reps: Vec<f64>, samples: usize) -> Metric {
        Metric { name, unit, value: median(&reps), reps, samples }
    }

    /// A metric whose value is the `q` quantile of `reps`.
    pub fn quantile_of(
        name: &'static str,
        unit: &'static str,
        reps: Vec<f64>,
        q: f64,
        samples: usize,
    ) -> Metric {
        Metric { name, unit, value: quantile(&reps, q), reps, samples }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, unit, value, reps: vec![value], samples }
    }

    /// This metric under another name, its value and repetitions
    /// multiplied by `factor`.
    pub fn scaled(&self, name: &'static str, factor: f64) -> Metric {
        Metric {
            name,
            value: self.value * factor,
            reps: self.reps.iter().map(|r| r * factor).collect(),
            ..self.clone()
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"reps\":{},\"samples\":{}}}",
            num(self.value),
            string(self.unit),
            num(median(&self.reps)),
            num(quantile(&self.reps, 0.25)),
            num(quantile(&self.reps, 0.75)),
            self.reps.len(),
            self.samples
        )
    }
}

/// A JSON number (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&xs, 0.9), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(string("a\"b\\"), "\"a\\\"b\\\\\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.25), "0.25");
    }
}
