//! `bench compare A.json B.json`: a verdict per end-to-end metric and
//! workload between two `RESULT.json` files, A the baseline.
//!
//! `agree`: the medians differ by no more than the metric's bound.
//! `improved` / `regressed`: they differ by more, and the spread of
//! neither side's runs (distance between quartiles over the median)
//! exceeds the bound, or every run of one side is on the same side of
//! every run of the other. `unresolved`: the spread is wider than the
//! bound and the runs overlap. Facts that must repeat exactly (plan hash,
//! fingerprint) are `equal` or `differ`.

use std::process::ExitCode;

use trace::json::{self, JsonValue};

use crate::report::{MetricSpec, Spec};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles of a sample over its median; 0 for
/// fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The method of Python's statistics.quantiles(values, n=4).
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(0.75) - at(0.25)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

/// The verdict on one metric of one workload.
pub fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse than A.
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let worse = |x: f64, y: f64| {
        if metric.higher_is_better {
            x < y
        } else {
            x > y
        }
    };
    let separated =
        |bad: &[f64], good: &[f64]| bad.iter().all(|&x| good.iter().all(|&y| worse(x, y)));
    let noisy = spread(a).max(spread(b)) > bound;
    if worse_by > bound {
        if noisy && !separated(b, a) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if worse_by < -bound {
        if noisy && !separated(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    }
}

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn runs(result: &JsonValue, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let list = result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("runs")?
        .as_arr()?;
    Some(list.iter().filter_map(JsonValue::as_f64).collect())
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let spec = Spec::load();
    let (a, b) = (load(path_a), load(path_b));
    let mut bad = 0;
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (runs(&a, workload, &m.name), runs(&b, workload, &m.name))
            else {
                println!("{workload} {} missing", m.name);
                bad += 1;
                continue;
            };
            let v = verdict(m, &va, &vb);
            println!(
                "{workload} {} {} (A {} B {} {}, bound {}%)",
                m.name,
                v.name(),
                median(&va),
                median(&vb),
                m.unit,
                100.0 * m.bound.unwrap_or(0.0)
            );
            bad += usize::from(matches!(v, Verdict::Regressed | Verdict::Unresolved));
        }
        let fact = |r: &JsonValue, name: &str| -> Option<String> {
            Some(
                r.get("workloads")?
                    .get(workload)?
                    .get("facts")?
                    .get(name)?
                    .as_str()?
                    .to_string(),
            )
        };
        for name in crate::EXACT_FACTS.iter().chain(&crate::RECORDED_FACTS) {
            let (fa, fb) = (fact(&a, name), fact(&b, name));
            if fa.is_none() && fb.is_none() {
                continue;
            }
            let same = fa == fb;
            println!(
                "{workload} {name} {}",
                if same { "equal" } else { "differ" }
            );
            bad += usize::from(!same);
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} pairs do not agree");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "t".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            higher_is_better: true,
            ..lower(bound)
        }
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let m = lower(0.10);
        assert_eq!(verdict(&m, &[100.0], &[105.0]), Verdict::Agree);
        assert_eq!(verdict(&m, &[100.0], &[115.0]), Verdict::Regressed);
        assert_eq!(verdict(&m, &[100.0], &[80.0]), Verdict::Improved);
        let h = higher(0.10);
        assert_eq!(verdict(&h, &[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(verdict(&h, &[100.0], &[120.0]), Verdict::Improved);
        // Wide, overlapping runs decide nothing ...
        let noisy_a = [80.0, 100.0, 120.0, 140.0];
        let noisy_b = [90.0, 130.0, 150.0, 170.0];
        assert_eq!(verdict(&m, &noisy_a, &noisy_b), Verdict::Unresolved);
        assert_eq!(verdict(&m, &noisy_a, &noisy_a), Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let far_b = [200.0, 240.0, 280.0, 320.0];
        assert_eq!(verdict(&m, &noisy_a, &far_b), Verdict::Regressed);
        assert_eq!(verdict(&m, &far_b, &noisy_a), Verdict::Improved);
        // An exact count has bound 0: any difference is a change.
        let exact = lower(0.0);
        assert_eq!(verdict(&exact, &[7.0], &[7.0]), Verdict::Agree);
        assert_eq!(verdict(&exact, &[7.0], &[8.0]), Verdict::Regressed);
    }
}
