//! Turning measurements into the lines the benchmark prints.

use serde::Content;

use crate::spec::{per_layer, END_TO_END};

/// `(name, value)` pairs in print order.
pub type Values = Vec<(String, f64)>;

/// The value measured for `name`, if any.
pub fn lookup(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// The metrics object of the result line: every name of `wanted`, each
/// with its value and unit. A missing or non-finite value is a bug in the
/// benchmark and fails the run.
fn metrics_object(values: &Values, wanted: &[(String, &'static str)]) -> Result<Content, String> {
    let mut map = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value =
            lookup(values, name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let entry = vec![
            ("value".to_string(), Content::F64(value)),
            ("unit".to_string(), Content::Str((*unit).into())),
        ];
        map.push((name.clone(), Content::Map(entry)));
    }
    Ok(Content::Map(map))
}

/// Names and units the result line must carry for this kind of run.
pub fn wanted(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    trace: bool,
) -> Result<String, String> {
    let line = Content::Map(vec![
        ("correct".into(), Content::Bool(correct)),
        ("attempted".into(), Content::U64(attempted.max(1))),
        ("failed".into(), Content::U64(failed)),
        ("metrics".into(), metrics_object(values, &wanted(trace))?),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// Prints every metric by name with its unit, aligned for people.
pub fn print_table(values: &Values, trace: bool) {
    for (name, unit) in wanted(trace) {
        if let Some(value) = lookup(values, &name) {
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }
}

/// One-line JSON summary for people and scripts; ends with the claim,
/// which is always `null` — this benchmark measures, it does not argue.
pub fn summary_line(fields: Vec<(&str, Content)>) -> String {
    serde_json::to_string(&summary(fields)).unwrap_or_else(|_| "{\"claim\":null}".into())
}

/// The summary object itself (for files that want it pretty-printed).
pub fn summary(fields: Vec<(&str, Content)>) -> Content {
    let mut map: Vec<(String, Content)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    map.push(("claim".into(), Content::Null));
    Content::Map(map)
}

/// Reads the metric values back out of a result line.
pub fn parse_result_line(line: &str) -> Option<(bool, Values)> {
    let doc: Content = serde_json::from_str(line).ok()?;
    let map = doc.as_map()?;
    let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let correct = matches!(field("correct")?, Content::Bool(true));
    let mut values = Values::new();
    for (name, entry) in field("metrics")?.as_map()? {
        let value = entry
            .as_map()?
            .iter()
            .find(|(k, _)| k == "value")?
            .1
            .as_f64()?;
        values.push((name.clone(), value));
    }
    Some((correct, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.to_string(), 1.5 + i as f64))
            .collect();
        let line = result_line(true, 1000, 0, &values, false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\"throughput_per_s\":{\"value\":1.5,\"unit\":\"inf/s\"}"));
        assert!(!line.contains('\n'));
        let (correct, back) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(back, values);
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut values: Values = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 1.0))
            .collect();
        values[3].1 = f64::NAN;
        assert!(result_line(true, 1, 0, &values, false).is_err());
        values.remove(3);
        assert!(result_line(true, 1, 0, &values, false).is_err());
    }

    #[test]
    fn summaries_end_with_a_null_claim() {
        let line = summary_line(vec![("workload", Content::Str("w".into()))]);
        assert!(line.ends_with("\"claim\":null}"), "{line}");
    }
}
