//! Self-test: every workload once at a tiny input size, untraced and traced.

use super::*;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("key present");
        obj[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let outcome = bench(workload, Scale::Tiny, 7, 0.0, trace);
    assert!(
        outcome.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted >= SETUPS + MIN_SAMPLES);
    let printed: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .filter(|m| m.listed)
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut want = listed(if trace { "per_layer" } else { "end_to_end" });
    let mut got = printed.clone();
    want.sort();
    got.sort();
    assert_eq!(
        got,
        want,
        "{} trace={trace}: metrics differ from BENCHMARK.json",
        workload.name()
    );

    let line = report::json_line(&outcome);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for (name, unit) in &printed {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    let table = report::table(workload, &outcome);
    for m in &outcome.metrics {
        assert!(table.contains(&m.name), "{} missing from the table", m.name);
    }

    if trace {
        outcome.tracer.check_nesting().expect("well-nested spans");
        let names: Vec<&str> = outcome.tracer.spans().iter().map(|s| s.name).collect();
        for span in [
            "workload",
            "hyperion.runtime_new",
            "apps.run",
            "apps.verify",
            "probes",
            "dsm.refetch",
        ] {
            assert!(names.contains(&span), "no {span} span");
        }
        let m = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect(name)
                .value
        };
        assert_eq!(m("pm2.rpc_retries"), 0.0);
        assert_eq!(m("pm2.rpc_timeouts"), 0.0);
    } else {
        assert!(outcome.tracer.spans().is_empty());
        let kv_only = outcome.metrics.iter().filter(|m| !m.listed).count();
        assert_eq!(kv_only, if workload.is_kv() { 2 } else { 0 });
    }
}

#[test]
fn kv_zipf() {
    check(Workload::KvZipf, false);
    check(Workload::KvZipf, true);
}

#[test]
fn kv_zipf_unix() {
    check(Workload::KvZipfUnix, false);
    check(Workload::KvZipfUnix, true);
}

#[test]
fn asp_ic() {
    check(Workload::AspIc, false);
    check(Workload::AspIc, true);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let ok = args("--workload asp-ic --seed 3 --seconds 1.5 --trace 1").unwrap();
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::AspIc, 3, 1.5, true)
    );
    assert!(args("--workload nope --seed 3").is_err());
    assert!(args("--workload kv-zipf --seed x").is_err());
    assert!(args("--workload kv-zipf --seed 1 --trace 2").is_err());
    assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
    assert!(args("--workload kv-zipf --seed 1 --trace 0").is_err());
    assert!(args("--workload kv-zipf --seed").is_err());
}
