//! End-to-end check of the scaling report: a small sweep runs, the JSON it
//! would write parses, and the schema carries everything a reader of
//! `BENCH_parallel.json` needs — the baseline label (the engine at one
//! worker), the per-thread speedups, and the phase timings.

use acpp_bench::parallel::{run_scaling, BASELINE_KIND};
use acpp_bench::BenchReport;
use acpp_core::PgConfig;
use acpp_data::sal::{self, SalConfig};
use acpp_obs::Json;

#[test]
fn scaling_report_json_has_the_contract_fields() {
    let rows = 800usize;
    let table = sal::generate(SalConfig { rows, seed: 5 });
    let taxes = sal::qi_taxonomies();
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let thread_counts = [1usize, 2, 4];

    let mut bench = BenchReport::new("parallel");
    bench
        .config("rows", rows)
        .config("baseline_kind", BASELINE_KIND);
    let run = bench
        .phase("sweep", rows, || run_scaling(&table, &taxes, cfg, 9, &thread_counts))
        .expect("scaling run succeeds");
    bench.config("baseline_seconds", format!("{:.6}", run.baseline_seconds));
    for pt in &run.points {
        bench.config(&format!("speedup_t{}", pt.threads), format!("{:.2}", pt.speedup));
    }
    bench.raw_section("scaling", run.scaling_json());

    let json = Json::parse(&bench.render_json()).expect("report is valid JSON");
    let obj = json.as_object().expect("object");
    assert_eq!(obj["name"].as_str(), Some("parallel"));
    let config = obj["config"].as_object().expect("config object");
    assert_eq!(config["baseline_kind"].as_str(), Some(BASELINE_KIND));
    assert_eq!(BASELINE_KIND, "engine_t1");
    assert_eq!(config["speedup_t1"].as_str(), Some("1.00"), "t1 is its own baseline");
    assert!(config["baseline_seconds"]
        .as_str()
        .and_then(|s| s.parse::<f64>().ok())
        .is_some_and(|s| s > 0.0));
    for t in thread_counts {
        let speedup = config[&format!("speedup_t{t}")]
            .as_str()
            .and_then(|s| s.parse::<f64>().ok())
            .expect("speedup is a number");
        assert!(speedup > 0.0, "speedup_t{t} = {speedup}");
    }
    match &obj["phases"] {
        Json::Array(phases) => {
            assert!(phases
                .iter()
                .any(|p| p.as_object().and_then(|o| o["name"].as_str()) == Some("sweep")));
        }
        other => panic!("phases should be an array, got {other:?}"),
    }
    // The machine-readable per-thread array: one object per swept count
    // with numeric threads/seconds/rows_per_sec/speedup fields.
    match &obj["scaling"] {
        Json::Array(points) => {
            assert_eq!(points.len(), thread_counts.len());
            for (pt, &t) in points.iter().zip(&thread_counts) {
                let o = pt.as_object().expect("scaling point object");
                assert_eq!(o["threads"].as_number(), Some(t as f64));
                assert!(o["seconds"].as_number().is_some_and(|s| s > 0.0));
                assert!(o["rows_per_sec"].as_number().is_some_and(|r| r > 0.0));
                assert!(o["speedup"].as_number().is_some_and(|s| s > 0.0));
            }
        }
        other => panic!("scaling should be an array, got {other:?}"),
    }
}

#[test]
fn sweep_points_cover_the_requested_counts() {
    let table = sal::generate(SalConfig { rows: 600, seed: 8 });
    let taxes = sal::qi_taxonomies();
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let run = run_scaling(&table, &taxes, cfg, 3, &[1, 2, 4, 8]).unwrap();
    let swept: Vec<usize> = run.points.iter().map(|p| p.threads).collect();
    assert_eq!(swept, vec![1, 2, 4, 8]);
    assert!(run.points.iter().all(|p| p.seconds > 0.0 && p.speedup > 0.0));
}
