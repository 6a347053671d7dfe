//! Smoke runs of every workload, checked against `BENCHMARK.json`, and
//! the crash oracle's negative test.

use libpax::PaxPool;
use paxbench::kv::{self, KvSpec};
use paxbench::report::{self, Metric};
use paxbench::run::RunResult;
use paxbench::store::{check, fill_blob, Plain, Rec, RecordStore, Shadow};

const SECONDS: f64 = 0.3;

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (the file keeps `"name"` before `"unit"`).
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item[..item.find('"').unwrap()].to_string();
            let unit_at = item.find("\"unit\": \"").expect("each metric has a unit") + 9;
            let unit = item[unit_at..unit_at + item[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

fn assert_clean(r: &RunResult) {
    assert!(r.ops > 0, "{}: no operations ran", r.workload);
    assert_eq!(r.failed, 0, "{}: failed operations", r.workload);
    assert_eq!(r.lost_committed_records, 0, "{}: oracle mismatches", r.workload);
    assert!(r.recover_ms.len() >= kv::MIN_RECOVERIES, "{}: too few crashes", r.workload);
}

fn smoke(run: impl Fn(bool) -> RunResult) {
    let plain = run(false);
    assert_clean(&plain);
    let e2e = report::end_to_end(&plain);
    assert_eq!(names(&e2e), listed("end_to_end"), "{}", plain.workload);
    for m in &e2e {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{}: {} = {}",
            plain.workload,
            m.name,
            m.value
        );
    }
    let traced = run(true);
    assert_clean(&traced);
    let layers = report::per_layer(&traced);
    assert_eq!(names(&layers), listed("per_layer"), "{}", traced.workload);
    assert!(layers.iter().all(|m| m.value.is_finite()));
    let line = report::result_line(true, 1, 0, &e2e);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
}

#[test]
fn kv_update_smoke() {
    smoke(|traced| kv::run(KvSpec::kv_update().small(3000), 7, SECONDS, traced).unwrap());
}

#[test]
fn kv_churn_smoke() {
    smoke(|traced| kv::run(KvSpec::kv_churn().small(2000), 7, SECONDS, traced).unwrap());
}

#[test]
fn stale_shadow_fails_the_oracle() {
    let config = KvSpec::kv_churn().config();
    let pool = PaxPool::create(config).unwrap();
    let store = RecordStore::<Plain>::attach(pool.vpm()).unwrap();
    let mut shadow = Shadow::new(100);
    let mut buf = [0u8; 16];
    let mut write = |shadow: &mut Shadow, key: u64| {
        let rec = shadow.write(key, buf.len());
        fill_blob(key, rec.version, &mut buf);
        store.put(key, &buf).unwrap();
    };
    for key in 0..50 {
        write(&mut shadow, key);
    }
    pool.persist().unwrap();
    shadow.commit(store.alloc().live_frames());
    // Changes after the persist that the crash must undo.
    write(&mut shadow, 0);
    write(&mut shadow, 60);
    store.remove(1).unwrap();
    shadow.remove(1);

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config).unwrap();
    let store = RecordStore::<Plain>::attach(pool.vpm()).unwrap();
    shadow.rollback();
    assert_eq!(check(&store, &shadow).unwrap().mismatches, 0);

    // A committed record at the wrong version.
    let mut stale = shadow.clone();
    stale.set(3, Some(Rec { version: 999, len: 16 }));
    assert_eq!(check(&store, &stale).unwrap().mismatches, 1);
    // A post-persist insert the shadow forgot to roll back.
    let mut stale = shadow.clone();
    stale.set(60, Some(Rec { version: 52, len: 16 }));
    assert_eq!(check(&store, &stale).unwrap().mismatches, 1);
    // The allocator's live frames at the persist.
    let mut stale = shadow.clone();
    stale.commit(store.alloc().live_frames() + 1);
    assert_eq!(check(&store, &stale).unwrap().mismatches, 1);
}
