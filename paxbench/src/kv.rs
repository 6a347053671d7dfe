//! The record-store workloads: `kv_update` and `kv_churn`.
//!
//! One client runs a closed loop: it issues its next operation only after
//! the previous one returns, and calls `persist()` every
//! [`KvSpec::persist_every`] operations.

use std::time::{Duration, Instant};

use libpax::{PaxConfig, PaxPool, Result};
use pax_pm::PoolConfig;
use pax_telemetry::{MetricSnapshot, TelemetrySnapshot};
use pax_workloads::spec::OpStream;
use pax_workloads::{KeyDistribution, Op, OpMix, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{timed, Counters, RunResult, Slice, SliceClock, SLICE_S};
use crate::store::{
    blob_len, check, fill_blob, AllocProbe, Flavor, Plain, RecordStore, Shadow, Traced,
};
use crate::trace::{self, Kind};

/// Crash cycles every run makes at least, so `recover_ms` has samples to
/// choose from.
pub const MIN_RECOVERIES: usize = 9;

/// Set-ups per measured run; `setup_s` is the fastest.
pub const SETUPS: usize = 3;

/// Inserts between persists while loading (set-up only).
const LOAD_PERSIST_EVERY: u64 = 1024;

/// How a workload fills the store before measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preload {
    /// Every key in the key space.
    All,
    /// Each key with probability 1/2: the steady state of a 40/40
    /// insert/remove mix, so the window starts at its working-set size.
    Half,
}

/// One record-store workload.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    /// Workload name.
    pub name: &'static str,
    /// Key space.
    pub keys: u64,
    /// Key distribution.
    pub dist: KeyDistribution,
    /// Operation mix.
    pub mix: OpMix,
    /// Operations per `persist()`.
    pub persist_every: u64,
    /// Initial contents.
    pub preload: Preload,
    /// Crash mid-epoch every this many operations inside the window.
    pub crash_every: Option<u64>,
    /// Operations run after set-up and before the window, so the window
    /// starts with warm caches and a churned allocator.
    pub warm_up_ops: u64,
    /// vPM bytes.
    pub data_bytes: usize,
    /// Undo-log bytes.
    pub log_bytes: usize,
}

impl KvSpec {
    /// YCSB-A over 250k records (about 40 MiB: far above the 4 MiB HBM
    /// buffer and the 64 KiB host cache), Zipfian θ=0.99.
    pub fn kv_update() -> Self {
        KvSpec {
            name: "kv_update",
            keys: 250_000,
            dist: KeyDistribution::Zipfian { theta: 0.99 },
            mix: OpMix::ycsb_a(),
            persist_every: 64,
            preload: Preload::All,
            crash_every: None,
            warm_up_ops: 100_000,
            data_bytes: 64 << 20,
            // A growth rehash relinks every chain node inside one epoch.
            log_bytes: 32 << 20,
        }
    }

    /// 20% get / 40% insert / 40% remove, uniform over 40k keys (about
    /// 20k live records, 3 MiB: fits in HBM), crashing mid-epoch every
    /// 4096 operations.
    pub fn kv_churn() -> Self {
        KvSpec {
            name: "kv_churn",
            keys: 40_000,
            dist: KeyDistribution::Uniform,
            mix: OpMix::churn(),
            persist_every: 64,
            preload: Preload::Half,
            crash_every: Some(4096),
            // Allocation cost climbs with fragmentation for the first
            // ~100k operations, then levels off.
            warm_up_ops: 150_000,
            data_bytes: 16 << 20,
            log_bytes: 4 << 20,
        }
    }

    /// Scales the key space and warm-up down (smoke tests).
    pub fn small(mut self, keys: u64) -> Self {
        self.keys = keys;
        self.warm_up_ops = keys;
        self
    }

    /// The pool configuration: shipped defaults except the sizes.
    pub fn config(&self) -> PaxConfig {
        PaxConfig::default().with_pool(
            PoolConfig::small().with_data_bytes(self.data_bytes).with_log_bytes(self.log_bytes),
        )
    }

    fn describe(&self, seed: u64) -> Vec<(String, String)> {
        let c = self.config();
        let hbm = c.device.hbm.capacity_bytes;
        let cache = c.cache.capacity_bytes;
        let live_keys = match self.preload {
            Preload::All => self.keys,
            Preload::Half => self.keys / 2,
        };
        let approx_bytes = live_keys * (8 + 128 + 32);
        vec![
            ("seed".into(), seed.to_string()),
            ("clients".into(), "1 (closed loop)".into()),
            ("keys".into(), self.keys.to_string()),
            ("live_records_start".into(), live_keys.to_string()),
            ("dist".into(), format!("{:?}", self.dist)),
            ("mix".into(), format!("{:?}", self.mix)),
            ("value_bytes".into(), "8..=248, fixed per key".into()),
            ("persist_every_ops".into(), self.persist_every.to_string()),
            (
                "crash_every_ops".into(),
                self.crash_every.map_or("end only".into(), |n| n.to_string()),
            ),
            ("warm_up_ops".into(), self.warm_up_ops.to_string()),
            ("approx_data_mib".into(), format!("{:.1}", approx_bytes as f64 / (1 << 20) as f64)),
            ("data_vs_hbm".into(), format!("{:.1}x", approx_bytes as f64 / hbm as f64)),
            ("data_vs_host_cache".into(), format!("{:.0}x", approx_bytes as f64 / cache as f64)),
            ("pool_data_bytes".into(), self.data_bytes.to_string()),
            ("pool_log_bytes".into(), self.log_bytes.to_string()),
            ("cores".into(), c.cores.to_string()),
            ("tenants".into(), c.tenants.to_string()),
            ("shards".into(), c.device.shards.to_string()),
            ("allocator".into(), "BitmapAlloc (default)".into()),
            ("persistency".into(), format!("{:?}", c.device.persistency)),
            ("trace_capacity".into(), c.device.trace_capacity.to_string()),
        ]
    }
}

/// The store, the pool it lives in, and the counter snapshots the
/// current pool lifetime is measured from.
struct Live<F: Flavor> {
    pool: PaxPool,
    store: RecordStore<F>,
    pool_start: TelemetrySnapshot,
    alloc_start: MetricSnapshot,
}

impl<F: Flavor> Live<F> {
    fn new(pool: PaxPool, store: RecordStore<F>) -> Self {
        let pool_start = pool.telemetry();
        let alloc_start = store.alloc().counters();
        Live { pool, store, pool_start, alloc_start }
    }

    /// Adds the counters since the last flush to `acc`.
    fn flush(&mut self, acc: &mut Counters) {
        let now = self.pool.telemetry();
        acc.add_pool(&now, &self.pool_start);
        self.pool_start = now;
        let now = self.store.alloc().counters();
        acc.add_alloc(&now, &self.alloc_start);
        self.alloc_start = now;
    }

    fn persist(&self, shadow: &mut Shadow) -> Result<()> {
        trace::span(Kind::Persist, || self.pool.persist())?;
        shadow.commit(self.store.alloc().live_frames());
        Ok(())
    }

    /// Re-attaches the same pool under another flavor (drops this
    /// store's volatile allocator index first).
    fn switch<G: Flavor>(self, shadow: &mut Shadow) -> Result<Live<G>> {
        self.persist(shadow)?;
        let pool = self.pool.clone();
        drop(self);
        let store = RecordStore::<G>::attach(pool.vpm())?;
        Ok(Live::new(pool, store))
    }
}

/// Mutable state of the client loop.
struct Client {
    spec: KvSpec,
    seed: u64,
    stream: OpStream,
    ops: u64,
    got: Vec<u8>,
    want: Vec<u8>,
}

impl Client {
    fn new(spec: KvSpec, seed: u64) -> Self {
        let stream =
            WorkloadSpec { keys: spec.keys, ops: u64::MAX, dist: spec.dist, mix: spec.mix, seed }
                .ops();
        Client { spec, seed, stream, ops: 0, got: Vec::new(), want: Vec::new() }
    }

    /// Runs one operation; returns whether it was a read, its latency,
    /// and whether its result was right.
    fn step<F: Flavor>(
        &mut self,
        live: &Live<F>,
        shadow: &mut Shadow,
        user_bytes: &mut u64,
    ) -> Result<(bool, Duration, bool)> {
        let op = self.stream.next().expect("the op stream is unbounded");
        self.ops += 1;
        let store = &live.store;
        match op {
            Op::Get(k) => {
                let t = Instant::now();
                let present = trace::span(Kind::Op, || store.get(k, &mut self.got))?;
                let dt = t.elapsed();
                let ok = match shadow.get(k) {
                    None => !present,
                    Some(rec) => {
                        self.want.resize(rec.len as usize, 0);
                        fill_blob(k, rec.version, &mut self.want);
                        present && self.got == self.want
                    }
                };
                Ok((true, dt, ok))
            }
            Op::Insert(k, _) | Op::Update(k, _) => {
                let len = blob_len(k, self.seed);
                let rec = shadow.write(k, len);
                self.want.resize(len, 0);
                fill_blob(k, rec.version, &mut self.want);
                let t = Instant::now();
                trace::span(Kind::Op, || store.put(k, &self.want))?;
                *user_bytes += 8 + len as u64;
                Ok((false, t.elapsed(), true))
            }
            Op::Remove(k) => {
                let t = Instant::now();
                trace::span(Kind::Op, || store.remove(k))?;
                let dt = t.elapsed();
                shadow.remove(k);
                *user_bytes += 8;
                Ok((false, dt, true))
            }
        }
    }
}

fn setup<F: Flavor>(spec: KvSpec, seed: u64) -> Result<(Live<F>, Shadow)> {
    let pool = PaxPool::create(spec.config())?;
    let store = RecordStore::<F>::attach(pool.vpm())?;
    let live = Live::new(pool, store);
    let mut shadow = Shadow::new(spec.keys);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_10AD);
    let mut buf = Vec::new();
    let mut loaded = 0u64;
    for key in 0..spec.keys {
        if spec.preload == Preload::Half && !rng.gen_bool(0.5) {
            continue;
        }
        let len = blob_len(key, seed);
        let rec = shadow.write(key, len);
        buf.resize(len, 0);
        fill_blob(key, rec.version, &mut buf);
        live.store.put(key, &buf)?;
        loaded += 1;
        if loaded.is_multiple_of(LOAD_PERSIST_EVERY) {
            live.persist(&mut shadow)?;
        }
    }
    live.persist(&mut shadow)?;
    Ok((live, shadow))
}

/// Crashes mid-epoch, reopens, and checks the oracle.
fn crash_cycle<F: Flavor>(
    spec: KvSpec,
    live: Live<F>,
    shadow: &mut Shadow,
    res: &mut RunResult,
) -> Result<Live<F>> {
    let pm = live.pool.crash()?;
    drop(live);
    let t = Instant::now();
    let pool = trace::span(Kind::Open, || PaxPool::open(pm, spec.config()))?;
    let store = RecordStore::<F>::attach(pool.vpm())?;
    res.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
    res.recovery.push(pool.recovery_report()?);
    shadow.rollback();
    let v = check(&store, shadow)?;
    res.lost_committed_records += v.mismatches;
    res.oracle_checked += v.checked;
    Ok(Live::new(pool, store))
}

/// Runs the warm-up operations, persisting on the workload's cadence.
fn warm_up<F: Flavor>(client: &mut Client, live: &Live<F>, shadow: &mut Shadow) -> Result<u64> {
    let mut failed = 0;
    for _ in 0..client.spec.warm_up_ops {
        let (_, _, ok) = client.step(live, shadow, &mut 0)?;
        failed += u64::from(!ok);
        if client.ops.is_multiple_of(client.spec.persist_every) {
            live.persist(shadow)?;
        }
    }
    Ok(failed)
}

/// The closed loop for `seconds`, then crash cycles until the run has
/// made `min_recoveries`.
fn measure<F: Flavor>(
    client: &mut Client,
    mut live: Live<F>,
    shadow: &mut Shadow,
    seconds: f64,
    min_recoveries: usize,
    res: &mut RunResult,
) -> Result<Live<F>> {
    let spec = client.spec;
    let start = Instant::now();
    let mut clock = SliceClock::open(start);
    let mut slice = Slice::default();
    live.flush(&mut Counters::default());
    loop {
        let now = Instant::now();
        if let Some(busy_s) = clock.close_if_full(now) {
            res.slices.push(Slice { busy_s, ..std::mem::take(&mut slice) });
        }
        if now.duration_since(start).as_secs_f64() >= seconds {
            // The last, partial slice counts when it ran half a slice, or
            // when the window is too short to fill one.
            let busy_s = clock.busy_s(now);
            if busy_s >= SLICE_S / 2.0 || res.slices.is_empty() {
                res.slices.push(Slice { busy_s, ..slice });
            }
            break;
        }
        let (is_read, dt, ok) = client.step(&live, shadow, &mut res.user_bytes)?;
        res.failed += u64::from(!ok);
        res.ops += 1;
        slice.ops += 1;
        let series = if is_read { &mut res.read } else { &mut res.write };
        series.push_ns(dt.as_nanos() as u64);
        if client.ops.is_multiple_of(spec.persist_every) {
            let t = Instant::now();
            live.persist(shadow)?;
            res.persist.push_since(t);
        }
        // Crash half an epoch after a persist, so the crash always
        // forfeits work.
        if spec.crash_every.is_some_and(|n| client.ops % n == spec.persist_every / 2) {
            let (l, s) = timed(|| {
                live.flush(&mut res.counters);
                crash_cycle(spec, live, shadow, res)
            });
            live = l?;
            clock.pause(s);
        }
    }
    res.frag_permille = live.store.alloc().frag_permille();
    live.flush(&mut res.counters);
    while res.recover_ms.len() < min_recoveries {
        while client.ops % spec.persist_every != spec.persist_every / 2 {
            let (_, _, ok) = client.step(&live, shadow, &mut 0)?;
            res.failed += u64::from(!ok);
            if client.ops.is_multiple_of(spec.persist_every) {
                live.persist(shadow)?;
            }
        }
        live = crash_cycle(spec, live, shadow, res)?;
        // Step past the crash point so the next cycle lands in a new
        // epoch.
        let (_, _, ok) = client.step(&live, shadow, &mut 0)?;
        res.failed += u64::from(!ok);
    }
    Ok(live)
}

/// Runs a record-store workload. Untraced: [`SETUPS`] set-ups, then the
/// window. Traced: one traced set-up, an untraced half window, then the
/// store is re-attached with the traced types for the other half.
///
/// # Errors
///
/// Propagates any store error; the caller reports it as a failed run.
pub fn run(spec: KvSpec, seed: u64, seconds: f64, traced: bool) -> Result<RunResult> {
    let mut res =
        RunResult { workload: spec.name, config: spec.describe(seed), ..Default::default() };
    let mut client = Client::new(spec, seed);
    if !traced {
        let mut kept = None;
        for _ in 0..SETUPS {
            drop(kept.take());
            let (r, s) = timed(|| setup::<Plain>(spec, seed));
            kept = Some(r?);
            res.setup_s.push(s);
        }
        let (live, mut shadow) = kept.expect("at least one set-up");
        res.failed += warm_up(&mut client, &live, &mut shadow)?;
        measure(&mut client, live, &mut shadow, seconds, MIN_RECOVERIES, &mut res)?;
        return Ok(res);
    }
    trace::begin();
    let (r, s) = timed(|| setup::<Traced>(spec, seed));
    res.setup_s.push(s);
    res.setup_layers = Some(trace::finish());
    let (live, mut shadow) = r?;
    let live = live.switch::<Plain>(&mut shadow)?;
    res.failed += warm_up(&mut client, &live, &mut shadow)?;
    let mut plain = RunResult::default();
    let live = measure(&mut client, live, &mut shadow, seconds / 2.0, 0, &mut plain)?;
    res.untraced_ops_per_s = Some(plain.ops_per_s());
    res.failed += plain.failed;
    res.lost_committed_records += plain.lost_committed_records;
    trace::begin();
    let wall = Instant::now();
    let out = live.switch::<Traced>(&mut shadow).and_then(|live| {
        measure(&mut client, live, &mut shadow, seconds / 2.0, MIN_RECOVERIES, &mut res)
    });
    res.traced_s = wall.elapsed().as_secs_f64();
    res.layers = Some(trace::finish());
    out?;
    Ok(res)
}
