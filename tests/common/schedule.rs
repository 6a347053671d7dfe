//! Schedules and the configuration matrix they run on.

use libpax::{PaxConfig, PersistencyModel};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, DirectoryConfig, HbmConfig};
use pax_pm::PoolConfig;
use rand::rngs::StdRng;
use rand::Rng;

/// Raw lines each tenant stores into on a matrix point.
pub const SPAN: u64 = 48;

/// One step of a crash schedule.
///
/// Tenant and core indices are taken modulo the point's tenant and core
/// counts, lines modulo the rig's span, and block indices modulo the live
/// block count, so every schedule (and every sub-schedule the shrinker
/// tries) is valid on every matrix point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `Store(tenant, core, line, value)`: a u64 store at the start of a
    /// raw line.
    Store(u8, u8, u16, u64),
    /// `Read(tenant, core, line)`: must see the newest store.
    Read(u8, u8, u16),
    /// `persist()`: a barrier under strict/epoch, a buffered close under
    /// buffered-epoch.
    Close(u8),
    /// `persist_async()`: a close whose durability is promised only once
    /// a poll or wait reports it.
    CloseAsync(u8),
    /// `persist_poll()`; a reported commit is promised durable.
    Poll(u8),
    /// `persist_wait()`: every close so far is promised durable.
    Wait(u8),
    /// `run_device(n)`: background progress on every lane.
    Tick(u64),
    /// `Alloc(tenant, len)`: a block from the tenant's allocator, filled
    /// with a pattern unique to it.
    Alloc(u8, u64),
    /// `Free(tenant, i)`: frees live block `i`; a no-op with none live.
    Free(u8, u16),
    /// Re-attaches the tenant's block allocator, rebuilding its volatile
    /// state from the persistent one.
    Attach(u8),
    /// `Put(tenant, key, value)` into the tenant's hash map and B-tree.
    Put(u8, u64, u64),
    /// `Del(tenant, key)` from both maps.
    Del(u8, u64),
    /// Power loss and recovery, checked against the oracle; the schedule
    /// goes on in a second life on the recovered pool. An armed crash
    /// counts durable-write steps across lives; one that fires before
    /// the reboot ends that life early, and the schedule resumes here.
    Reboot,
}

impl Step {
    /// The tenant the step acts on; `None` for device-wide ticks and
    /// reboots.
    pub fn tenant(self) -> Option<u8> {
        use Step::*;
        match self {
            Tick(_) | Reboot => None,
            Store(t, ..) | Read(t, ..) | Alloc(t, _) | Free(t, _) | Put(t, ..) | Del(t, _) => {
                Some(t)
            }
            Close(t) | CloseAsync(t) | Poll(t) | Wait(t) | Attach(t) => Some(t),
        }
    }

    /// Whether the step runs through a tenant's allocator arenas.
    /// Strict persistency commits every store, so a multi-store arena op
    /// has no atomic close point: those steps are skipped under strict.
    pub fn uses_arena(self) -> bool {
        matches!(
            self,
            Step::Alloc(..) | Step::Free(..) | Step::Attach(_) | Step::Put(..) | Step::Del(..)
        )
    }
}

/// The schedule as Rust source, for pinning a failure as a regression.
pub fn literal(steps: &[Step]) -> String {
    let steps: Vec<String> = steps.iter().map(|s| format!("Step::{s:?}")).collect();
    format!("&[{}]", steps.join(", "))
}

/// `steps`, then a close and a drain of every tenant: with no crash armed
/// the run settles, and recovery must restore the full history.
pub fn settle(steps: &[Step]) -> Vec<Step> {
    let mut out = steps.to_vec();
    for t in 0..TENANTS[TENANTS.len() - 1] as u8 {
        out.extend([Step::Close(t), Step::Wait(t)]);
    }
    out
}

/// A long epoch: tenant `t` stores to every span line from the three
/// cores in turn and closes without waiting, so the epoch drains for many
/// steps — long enough, on a slow-draining point, for the next epoch's
/// entries to become durable first.
fn burst(rng: &mut StdRng, t: u8) -> impl Iterator<Item = Step> + '_ {
    let stores = (0..SPAN as u16)
        .map(move |line| Step::Store(t, (line % 3) as u8, line, rng.gen_range(1..u64::MAX)));
    stores.chain([Step::CloseAsync(t)])
}

/// Two lives: a random schedule of `len` steps of `mix`, a [`burst`], a
/// [`Step::Reboot`], and a second life of up to `len / 2 + 1` more
/// random steps. After the burst a few lines of the next epoch are
/// stored, so power is cut (or an armed crash lands) while a large epoch
/// drains behind durable entries of the next one — the state in which a
/// recovery's leftovers can meet the second life's commits.
pub fn rebooted(rng: &mut StdRng, mix: Mix, len: usize) -> Vec<Step> {
    let mut steps = schedule(rng, mix, len);
    let t = rng.gen_range(0..4u8);
    steps.extend(burst(rng, t));
    for line in 0..rng.gen_range(1..8u16) {
        steps.push(Step::Store(t, 0, line, rng.gen_range(1..u64::MAX)));
    }
    steps.push(Step::Reboot);
    let more = rng.gen_range(1..len / 2 + 2);
    steps.extend(schedule(rng, mix, more));
    steps
}

/// `steps` without its device ticks.
pub fn without_ticks(steps: &[Step]) -> Vec<Step> {
    steps.iter().copied().filter(|s| !matches!(s, Step::Tick(_))).collect()
}

/// One point of the configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub shards: usize,
    pub tenants: usize,
    pub cores: usize,
    pub model: PersistencyModel,
    /// Snoop filter on (batched persist write-back), or off (every logged
    /// line snooped, one line per write-back step).
    pub dir: bool,
}

pub const SHARDS: [usize; 4] = [1, 2, 4, 8];
pub const TENANTS: [usize; 4] = [1, 2, 3, 4];
pub const CORES: [usize; 2] = [1, 3];
pub const MODELS: [PersistencyModel; 4] = [
    PersistencyModel::Strict,
    PersistencyModel::Epoch,
    PersistencyModel::buffered(2),
    PersistencyModel::buffered(4),
];

/// Every point: shards × tenants × cores × persistency × directory.
pub fn matrix() -> Vec<Point> {
    let (s, t, c, m) = (SHARDS.len(), TENANTS.len(), CORES.len(), MODELS.len());
    let point = |i: usize| Point {
        shards: SHARDS[i % s],
        tenants: TENANTS[i / s % t],
        cores: CORES[i / (s * t) % c],
        model: MODELS[i / (s * t * c) % m],
        dir: i < s * t * c * m,
    };
    (0..s * t * c * m * 2).map(point).collect()
}

/// The matrix points `keep` selects.
pub fn points(keep: impl Fn(&Point) -> bool) -> Vec<Point> {
    matrix().into_iter().filter(keep).collect()
}

/// The rigs of the matrix points `keep` selects.
pub fn rigs(keep: impl Fn(&Point) -> bool) -> Vec<super::Rig> {
    matrix().into_iter().filter(keep).map(Point::rig).collect()
}

impl Point {
    /// One shard, tenant and core under the epoch barrier, filter on.
    pub const BASE: Point =
        Point { shards: 1, tenants: 1, cores: 1, model: PersistencyModel::Epoch, dir: true };

    /// The pool this point builds: 2 MiB of vPM (each tenant window holds
    /// the raw span and three 128 KiB arenas), a log far larger than any
    /// schedule so `LogFull` never forces an implicit close, and a
    /// 16-line host cache per core so stores spill into the device.
    pub fn config(self) -> PaxConfig {
        let (directory, batch) = if self.dir {
            (DirectoryConfig::enabled(), 8)
        } else {
            (DirectoryConfig::disabled(), 1)
        };
        PaxConfig::default()
            .with_pool(PoolConfig::small().with_data_bytes(2 << 20).with_log_bytes(512 << 10))
            .with_cache(CacheConfig::tiny(1 << 10, 2))
            .with_cores(self.cores)
            .with_tenants(self.tenants)
            .with_device(
                DeviceConfig::default()
                    .with_hbm(HbmConfig::default_config().with_capacity_bytes(256 << 10))
                    .with_shards(self.shards)
                    .with_directory(directory)
                    .with_persist_wb_batch(batch),
            )
            .with_persistency(self.model)
    }

    /// The point as Rust source.
    pub fn literal(self) -> String {
        format!(
            "Point {{ shards: {}, tenants: {}, cores: {}, model: PersistencyModel::{:?}, \
             dir: {} }}",
            self.shards, self.tenants, self.cores, self.model, self.dir
        )
    }
}

/// Step mixes the random generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Raw-line stores and reads with every kind of close, poll and tick.
    Lines,
    /// Allocations and frees with closes and ticks.
    Blocks,
    /// Map puts and deletes with closes and ticks.
    Map,
}

/// One draw in this many of a [`Mix::Lines`] schedule is a [`burst`].
const BURST_ODDS: u32 = 48;

/// A random schedule of `len` draws over four tenants and three cores.
/// Each draw is one step, except that under [`Mix::Lines`] about one in
/// [`BURST_ODDS`] is a [`burst`]: with closes every few steps, a random
/// schedule would almost never hold an epoch that is still draining when
/// the next one's entries become durable.
pub fn schedule(rng: &mut StdRng, mix: Mix, len: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let t = rng.gen_range(0..4u8);
        if mix == Mix::Lines && rng.gen_range(0..BURST_ODDS) == 0 {
            steps.extend(burst(rng, t));
            continue;
        }
        let roll = rng.gen_range(0..20u32);
        steps.push(match (mix, roll) {
            (_, 0..=1) => Step::Close(t),
            (_, 2) => Step::Tick(rng.gen_range(1..4)),
            (Mix::Lines, 3..=10) => Step::Store(
                t,
                rng.gen_range(0..3),
                rng.gen_range(0..SPAN as u16),
                rng.gen_range(1..u64::MAX),
            ),
            (Mix::Lines, 11..=14) => {
                Step::Read(t, rng.gen_range(0..3), rng.gen_range(0..SPAN as u16))
            }
            (Mix::Lines, 15..=16) => Step::CloseAsync(t),
            (Mix::Lines, 17..=18) => Step::Poll(t),
            (Mix::Lines, _) => Step::Wait(t),
            (Mix::Blocks, 3..=12) => Step::Alloc(t, rng.gen_range(1..300)),
            (Mix::Blocks, 13..=18) => Step::Free(t, rng.gen_range(0..u16::MAX)),
            (Mix::Blocks, _) => Step::Attach(t),
            (Mix::Map, 3..=14) => Step::Put(t, rng.gen_range(0..64), rng.gen()),
            (Mix::Map, _) => Step::Del(t, rng.gen_range(0..64)),
        });
    }
    steps
}

/// The golden-digest schedule: `ops` stores of random values to random
/// lines of `span`, a close every 41 ops and two ticks every 23, in the
/// exact random-draw order the pinned digests were recorded with.
pub fn golden(seed: u64, ops: u64, span: u64) -> Vec<Step> {
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut steps = Vec::new();
    for i in 0..ops {
        let line = rng.gen_range(0u64..span) as u16;
        steps.push(Step::Store(0, 0, line, rng.gen()));
        if i % 41 == 40 {
            steps.push(Step::Close(0));
        }
        if i % 23 == 22 {
            steps.push(Step::Tick(2));
        }
    }
    steps
}

/// A fragmenting allocator schedule: 160 allocations of 1–8 frames, every
/// other one freed, a re-attach (exact run hints), then 120 steps of
/// 1–8-frame allocations over the holes with every third step a random
/// free, so trees go partial with short runs, placement leans on the run
/// hints, and frees that join holes must raise them.
pub fn fragmented_blocks(rng: &mut StdRng) -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 0..360u16 {
        if i == 240 {
            steps.push(Step::Attach(0));
        }
        steps.push(match i {
            // Frees walk down from the last block, so earlier indices
            // still name blocks in allocation order.
            160..240 => Step::Free(0, 159 - 2 * (i - 160)),
            240.. if i % 3 == 0 => Step::Free(0, rng.gen_range(0..u16::MAX)),
            _ => Step::Alloc(0, rng.gen_range(1..9u64) * 32),
        });
        if i % 6 == 5 {
            steps.push(Step::Close(0));
        }
    }
    steps.push(Step::Close(0));
    steps
}
