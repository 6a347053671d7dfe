//! Cross-mechanism equivalence: the same structure code must compute the
//! same result on every memory space, and the crash-consistency
//! mechanisms must differ exactly where the paper says they do.

use std::collections::BTreeMap;

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool, VolatileSpace};
use pax_baselines::{
    CostReport, Costed, DirectPmSpace, HybridSpace, PageFaultSpace, RedoSpace, WalSpace,
};
use pax_pm::{LineAddr, PmPool, PoolConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20)
}

fn drive<S: MemSpace>(space: S) -> Vec<(u64, u64)> {
    let m: PHashMap<u64, u64, S> = PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
    for k in 0..150u64 {
        m.insert(k, k + 1).unwrap();
    }
    for k in (0..150u64).step_by(3) {
        m.remove(k).unwrap();
    }
    let mut e = m.entries().unwrap();
    e.sort_unstable();
    e
}

#[test]
fn all_spaces_compute_identical_results() {
    let reference = drive(VolatileSpace::new(8 << 20));
    assert_eq!(drive(DirectPmSpace::new(8 << 20)), reference, "direct PM");
    assert_eq!(drive(WalSpace::create(pool_config()).unwrap()), reference, "undo WAL");
    assert_eq!(drive(RedoSpace::create(pool_config()).unwrap()), reference, "redo WAL");
    assert_eq!(
        drive(PageFaultSpace::create(pool_config()).unwrap()),
        reference,
        "page-fault tracking"
    );
    assert_eq!(drive(HybridSpace::create(pool_config()).unwrap()), reference, "hybrid");
    let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
    assert_eq!(drive(pax.vpm()), reference, "PAX vPM");
}

#[test]
fn cost_profiles_differ_as_the_paper_describes() {
    // Identical byte-level workload on each mechanism.
    let workload = |s: &dyn Fn(u64, u64)| {
        for i in 0..100u64 {
            s(i * 4096, i); // one 8 B field per page: the sparse case §1 targets
        }
    };

    let wal = WalSpace::create(pool_config()).unwrap();
    workload(&|a, v| wal.write_u64(a, v).unwrap());
    let pf = PageFaultSpace::create(pool_config()).unwrap();
    workload(&|a, v| pf.write_u64(a, v).unwrap());
    let hy = HybridSpace::create(pool_config()).unwrap();
    workload(&|a, v| hy.write_u64(a, v).unwrap());
    let direct = DirectPmSpace::new(8 << 20);
    workload(&|a, v| direct.write_u64(a, v).unwrap());

    // §2: WAL stalls per mutated line; the others don't stall per store.
    assert!(wal.costs().sfences >= 100);
    assert_eq!(direct.costs().sfences, 0);
    assert_eq!(hy.costs().sfences, 0);

    // §1: traps are the page-based mechanism's signature cost.
    assert!(pf.costs().traps > 0);
    assert_eq!(wal.costs().traps, 0);
    assert_eq!(direct.costs().traps, 0);

    // §1: page-granularity logging amplifies writes far beyond line
    // granularity.
    assert!(
        pf.costs().write_amplification() > 10.0 * hy.costs().write_amplification(),
        "page {} vs hybrid {}",
        pf.costs().write_amplification(),
        hy.costs().write_amplification()
    );
}

#[test]
fn direct_pm_exposes_torn_operations_where_pax_does_not() {
    // The motivating §2 scenario: a multi-location structure operation is
    // interrupted. Under direct PM the tear is visible after reboot;
    // under PAX the snapshot hides it.

    // -- Direct PM: write 2 of 3 fields of a "record", then crash.
    let direct = DirectPmSpace::new(1 << 20);
    direct.write_u64(0, 0xA).unwrap(); // field 1
    direct.write_u64(64, 0xB).unwrap(); // field 2 (different line)
                                        // crash before field 3
    direct.crash();
    let torn =
        (direct.read_u64(0).unwrap(), direct.read_u64(64).unwrap(), direct.read_u64(128).unwrap());
    assert_eq!(torn, (0xA, 0xB, 0), "direct PM exposes the partial operation");

    // -- PAX: same partial operation, never persisted.
    let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
    let vpm = pax.vpm();
    vpm.write_u64(0, 0xA).unwrap();
    vpm.write_u64(64, 0xB).unwrap();
    let pm = pax.crash().unwrap();
    let pax = PaxPool::open(pm, PaxConfig::default().with_pool(pool_config())).unwrap();
    let vpm = pax.vpm();
    assert_eq!(
        (vpm.read_u64(0).unwrap(), vpm.read_u64(64).unwrap(), vpm.read_u64(128).unwrap()),
        (0, 0, 0),
        "PAX rolls the torn operation back entirely"
    );
}

#[test]
fn wal_and_pax_recover_the_same_state_for_the_same_committed_work() {
    // Both mechanisms get the same committed prefix and the same
    // uncommitted suffix; both must recover to the prefix.
    let run_wal = || {
        let wal = WalSpace::create(pool_config()).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(wal.clone()).unwrap()).unwrap();
        wal.tx(|| {
            for k in 0..50 {
                m.insert(k, k).unwrap();
            }
            Ok(())
        })
        .unwrap();
        wal.begin_tx().unwrap();
        for k in 50..80 {
            m.insert(k, k).unwrap();
        }
        // no commit
        let pool = wal.crash().unwrap();
        let wal = WalSpace::open(pool).unwrap();
        let m: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(wal).unwrap()).unwrap();
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        e
    };
    let run_pax = || {
        let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pax.vpm()).unwrap()).unwrap();
        for k in 0..50 {
            m.insert(k, k).unwrap();
        }
        pax.persist().unwrap();
        for k in 50..80 {
            m.insert(k, k).unwrap();
        }
        // no persist
        let pm = pax.crash().unwrap();
        let pax = PaxPool::open(pm, PaxConfig::default().with_pool(pool_config())).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pax.vpm()).unwrap()).unwrap();
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        e
    };
    assert_eq!(run_wal(), run_pax());
}

/// A logging baseline as the golden schedule drives it: transactions
/// (WAL, redo) or epochs (page-fault, hybrid) closed every few ops.
trait Logged: MemSpace + Costed + Clone {
    fn open(pool: PmPool) -> Self;
    /// Opens the next transaction; epoch-based spaces need no call.
    fn begin(&self) {}
    fn commit(&self);
    fn crash(&self) -> PmPool;
}

impl Logged for WalSpace {
    fn open(pool: PmPool) -> Self {
        WalSpace::open(pool).unwrap()
    }
    fn begin(&self) {
        self.begin_tx().unwrap();
    }
    fn commit(&self) {
        self.commit_tx().unwrap();
    }
    fn crash(&self) -> PmPool {
        WalSpace::crash(self).unwrap()
    }
}

impl Logged for RedoSpace {
    fn open(pool: PmPool) -> Self {
        RedoSpace::open(pool).unwrap()
    }
    fn begin(&self) {
        self.begin_tx().unwrap();
    }
    fn commit(&self) {
        self.commit_tx().unwrap();
    }
    fn crash(&self) -> PmPool {
        RedoSpace::crash(self).unwrap()
    }
}

impl Logged for PageFaultSpace {
    fn open(pool: PmPool) -> Self {
        PageFaultSpace::open(pool).unwrap()
    }
    fn commit(&self) {
        self.persist().unwrap();
    }
    fn crash(&self) -> PmPool {
        PageFaultSpace::crash(self).unwrap()
    }
}

impl Logged for HybridSpace {
    fn open(pool: PmPool) -> Self {
        HybridSpace::open(pool).unwrap()
    }
    fn commit(&self) {
        self.persist().unwrap();
    }
    fn crash(&self) -> PmPool {
        HybridSpace::crash(self).unwrap()
    }
}

/// What a golden run pins: the durable image at the power cut and after
/// recovery, the committed epoch at the cut, and every cost counter.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    crash_digest: u64,
    recovered_digest: u64,
    committed_epoch: u64,
    costs: CostReport,
}

/// FNV-1a over every durable line of the pool: header, log and data.
fn digest(pm: &mut PmPool) -> u64 {
    (0..pm.layout().total_lines()).fold(0xcbf2_9ce4_8422_2325, |h, l| {
        let line = pm.read_line(LineAddr(l)).unwrap();
        line.as_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn sorted_entries<S: MemSpace>(space: S) -> Vec<(u64, u64)> {
    let m: PHashMap<u64, u64, S> = PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
    let mut e = m.entries().unwrap();
    e.sort_unstable();
    e
}

/// Runs a seeded `PHashMap` insert/remove schedule on a fresh `S`,
/// committing every `COMMIT_EVERY` ops, cuts power part-way into the
/// next batch, and reopens. The reopened map must hold exactly the
/// last committed batch's entries.
fn golden_run<S: Logged>(create: impl FnOnce(PoolConfig) -> S) -> Golden {
    const OPS: usize = 240;
    const COMMIT_EVERY: usize = 16;
    const TAIL: usize = 7;
    let space = create(PoolConfig::small().with_log_bytes(2 << 20));
    let m: PHashMap<u64, u64, S> =
        PHashMap::attach(BitmapAlloc::attach(space.clone()).unwrap()).unwrap();
    space.commit();
    let mut rng = StdRng::seed_from_u64(0x601d);
    let mut model = BTreeMap::new();
    let mut committed = model.clone();
    for i in 0..OPS + TAIL {
        if i % COMMIT_EVERY == 0 {
            space.begin();
        }
        let k = rng.gen_range(0..96u64);
        if rng.gen_bool(0.6) {
            let v = rng.gen::<u64>();
            m.insert(k, v).unwrap();
            model.insert(k, v);
        } else {
            m.remove(k).unwrap();
            model.remove(&k);
        }
        if i % COMMIT_EVERY == COMMIT_EVERY - 1 {
            space.commit();
            committed = model.clone();
        }
    }
    let costs = space.costs();
    let mut pm = space.crash();
    let committed_epoch = pm.committed_epoch().unwrap();
    let crash_digest = digest(&mut pm);
    let mut pm = S::open(pm).crash();
    let recovered_digest = digest(&mut pm);
    let reopened = S::open(pm);
    assert_eq!(sorted_entries(reopened), committed.into_iter().collect::<Vec<_>>());
    Golden { crash_digest, recovered_digest, committed_epoch, costs }
}

/// Pins each logging baseline's durable image, recovery point and costs
/// on one seeded schedule, so a change to how the baselines are built
/// cannot move any of them unnoticed. A failure prints the new value.
#[test]
fn logging_baselines_match_their_goldens() {
    let got = [
        ("wal", golden_run(|c| WalSpace::create(c).unwrap())),
        ("redo", golden_run(|c| RedoSpace::create(c).unwrap())),
        ("page_fault", golden_run(|c| PageFaultSpace::create(c).unwrap())),
        ("hybrid", golden_run(|c| HybridSpace::create(c).unwrap())),
    ];
    let golden = |crash_digest, recovered_digest, committed_epoch, c: [u64; 6]| Golden {
        crash_digest,
        recovered_digest,
        committed_epoch,
        costs: CostReport {
            pm_reads: c[0],
            pm_write_bytes: c[1],
            sfences: c[2],
            traps: c[3],
            log_bytes: c[4],
            app_write_bytes: c[5],
        },
    };
    // Costs: pm_reads, pm_write_bytes, sfences, traps, log_bytes,
    // app_write_bytes.
    let want = [
        (
            "wal",
            golden(
                2743567396699509758,
                2974868700180416789,
                96,
                [3308, 121536, 570, 0, 48384, 15632],
            ),
        ),
        (
            "redo",
            golden(
                10929371104406431370,
                10929371104406431370,
                96,
                [1407, 63424, 288, 0, 33664, 15632],
            ),
        ),
        (
            "page_fault",
            golden(
                11523117425288385099,
                2059759999661314269,
                16,
                [5106, 242112, 66, 34, 174080, 15632],
            ),
        ),
        (
            "hybrid",
            golden(
                1370006365364713391,
                14051265889598688244,
                16,
                [3236, 104064, 32, 34, 36032, 15632],
            ),
        ),
    ];
    assert_eq!(got, want, "a baseline moved; new goldens: {got:#?}");
}

/// What each logging baseline charges as PM writes is what reached the
/// media, commit record included: 40 sparse stores (one per page) in one
/// commit.
#[test]
fn charged_pm_writes_are_the_lines_that_reached_media() {
    fn probe<S: Logged>() -> (u64, u64) {
        let pool = PmPool::create(pool_config()).unwrap();
        let before = pool.media_stats().line_writes;
        let space = S::open(pool);
        space.begin();
        for i in 0..40u64 {
            space.write_u64(i * 4096, i).unwrap();
        }
        space.commit();
        let charged = space.costs().pm_write_bytes;
        (charged, (space.crash().media_stats().line_writes - before) * 64)
    }
    for (name, (charged, written)) in [
        ("wal", probe::<WalSpace>()),
        ("redo", probe::<RedoSpace>()),
        ("page_fault", probe::<PageFaultSpace>()),
        ("hybrid", probe::<HybridSpace>()),
    ] {
        assert_eq!(charged, written, "{name}: charged vs media bytes");
    }
}
