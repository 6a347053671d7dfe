//! The search modes, the shrinker, media faults and golden digests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use libpax::{MemSpace, PaxPool};
use pax_device::{recover, UndoLog, BLOCK_ENTRIES, BLOCK_LINES};
use pax_pm::{CacheLine, LineAddr, PmPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::oracle::{bug, check, drive, Crashed, Halt, Outcome, Rig, Verdict};
use super::schedule::{golden, literal, rebooted, schedule, Mix, Point, Step};

/// Shrinks a failing case to a minimal schedule and crash step, then
/// fails the test with it as a [`check_or_fail`] call to paste into a
/// regression test.
pub fn fail(rig: &Rig, steps: &[Step], crash_at: Option<u64>, msg: &Halt) -> ! {
    let (min, at) = shrink(steps, crash_at, |s, c| check(rig, s, c).is_err());
    let why = check(rig, &min, at).err().map_or_else(|| msg.to_string(), |h| h.to_string());
    panic!(
        "crash-consistency violation: {why}\n(first seen as: {msg})\nshrunk from {} to {} \
         steps; pin it with:\n    check_or_fail(&{}, {}, {at:?});",
        steps.len(),
        min.len(),
        rig.source,
        literal(&min)
    );
}

/// Checks one case, failing the test (shrunk) on a violation.
pub fn check_or_fail(rig: &Rig, steps: &[Step], crash_at: Option<u64>) -> Outcome {
    check(rig, steps, crash_at).unwrap_or_else(|msg| fail(rig, steps, crash_at, &msg))
}

/// Delta-debugging: drops chunks of steps, then moves the crash to its
/// earliest failing step (or removes it), for as long as `fails` holds.
///
/// Dropping a step shifts every later durable-write step, so a fixed
/// crash step can pin a long schedule; when one stays longer than 12
/// steps, the search runs again letting the crash land anywhere up to
/// where it was.
pub fn shrink(
    steps: &[Step],
    crash_at: Option<u64>,
    fails: impl Fn(&[Step], Option<u64>) -> bool,
) -> (Vec<Step>, Option<u64>) {
    let (cur, at) = minimize(steps.to_vec(), crash_at, &fails);
    let Some(c) = at.filter(|_| cur.len() > 12) else {
        return (cur, at);
    };
    let stride = (c / 64).max(1) as usize;
    let anywhere = |s: &[Step], _| (0..=c).step_by(stride).any(|c| fails(s, Some(c)));
    let (cur, _) = minimize(cur, None, &anywhere);
    let at = (0..=c).step_by(stride).find(|&c| fails(&cur, Some(c)));
    minimize(cur, at, &fails)
}

fn minimize(
    mut cur: Vec<Step>,
    mut at: Option<u64>,
    fails: &impl Fn(&[Step], Option<u64>) -> bool,
) -> (Vec<Step>, Option<u64>) {
    loop {
        let before = (cur.clone(), at);
        let mut chunks = 2;
        while cur.len() >= 2 {
            let size = cur.len().div_ceil(chunks);
            let cut = (0..cur.len()).step_by(size).find_map(|start| {
                let mut cand = cur.clone();
                cand.drain(start..(start + size).min(cur.len()));
                fails(&cand, at).then_some(cand)
            });
            match cut {
                Some(cand) => {
                    cur = cand;
                    chunks = (chunks - 1).max(2);
                }
                None if chunks >= cur.len() => break,
                None => chunks = (chunks * 2).min(cur.len()),
            }
        }
        if let Some(c) = at {
            at = if fails(&cur, None) {
                None
            } else {
                (0..c).find(|&c| fails(&cur, Some(c))).or(at)
            };
        }
        if (&cur, at) == (&before.0, before.1) {
            return (cur, at);
        }
    }
}

/// Checks `steps` unarmed, then armed at about `samples` evenly spaced
/// durable-write steps across the run (every step when the run is
/// shorter) and one past its end.
pub fn sweep(rig: &Rig, steps: &[Step], samples: u64) {
    let total = check_or_fail(rig, steps, None).steps_taken;
    for c in (0..total + 2).step_by((total / samples).max(1) as usize) {
        check_or_fail(rig, steps, Some(c));
    }
}

/// Bounded-exhaustive mode: every schedule of 1..=`max_len` steps over
/// `alphabet`, each on the next of `points` in turn, crashed at every
/// durable-write step.
pub fn exhaustive(points: &[Point], alphabet: &[Step], max_len: u32) {
    let n = alphabet.len();
    let schedules = (1..=max_len).flat_map(|len| (0..n.pow(len)).map(move |c| (len, c)));
    for (i, (len, code)) in schedules.enumerate() {
        let steps: Vec<Step> = (0..len).map(|d| alphabet[code / n.pow(d) % n]).collect();
        sweep(&points[i % points.len()].rig(), &steps, u64::MAX);
    }
}

/// Random mode: `cases` seeded schedules of `mix`, each on one random
/// point of `points`, checked ending in an unarmed power loss and then
/// with `crashes` random crash steps.
pub fn random(
    seed: u64,
    cases: usize,
    points: &[Point],
    mix: Mix,
    len: std::ops::Range<usize>,
    crashes: usize,
) {
    random_with(seed, cases, points, crashes, |rng| {
        let n = rng.gen_range(len.clone());
        schedule(rng, mix, n)
    });
}

/// Random mode over two lives: each schedule ([`rebooted`]) crashes and
/// recovers once mid-way and goes on on the recovered pool, so what the
/// first recovery leaves on media meets a second life's commits and a
/// second crash (unarmed at the end, or armed in either life).
pub fn random_two_lives(
    seed: u64,
    cases: usize,
    points: &[Point],
    mix: Mix,
    len: std::ops::Range<usize>,
    crashes: usize,
) {
    random_with(seed, cases, points, crashes, |rng| {
        let n = rng.gen_range(len.clone());
        rebooted(rng, mix, n)
    });
}

fn random_with(
    seed: u64,
    cases: usize,
    points: &[Point],
    crashes: usize,
    gen: impl Fn(&mut StdRng) -> Vec<Step>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        let rig = points[rng.gen_range(0..points.len())].rig();
        let steps = gen(&mut rng);
        let total = check_or_fail(&rig, &steps, None).steps_taken;
        for _ in 0..crashes {
            check_or_fail(&rig, &steps, Some(rng.gen_range(0..total + 1)));
        }
    }
}

/// Differential mode: each schedule of `variants` runs unarmed on every
/// rig, and within each tenant count every run must leave the same vPM
/// data image and read the same values. Schedules that use the arenas
/// skip strict rigs, where those steps are skipped.
pub fn differential(rigs: &[Rig], variants: &[Vec<Step>]) {
    let arena = variants.iter().flatten().any(|s| s.uses_arena());
    // The first run of each tenant count: (rig, variant, what it settled
    // to).
    let mut first: HashMap<usize, (&Rig, usize, Settled)> = HashMap::new();
    for (v, steps) in variants.iter().enumerate() {
        for rig in rigs {
            if arena && rig.config.device.persistency == libpax::PersistencyModel::Strict {
                continue;
            }
            let got = settled(rig, steps).unwrap_or_else(|msg| fail(rig, steps, None, &msg));
            let (q, w, want) = first.entry(rig.config.tenants).or_insert((rig, v, got.clone()));
            if *want != got {
                let q = *q;
                let diverges = |s: &[Step], _| settled(q, s).ok() != settled(rig, s).ok();
                let (min, _) = shrink(steps, None, diverges);
                panic!(
                    "settled images diverge between {} (variant {w}) and {} (variant {v}); \
                     shrunk to {}",
                    q.source,
                    rig.source,
                    literal(&min)
                );
            }
        }
    }
}

/// What an unarmed run settled to: its vPM data digest and the values
/// its reads saw.
type Settled = (u64, Vec<u64>);

fn settled(rig: &Rig, steps: &[Step]) -> Verdict<Settled> {
    let mut crashed = drive(rig, steps, None)?.power_loss()?;
    let digest = crashed.data_digest();
    Ok((digest, crashed.recover()?.reads))
}

/// A seeded golden-digest schedule ([`golden`]) and its crash step.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub seed: u64,
    pub ops: u64,
    pub crash_at: Option<u64>,
}

/// Runs `s` through the checker on `rig` and returns the FNV-1a digest
/// of the whole durable image at power loss.
pub fn golden_digest(rig: &Rig, s: Schedule) -> u64 {
    let steps = golden(s.seed, s.ops, rig.span);
    let verdict = drive(rig, &steps, s.crash_at).and_then(|run| {
        let mut crashed = run.power_loss()?;
        let digest = crashed.digest();
        crashed.recover().map(|_| digest)
    });
    verdict.unwrap_or_else(|msg| fail(rig, &steps, s.crash_at, &msg))
}

/// Runs every `(schedule, golden digest)` pair and reports all
/// mismatches at once.
pub fn assert_golden(rig: &Rig, golden: &[(Schedule, u64)]) {
    let mismatches: Vec<String> = golden
        .iter()
        .filter_map(|&(s, want)| {
            let got = golden_digest(rig, s);
            (got != want).then(|| format!("{s:?}: digest {got:#018x}, golden {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "durable image left the golden:\n{}", mismatches.join("\n"));
}

/// `cases` seeded golden schedules of 64–400 ops on `rigs` in turn,
/// crashed at a random step in 5..600 when `armed`, else only at the end.
pub fn golden_random(seed: u64, rigs: &[Rig], cases: usize, armed: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cases {
        let (seed, ops) = (rng.gen(), rng.gen_range(64..400));
        let crash_at = armed.then(|| rng.gen_range(5..600));
        golden_digest(&rigs[i % rigs.len()], Schedule { seed, ops, crash_at });
    }
}

/// Damage done to a crashed pool's durable image before recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Reload the image from a pool file cut to its first `n` bytes.
    Truncate(usize),
    /// Reload the image from a pool file with bit 0 of the header magic
    /// flipped.
    FlipMagic,
    /// Overwrite these undo-log lines (taken modulo the log length) with
    /// lines filled with the given byte.
    Log(Vec<u64>, u8),
    /// Tear the newest log block: its header stays durable while one of
    /// its pre-image lines (the given index, modulo the entries the
    /// header lists) goes stale.
    TearBlock(u64),
}

/// How a faulted image fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faulted {
    /// A damaged file failed to reload with a typed error.
    Rejected,
    /// Every live undo entry survived, and recovery passed the oracle.
    Recovered,
    /// Live undo entries were lost, so the committed snapshot cannot be
    /// restored; recovery still ran twice identically and the pool
    /// reopened.
    Reopened,
}

impl Crashed {
    /// Applies `fault` and judges the outcome. Nothing may panic. A
    /// damaged file must fail to reload with a typed error. A damaged log
    /// must recover twice to the same epoch and entries, scan no more
    /// entries than the log holds, and, when every live undo entry
    /// survived (corruption of stale or empty slots), pass the full
    /// oracle; otherwise the pool must still reopen.
    pub fn inject(mut self, fault: &Fault) -> Verdict<Faulted> {
        let layout = self.pm.layout();
        let damage: Vec<(LineAddr, CacheLine)> = match fault {
            Fault::Truncate(_) | Fault::FlipMagic => return self.reload(fault),
            Fault::Log(lines, garbage) => lines
                .iter()
                .map(|off| {
                    let line = LineAddr(layout.log_start().0 + off % layout.log_lines);
                    (line, CacheLine::filled(*garbage))
                })
                .collect(),
            Fault::TearBlock(k) => self.stale_pre_image(*k)?.into_iter().collect(),
        };
        let config = self.run.rig().config;
        let tenants = config.tenants;
        let live = |pm: &mut PmPool| -> Verdict<Vec<_>> {
            let committed = (0..tenants)
                .map(|t| pm.committed_epoch_for(t))
                .collect::<pax_pm::Result<Vec<u64>>>()
                .map_err(|e| format!("header: {e}"))?;
            let entries = UndoLog::scan(pm).map_err(|e| format!("scan: {e}"))?;
            Ok(entries
                .into_iter()
                .filter(|(_, e)| e.epoch > committed[e.tenant as usize])
                .collect())
        };
        let before = live(&mut self.pm)?;
        for (line, garbage) in damage {
            self.pm.write_line(line, garbage).map_err(|e| format!("corrupt: {e}"))?;
        }
        let after = live(&mut self.pm)?;
        let intact = before.iter().all(|e| after.contains(e));

        // The blocks recovery will invalidate, in the order it writes
        // their headers (rollback order: newest epoch first, then slot),
        // with the headers as they are before it runs.
        let mut order = after.clone();
        order.sort_by(|(sa, a), (sb, b)| b.epoch.cmp(&a.epoch).then(sa.cmp(sb)));
        let mut blocks: Vec<u64> = order.iter().map(|(slot, _)| slot / BLOCK_ENTRIES).collect();
        blocks.dedup();
        let headers = blocks
            .iter()
            .map(|b| {
                let at = LineAddr(layout.log_start().0 + b * BLOCK_LINES);
                self.pm.read_line(at).map(|line| (at, line))
            })
            .collect::<pax_pm::Result<Vec<_>>>()
            .map_err(|e| format!("read header: {e}"))?;

        // Each pass: the report, then the entries and data it left. The
        // first pass invalidates what it rolled back, so the second rolls
        // back nothing; both must leave the same epoch, log and data.
        let pass = |c: &mut Crashed, n| -> Verdict<_> {
            let report = recover(&mut c.pm).map_err(|e| format!("recovery {n}: {e}"))?;
            let entries = UndoLog::scan(&mut c.pm).map_err(|e| format!("scan {n}: {e}"))?;
            Ok((report, entries, c.data_digest()))
        };
        let first = pass(&mut self, 1)?;
        // A crash may cut the invalidation short after any prefix of its
        // header writes, with the rollback already durable: put back the
        // headers past the cut and recover again. That pass rolls the
        // surviving (oldest) entries back once more and must end on the
        // same epoch and data.
        for cut in 0..headers.len() {
            for (at, line) in &headers[cut..] {
                self.pm
                    .write_line(*at, line.clone())
                    .map_err(|e| format!("restore header: {e}"))?;
            }
            let again = pass(&mut self, 2)?;
            if (again.0.committed_epoch, again.2) != (first.0.committed_epoch, first.2) {
                return bug(format!(
                    "recovery cut after {cut} of {} invalidations is not idempotent: {:?} then \
                     {:?}",
                    headers.len(),
                    first.0,
                    again.0
                ));
            }
        }
        let second = pass(&mut self, 2)?;
        if (first.0.committed_epoch, &first.1, first.2)
            != (second.0.committed_epoch, &second.1, second.2)
        {
            return bug(format!("recovery is not idempotent: {:?} then {:?}", first.0, second.0));
        }
        // Each whole block of the region holds at most BLOCK_ENTRIES
        // entries; a trailing partial block holds none.
        let capacity = layout.log_lines / BLOCK_LINES * BLOCK_ENTRIES;
        if first.0.scanned as u64 > capacity {
            return bug(format!(
                "scanned {} entries from {} lines ({capacity} entry slots)",
                first.0.scanned, layout.log_lines
            ));
        }
        if intact {
            return self.recover().map(|_| Faulted::Recovered);
        }
        let pool = PaxPool::open(self.pm, config).map_err(|e| format!("reopen: {e}"))?;
        pool.vpm().read_u64(0).map_err(|e| format!("read after reopen: {e}"))?;
        Ok(Faulted::Reopened)
    }

    /// The pre-image line [`Fault::TearBlock`] makes stale, and the stale
    /// bytes: pre-image `k` (modulo its count) of the block holding the
    /// newest entry (highest epoch, then highest slot), bitwise inverted.
    /// `None` when the log holds no entry.
    fn stale_pre_image(&mut self, k: u64) -> Verdict<Option<(LineAddr, CacheLine)>> {
        let entries = UndoLog::scan(&mut self.pm).map_err(|e| format!("scan: {e}"))?;
        let Some(block) =
            entries.iter().max_by_key(|(slot, e)| (e.epoch, *slot)).map(|(s, _)| s / BLOCK_ENTRIES)
        else {
            return Ok(None);
        };
        let slots: Vec<u64> =
            entries.iter().map(|(s, _)| *s).filter(|s| s / BLOCK_ENTRIES == block).collect();
        let slot = slots[(k % slots.len() as u64) as usize];
        let base = self.pm.layout().log_start().0 + block * BLOCK_LINES;
        let line = LineAddr(base + 1 + slot % BLOCK_ENTRIES);
        let mut stale = self.pm.read_line(line).map_err(|e| format!("read: {e}"))?;
        stale.as_bytes_mut().iter_mut().for_each(|b| *b = !*b);
        Ok(Some((line, stale)))
    }

    /// Saves the image, damages the file, and requires the reload to fail.
    fn reload(self, fault: &Fault) -> Verdict<Faulted> {
        static FILES: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pax-checker-{}-{}.pool",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        self.pm.save(&path).map_err(|e| format!("save: {e}"))?;
        let mut bytes = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
        match fault {
            Fault::Truncate(n) => bytes.truncate((*n).min(bytes.len() - 1)),
            _ => bytes[0] ^= 0x01,
        }
        std::fs::write(&path, &bytes).map_err(|e| format!("write: {e}"))?;
        let loaded = PmPool::load(&path);
        std::fs::remove_file(&path).map_err(|e| format!("remove: {e}"))?;
        match loaded {
            Ok(_) => bug(format!("{fault:?}: the damaged image reloaded")),
            Err(e) if e.to_string().contains("pool") || e.to_string().contains("I/O") => {
                Ok(Faulted::Rejected)
            }
            Err(e) => bug(format!("{fault:?}: untyped rejection {e}")),
        }
    }
}
