//! Driving a schedule, and the one oracle that judges what recovery
//! restored.

use std::collections::{BTreeMap, HashMap};

use libpax::balloc::layout::TREE_FRAMES;
use libpax::{
    BitmapAlloc, Heap, MemSpace, PBTreeMap, PHashMap, PaxConfig, PaxError, PaxPool, PaxTenant,
    PersistencyModel, PmAllocator, VPm,
};
use pax_device::even_split;
use pax_pm::{LineAddr, PmPool, LINE_SIZE};

use super::schedule::{Alloc, Point, Step, SPAN};

/// A checker verdict: `Err` says why the run stopped.
pub type Verdict<T> = Result<T, Halt>;

const LINE: u64 = LINE_SIZE as u64;
/// A tenant's window holds its raw span below this byte offset, then
/// three arenas: blocks, hash map, B-tree.
const ARENA_BASE: u64 = 64 << 10;
const ARENA_BYTES: u64 = 128 << 10;

/// What a schedule runs on.
#[derive(Debug, Clone)]
pub struct Rig {
    pub config: PaxConfig,
    pub alloc: Alloc,
    /// Raw lines modelled per tenant.
    pub span: u64,
    /// A Rust expression that rebuilds the rig, for failure reports.
    pub source: String,
}

impl Rig {
    /// A rig outside the matrix (golden digests, device variants);
    /// `source` rebuilds it in the suite that defines it.
    pub fn custom(config: PaxConfig, span: u64, source: String) -> Rig {
        Rig { config, alloc: Alloc::Heap, span, source }
    }
}

impl Point {
    pub fn rig(self) -> Rig {
        let source = format!("{}.rig()", self.literal());
        Rig { config: self.config(), alloc: self.alloc, span: SPAN, source }
    }
}

/// One arena of a tenant's vPM window.
#[derive(Debug, Clone)]
pub struct Window {
    vpm: VPm,
    base: u64,
}

impl Window {
    fn arena(vpm: VPm, i: u64) -> Window {
        Window { vpm, base: ARENA_BASE + i * ARENA_BYTES }
    }

    /// The vPM address of `len` bytes at `addr`; an access past the arena
    /// fails as one past a volatile space would.
    fn at(&self, addr: u64, len: usize) -> libpax::Result<u64> {
        match addr.checked_add(len as u64) {
            Some(end) if end <= ARENA_BYTES => Ok(self.base + addr),
            _ => Err(PaxError::OutOfMemory {
                requested: addr.saturating_add(len as u64),
                capacity: ARENA_BYTES,
            }),
        }
    }
}

impl MemSpace for Window {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        self.vpm.read_bytes(self.at(addr, buf.len())?, buf)
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        self.vpm.write_bytes(self.at(addr, data.len())?, data)
    }

    fn capacity_bytes(&self) -> u64 {
        ARENA_BYTES
    }
}

/// Either allocator behind one [`PmAllocator`].
#[derive(Clone)]
enum AnyAlloc<S: MemSpace> {
    Heap(Heap<S>),
    Bitmap(BitmapAlloc<S>),
}

macro_rules! either {
    ($self:ident, $a:ident => $e:expr) => {
        match $self {
            AnyAlloc::Heap($a) => $e,
            AnyAlloc::Bitmap($a) => $e,
        }
    };
}

impl<S: MemSpace> PmAllocator<S> for AnyAlloc<S> {
    fn space(&self) -> &S {
        either!(self, a => PmAllocator::space(a))
    }
    fn alloc(&self, len: u64) -> libpax::Result<u64> {
        either!(self, a => PmAllocator::alloc(a, len))
    }
    fn free(&self, addr: u64, len: u64) -> libpax::Result<()> {
        either!(self, a => PmAllocator::free(a, addr, len))
    }
    fn root(&self) -> libpax::Result<u64> {
        either!(self, a => PmAllocator::root(a))
    }
    fn set_root(&self, addr: u64) -> libpax::Result<()> {
        either!(self, a => PmAllocator::set_root(a, addr))
    }
    fn live_allocations(&self) -> libpax::Result<u64> {
        either!(self, a => PmAllocator::live_allocations(a))
    }
}

impl<S: MemSpace> AnyAlloc<S> {
    pub fn attach(kind: Alloc, space: S) -> libpax::Result<Self> {
        Ok(match kind {
            Alloc::Heap => AnyAlloc::Heap(Heap::attach(space)?),
            Alloc::Bitmap => AnyAlloc::Bitmap(BitmapAlloc::attach(space)?),
        })
    }

    /// What `live_allocations` must report for `blocks`: blocks for the
    /// heap, 32-byte frames for the bitmap allocator.
    fn expected_live(&self, blocks: &[Block]) -> u64 {
        match self {
            AnyAlloc::Heap(_) => blocks.len() as u64,
            AnyAlloc::Bitmap(_) => blocks.iter().map(|b| b.len.div_ceil(32).max(1)).sum(),
        }
    }

    /// Each bitmap tree's longest-free-run hint is never below the tree's
    /// true longest free run (counted bit by bit), and equals it when
    /// `exact` (right after an attach).
    fn check_run_hints(&self, exact: bool) -> Verdict<()> {
        let AnyAlloc::Bitmap(a) = self else { return Ok(()) };
        let g = *a.geometry();
        let mut raw = vec![0u8; (g.words * 8) as usize];
        PmAllocator::space(a).read_bytes(g.word_addr(0), &mut raw)?;
        let used = |f: u64| raw[(f / 8) as usize] >> (f % 8) & 1 == 1;
        for (t, hint) in (0..g.trees).zip(a.run_hints()) {
            let frames = TREE_FRAMES * t..TREE_FRAMES * t + g.frames_in_tree(t);
            let free = frames.clone().filter(|&f| !used(f)).count() as u64;
            if hint >= free && !exact {
                continue; // a hint at or above the free count bounds every run
            }
            let (mut run, mut longest) = (0u64, 0u64);
            for f in frames {
                run = if used(f) { 0 } else { run + 1 };
                longest = longest.max(run);
            }
            if hint < longest || (exact && hint != longest) {
                return Err(Halt::Bug(format!("tree {t}: run hint {hint}, longest run {longest}")));
            }
        }
        Ok(())
    }
}

/// One live block: where, how long, which fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    pub addr: u64,
    pub len: u64,
    pub tag: u64,
}

fn pattern(tag: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| (tag.wrapping_mul(31).wrapping_add(i) % 251) as u8).collect()
}

/// Allocates a block and fills it with a pattern unique to `tag`; it must
/// be 8-aligned and disjoint from every block in `live`.
fn alloc_block<S: MemSpace, A: PmAllocator<S>>(
    a: &A,
    len: u64,
    tag: u64,
    live: &[Block],
) -> Verdict<Block> {
    let addr = a.alloc(len)?;
    a.space().write_bytes(addr, &pattern(tag, len))?;
    if let Some(o) = live.iter().find(|o| addr < o.addr + o.len && o.addr < addr + len) {
        return Err(Halt::Bug(format!("block {addr:#x}+{len} overlaps {:#x}+{}", o.addr, o.len)));
    }
    match addr % 8 {
        0 => Ok(Block { addr, len, tag }),
        _ => Err(Halt::Bug(format!("block {addr:#x} is not 8-aligned"))),
    }
}

/// The block still holds its fill.
fn check_block<S: MemSpace, A: PmAllocator<S>>(a: &A, b: &Block) -> Verdict<()> {
    let mut buf = vec![0u8; b.len as usize];
    a.space().read_bytes(b.addr, &mut buf)?;
    if buf != pattern(b.tag, b.len) {
        return Err(Halt::Bug(format!("block {:#x}+{} lost its fill", b.addr, b.len)));
    }
    Ok(())
}

/// Why a run stopped early.
#[derive(Debug)]
pub enum Halt {
    /// The armed crash clock fired.
    Crash,
    /// The oracle saw a violation.
    Bug(String),
}

impl From<PaxError> for Halt {
    fn from(e: PaxError) -> Self {
        if e.is_crash() {
            Halt::Crash
        } else {
            Halt::Bug(format!("non-crash failure: {e}"))
        }
    }
}

impl From<String> for Halt {
    fn from(msg: String) -> Self {
        Halt::Bug(msg)
    }
}

impl std::fmt::Display for Halt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Halt::Crash => write!(f, "crash error outside the armed run"),
            Halt::Bug(msg) => f.write_str(msg),
        }
    }
}

pub fn bug<T>(msg: String) -> Verdict<T> {
    Err(Halt::Bug(msg))
}

/// What a tenant holds: recovery must restore exactly this if it lands on
/// the close that captured it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Image {
    lines: Vec<u64>,
    blocks: Vec<Block>,
    map: BTreeMap<u64, u64>,
}

type Maps =
    (PHashMap<u64, u64, Window, AnyAlloc<Window>>, PBTreeMap<u64, u64, Window, AnyAlloc<Window>>);

/// One tenant's handles and model.
struct Tenant {
    handle: PaxTenant,
    now: Image,
    /// Epoch → the image when it closed. Only closes that returned count:
    /// a close the crash cut short must not commit.
    closes: HashMap<u64, Image>,
    /// The epoch the next close commits.
    next: u64,
    /// The newest epoch a close returned.
    last_close: u64,
    /// The newest epoch the API promised durable.
    floor: u64,
    /// Set before the first attach of the block arena (and of the map
    /// arenas), so a crash inside the format still gets them checked.
    blocks_opened: bool,
    maps_opened: bool,
    blocks: Option<AnyAlloc<Window>>,
    maps: Option<Maps>,
    tag: u64,
}

impl Tenant {
    fn arena(&self, i: u64) -> Window {
        Window::arena(self.handle.vpm(), i)
    }

    /// Records that a close (or a strict store) returned epoch `e`.
    fn closed(&mut self, e: u64, model: PersistencyModel, promised: bool) -> Verdict<()> {
        if e != self.next {
            return bug(format!("close returned epoch {e}, expected {}", self.next));
        }
        self.closes.insert(e, self.now.clone());
        (self.next, self.last_close) = (e + 1, e);
        if promised {
            // Buffered-epoch(K) promises a close only K closes later.
            let loss = if model.closes_async() { model.max_open_epochs() as u64 } else { 0 };
            self.floor = self.floor.max(e.saturating_sub(loss));
        }
        Ok(())
    }

    /// Puts (`Some(value)`) or deletes `key` in both maps, which must
    /// return what the model held.
    fn map_op(&mut self, kind: Alloc, key: u64, put: Option<u64>) -> Verdict<()> {
        if self.maps.is_none() {
            self.maps_opened = true;
            let hash = PHashMap::attach(AnyAlloc::attach(kind, self.arena(1))?)?;
            self.maps = Some((hash, PBTreeMap::attach(AnyAlloc::attach(kind, self.arena(2))?)?));
        }
        let (hash, tree) = self.maps.as_ref().unwrap();
        let (got, want) = match put {
            Some(v) => ([hash.insert(key, v)?, tree.insert(key, v)?], self.now.map.insert(key, v)),
            None => ([hash.remove(key)?, tree.remove(key)?], self.now.map.remove(&key)),
        };
        if got != [want; 2] {
            return bug(format!("key {key}: maps returned {got:?}, model {want:?}"));
        }
        Ok(())
    }
}

/// A schedule driven up to power loss (or to its end).
pub struct Run {
    pub pool: PaxPool,
    rig: Rig,
    tenants: Vec<Tenant>,
    /// Whether the armed crash fired.
    pub crashed: bool,
    /// Crash-clock steps the run took.
    pub steps_taken: u64,
    /// Every value a `Read` saw, in order.
    pub reads: Vec<u64>,
}

/// Runs `steps` on a fresh pool with the crash clock armed `crash_at`
/// durable-write steps in, checking each step's own promises on the way.
pub fn drive(rig: &Rig, steps: &[Step], crash_at: Option<u64>) -> Verdict<Run> {
    let pool = PaxPool::create(rig.config).map_err(|e| format!("create: {e}"))?;
    let clock = pool.crash_clock().map_err(|e| format!("clock: {e}"))?;
    if let Some(n) = crash_at {
        clock.arm(clock.steps_taken() + n);
    }
    let mut tenants = Vec::new();
    for t in 0..rig.config.tenants {
        let handle = pool.attach(t).map_err(|e| format!("attach: {e}"))?;
        let base = handle.committed_epoch().map_err(|e| format!("epoch: {e}"))?;
        let now = Image { lines: vec![0; rig.span as usize], ..Image::default() };
        tenants.push(Tenant {
            handle,
            closes: HashMap::from([(base, now.clone())]),
            now,
            next: base + 1,
            last_close: base,
            floor: base,
            blocks_opened: false,
            maps_opened: false,
            blocks: None,
            maps: None,
            tag: 1,
        });
    }
    let mut run =
        Run { pool, rig: rig.clone(), tenants, crashed: false, steps_taken: 0, reads: vec![] };
    for (i, &step) in steps.iter().enumerate() {
        match run.step(step) {
            Ok(()) => {}
            Err(Halt::Crash) => {
                run.crashed = true;
                break;
            }
            Err(Halt::Bug(msg)) => return bug(format!("step {i} {step:?}: {msg}")),
        }
    }
    run.steps_taken = clock.steps_taken();
    Ok(run)
}

impl Run {
    fn step(&mut self, step: Step) -> Verdict<()> {
        let model = self.rig.config.device.persistency;
        let Some(t) = step.tenant() else {
            let Step::Tick(n) = step else { unreachable!() };
            return self.pool.run_device(n).map(drop).map_err(Halt::from);
        };
        if step.uses_arena() && model == PersistencyModel::Strict {
            return Ok(());
        }
        let (cores, span, kind) = (self.rig.config.cores, self.rig.span, self.rig.alloc);
        let n = self.tenants.len();
        let tm = &mut self.tenants[t as usize % n];
        match step {
            Step::Store(_, core, line, value) => {
                let line = (u64::from(line) % span) as usize;
                let vpm = tm.handle.vpm_for_core(core as usize % cores);
                vpm.write_u64(line as u64 * LINE, value)?;
                tm.now.lines[line] = value;
                if model.persist_per_store() {
                    let e = tm.handle.committed_epoch()?;
                    tm.closed(e, model, true)?;
                }
            }
            Step::Read(_, core, line) => {
                let line = u64::from(line) % span;
                let v = tm.handle.vpm_for_core(core as usize % cores).read_u64(line * LINE)?;
                let want = tm.now.lines[line as usize];
                if v != want {
                    return bug(format!("read {v:#x} from line {line}, newest store {want:#x}"));
                }
                self.reads.push(v);
            }
            Step::Close(_) | Step::CloseAsync(_) => {
                let sync = matches!(step, Step::Close(_));
                if let Some(a) = &tm.blocks {
                    tm.now.blocks.iter().try_for_each(|b| check_block(a, b))?;
                }
                let e = if sync { tm.handle.persist()? } else { tm.handle.persist_async()? };
                tm.closed(e, model, sync)?;
                let committed = tm.handle.committed_epoch()?;
                if committed + (model.max_open_epochs() as u64) < e {
                    return bug(format!("close {e} runs ahead of committed epoch {committed}"));
                }
            }
            Step::Poll(_) => {
                if let Some(e) = tm.handle.persist_poll()? {
                    tm.floor = tm.floor.max(e);
                }
            }
            Step::Wait(_) => {
                tm.handle.persist_wait()?;
                tm.floor = tm.floor.max(tm.last_close);
            }
            Step::Attach(_) => {
                tm.blocks_opened = true;
                let a = AnyAlloc::attach(kind, tm.arena(0))?;
                a.check_run_hints(true)?;
                tm.blocks = Some(a);
            }
            Step::Alloc(_, len) => {
                if tm.blocks.is_none() {
                    tm.blocks_opened = true;
                    tm.blocks = Some(AnyAlloc::attach(kind, tm.arena(0))?);
                }
                let a = tm.blocks.as_ref().unwrap();
                tm.now.blocks.push(alloc_block(a, len, tm.tag, &tm.now.blocks)?);
                a.check_run_hints(false)?;
                tm.tag += 1;
            }
            Step::Free(_, i) => {
                let (Some(a), false) = (&tm.blocks, tm.now.blocks.is_empty()) else {
                    return Ok(());
                };
                let b = tm.now.blocks.remove(i as usize % tm.now.blocks.len());
                check_block(a, &b)?;
                a.free(b.addr, b.len)?;
                a.check_run_hints(false)?;
            }
            Step::Put(_, key, value) => tm.map_op(kind, key, Some(value))?,
            Step::Del(_, key) => tm.map_op(kind, key, None)?,
            Step::Tick(_) => unreachable!(),
        }
        Ok(())
    }

    pub fn rig(&self) -> &Rig {
        &self.rig
    }

    /// Cuts power, keeping the durable image for recovery.
    pub fn power_loss(self) -> Verdict<Crashed> {
        let pm = self.pool.crash().map_err(|e| format!("power loss: {e}"))?;
        Ok(Crashed { pm, run: self })
    }
}

/// A run after power loss: its durable image and its model.
pub struct Crashed {
    pub pm: PmPool,
    pub run: Run,
}

/// What recovery restored, for the modes that compare runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub crashed: bool,
    pub steps_taken: u64,
    pub reads: Vec<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Crashed {
    /// FNV-1a over every durable line: header, undo log and data.
    pub fn digest(&mut self) -> u64 {
        (0..self.pm.layout().total_lines()).fold(FNV_OFFSET, |h, l| {
            let line = self.pm.read_line(LineAddr(l)).unwrap();
            line.as_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
        })
    }

    /// A digest of the vPM each tenant's schedule could reach — its raw
    /// span, and its arenas once used — folded a word at a time.
    pub fn data_digest(&mut self) -> u64 {
        let layout = self.pm.layout();
        let regions = even_split(layout.data_lines, self.run.tenants.len());
        let mut h = FNV_OFFSET;
        for (r, tm) in regions.iter().zip(&self.run.tenants) {
            let arenas = tm.blocks_opened || tm.maps_opened;
            let lines =
                if arenas { (ARENA_BASE + 3 * ARENA_BYTES) / LINE } else { self.run.rig.span };
            for l in r.vpm_base..r.vpm_base + lines {
                let line = self.pm.read_line(layout.vpm_to_pool(l).unwrap()).unwrap();
                h = line.as_bytes().chunks_exact(8).fold(h, |h, w| {
                    (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
                });
            }
        }
        h
    }

    /// Reopens the pool (running recovery) and checks the oracle:
    ///
    /// * each tenant's recovered epoch is one of its close points, and its
    ///   raw span, blocks and maps equal that close's image — a
    ///   prefix-closed cut, never a mix;
    /// * no epoch the API promised durable was lost;
    /// * the report's rollback gap is within the model's bound + 1;
    /// * recovered blocks read back intact, `live_allocations` is exact,
    ///   the run hints are exact, and fresh allocations land disjoint;
    /// * recovered maps hold exactly the close's entries, and the B-tree
    ///   keeps its structural invariants.
    pub fn recover(self) -> Verdict<Outcome> {
        let Crashed { pm, run } = self;
        let (rig, model) = (&run.rig, run.rig.config.device.persistency);
        let pool = PaxPool::open(pm, rig.config).map_err(|e| format!("reopen: {e}"))?;
        let gap = pool.recovery_report().map_err(|e| format!("report: {e}"))?.rollback_gap;
        if gap > model.rollback_bound() + 1 {
            return bug(format!("rollback gap {gap} exceeds the {} bound", model.label()));
        }
        for (t, tm) in run.tenants.iter().enumerate() {
            recover_tenant(&pool, rig, t, tm).map_err(|h| format!("tenant {t}: {h}"))?;
        }
        Ok(Outcome { crashed: run.crashed, steps_taken: run.steps_taken, reads: run.reads })
    }
}

fn recover_tenant(pool: &PaxPool, rig: &Rig, t: usize, tm: &Tenant) -> Verdict<()> {
    let h = pool.attach(t)?;
    let e = h.committed_epoch()?;
    let Some(want) = tm.closes.get(&e) else {
        return bug(format!("recovered epoch {e} was never a close point"));
    };
    if e < tm.floor {
        return bug(format!("recovered epoch {e} is below the promised floor {}", tm.floor));
    }
    let got = read_span(&h, rig.span)?;
    if let Some(l) = (0..got.len()).find(|&l| got[l] != want.lines[l]) {
        return bug(format!(
            "line {l} holds {:#x}, epoch {e} closed with {:#x}",
            got[l], want.lines[l]
        ));
    }
    if tm.blocks_opened {
        let a = AnyAlloc::attach(rig.alloc, Window::arena(h.vpm(), 0))?;
        a.check_run_hints(true)?;
        let live = a.live_allocations()?;
        if live != a.expected_live(&want.blocks) {
            return bug(format!("live_allocations {live} at epoch {e}, blocks {:?}", want.blocks));
        }
        // Fresh allocations must not land on any recovered block.
        let mut all = want.blocks.clone();
        for i in 0..12 {
            all.push(alloc_block(&a, 64 + i * 24, 0xC0DE + i, &all)?);
        }
        all.iter().try_for_each(|b| check_block(&a, b))?;
    }
    if tm.maps_opened {
        let hash: PHashMap<u64, u64, _, _> =
            PHashMap::attach(AnyAlloc::attach(rig.alloc, Window::arena(h.vpm(), 1))?)?;
        let tree: PBTreeMap<u64, u64, _, _> =
            PBTreeMap::attach(AnyAlloc::attach(rig.alloc, Window::arena(h.vpm(), 2))?)?;
        let want: Vec<(u64, u64)> = want.map.iter().map(|(&k, &v)| (k, v)).collect();
        let mut entries = hash.entries()?;
        entries.sort_unstable();
        // Cheapest checks first: a torn tree can hold a cycle its walks
        // never leave.
        if entries != want || tree.len()? != want.len() as u64 {
            return bug(format!("maps do not hold epoch {e}'s entries {want:?}"));
        }
        tree.check_invariants()?;
        if tree.entries()? != want {
            return bug(format!("B-tree does not hold epoch {e}'s entries {want:?}"));
        }
    }
    Ok(())
}

/// The u64 at the start of each of the first `span` lines of `tenant`;
/// the rest of every line must still be zero.
pub fn read_span(tenant: &PaxTenant, span: u64) -> libpax::Result<Vec<u64>> {
    let mut raw = vec![0u8; (span * LINE) as usize];
    tenant.vpm().read_bytes(0, &mut raw)?;
    let lines: Vec<&[u8]> = raw.chunks_exact(LINE_SIZE).collect();
    if let Some(l) = lines.iter().position(|l| l[8..].iter().any(|&b| b != 0)) {
        return Err(PaxError::Corrupt(format!("line {l} was written past its first word")));
    }
    Ok(lines.iter().map(|l| u64::from_le_bytes(l[..8].try_into().unwrap())).collect())
}

/// Drives, cuts power and checks the oracle.
pub fn check(rig: &Rig, steps: &[Step], crash_at: Option<u64>) -> Verdict<Outcome> {
    drive(rig, steps, crash_at)?.power_loss()?.recover()
}

/// The per-tenant prefix oracle for free-running writer threads, whose
/// epochs may also commit where the test cannot see (log-full
/// auto-persist): the recovered span `got` must equal the replay of some
/// prefix of the tenant's `(line, value)` writes no shorter than `floor`,
/// the prefix at the last close that returned.
pub fn prefix_cut(writes: &[(u64, u64)], floor: usize, got: &[u64]) -> Verdict<()> {
    let mut state = vec![0u64; got.len()];
    for (k, &(line, v)) in writes.iter().enumerate() {
        if k >= floor && state == got {
            return Ok(());
        }
        state[line as usize] = v;
    }
    if state != got {
        return bug(format!("recovered span is no prefix of {} writes past {floor}", writes.len()));
    }
    Ok(())
}
