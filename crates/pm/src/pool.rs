//! DAX-style pool files.
//!
//! A [`PmPool`] is the persistent object `libpax` maps into a process
//! (Listing 1 of the paper: `map_pool("./ht.pool")`). Its media is divided
//! into three regions:
//!
//! ```text
//! ┌────────────┬───────────────────────┬───────────────────────────┐
//! │ header     │ undo-log region       │ data region (vPM)         │
//! │ 1 page     │ PoolConfig::log_bytes │ PoolConfig::data_bytes    │
//! └────────────┴───────────────────────┴───────────────────────────┘
//! ```
//!
//! * The **header** holds the magic number, format version, region sizes,
//!   and — on a line of its own so an 8-byte store commits it atomically —
//!   the **committed epoch number** that `persist()` advances (§3.3).
//! * The **undo-log region** is where the PAX device appends epoch-tagged
//!   undo entries (`pax-device::undo_log`).
//! * The **data region** is the vPM range applications see. Its line `0`
//!   is reserved as the *root line* where `libpax` keeps the structure
//!   root pointer and allocator state — kept in vPM so the undo log covers
//!   it like any other application data.
//!
//! Pools can be saved to and loaded from real files so examples and tests
//! can demonstrate cross-process recovery.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::Path;

use crate::error::PmError;
use crate::line::{CacheLine, LineAddr, LINE_SIZE, PAGE_SIZE};
use crate::media::{Memory, PersistenceDomain, PmMedia};
use crate::Result;

const MAGIC: &[u8; 8] = b"PAXPOOL1";
/// On-media format version. Version 2 lays the undo-log region out as
/// 5-line blocks (a header line and four pre-images); a version-1 file
/// holds 2-line entries that recovery would misread, so it is rejected.
const VERSION: u32 = 2;

/// Header line indices (within the header page).
const HDR_META: u64 = 0; // magic, version, layout sizes
const HDR_EPOCH: u64 = 1; // committed epoch number, alone on its line

/// Lines in the header region (one 4 KiB page).
const HEADER_LINES: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

/// Maximum number of tenants a pool header can hold epoch slots for.
///
/// Each tenant's committed epoch lives alone on header line `1 + tenant`
/// (tenant 0 aliases the legacy `HDR_EPOCH` line) so an 8-byte store
/// commits it atomically without touching any other tenant's slot. The
/// header page has 64 lines; 32 leaves room for future header fields.
pub const MAX_TENANTS: usize = 32;

/// Sizing and durability parameters for a new pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Bytes reserved for the persistent undo log.
    pub log_bytes: usize,
    /// Bytes of vPM exposed to the application.
    pub data_bytes: usize,
    /// Persistence domain of the backing media.
    pub domain: PersistenceDomain,
}

impl PoolConfig {
    /// A small pool suitable for tests: 256 KiB log, 1 MiB data, ADR.
    pub fn small() -> Self {
        PoolConfig { log_bytes: 256 << 10, data_bytes: 1 << 20, domain: PersistenceDomain::Adr }
    }

    /// Returns the config with a different log capacity.
    pub fn with_log_bytes(mut self, bytes: usize) -> Self {
        self.log_bytes = bytes;
        self
    }

    /// Returns the config with a different data capacity.
    pub fn with_data_bytes(mut self, bytes: usize) -> Self {
        self.data_bytes = bytes;
        self
    }

    /// Returns the config with a different persistence domain.
    pub fn with_domain(mut self, domain: PersistenceDomain) -> Self {
        self.domain = domain;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Resolved region boundaries of a pool, in lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLayout {
    /// Lines in the header region.
    pub header_lines: u64,
    /// Lines in the undo-log region.
    pub log_lines: u64,
    /// Lines in the data (vPM) region.
    pub data_lines: u64,
}

impl PoolLayout {
    fn from_config(config: &PoolConfig) -> Result<Self> {
        if config.log_bytes < LINE_SIZE {
            return Err(PmError::BadLayout("log region must hold at least one line".into()));
        }
        if config.data_bytes < LINE_SIZE {
            return Err(PmError::BadLayout("data region must hold at least one line".into()));
        }
        Ok(PoolLayout {
            header_lines: HEADER_LINES,
            log_lines: config.log_bytes.div_ceil(LINE_SIZE) as u64,
            data_lines: config.data_bytes.div_ceil(LINE_SIZE) as u64,
        })
    }

    /// First line of the undo-log region.
    pub fn log_start(&self) -> LineAddr {
        LineAddr(self.header_lines)
    }

    /// First line of the data region.
    pub fn data_start(&self) -> LineAddr {
        LineAddr(self.header_lines + self.log_lines)
    }

    /// Total lines in the pool.
    pub fn total_lines(&self) -> u64 {
        self.header_lines + self.log_lines + self.data_lines
    }

    /// Translates a vPM line offset (0-based within the data region) to a
    /// pool-absolute line address.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `vpm_line` is past the region.
    pub fn vpm_to_pool(&self, vpm_line: u64) -> Result<LineAddr> {
        if vpm_line >= self.data_lines {
            return Err(PmError::OutOfBounds {
                addr: LineAddr(vpm_line),
                capacity_lines: self.data_lines,
            });
        }
        Ok(LineAddr(self.data_start().0 + vpm_line))
    }

    /// Translates a pool-absolute line back to a vPM offset, if it falls
    /// inside the data region.
    pub fn pool_to_vpm(&self, addr: LineAddr) -> Option<u64> {
        let start = self.data_start().0;
        if addr.0 >= start && addr.0 < start + self.data_lines {
            Some(addr.0 - start)
        } else {
            None
        }
    }
}

/// A persistent memory pool: media plus on-media layout and epoch header.
///
/// # Example
///
/// ```
/// use pax_pm::{PmPool, PoolConfig};
///
/// let mut pool = PmPool::create(PoolConfig::small()).unwrap();
/// assert_eq!(pool.committed_epoch().unwrap(), 0);
/// pool.commit_epoch(1).unwrap();
/// assert_eq!(pool.committed_epoch().unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct PmPool {
    media: PmMedia,
    layout: PoolLayout,
    domain: PersistenceDomain,
}

impl PmPool {
    /// Creates a fresh, zeroed pool with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::BadLayout`] if a region is smaller than a line.
    pub fn create(config: PoolConfig) -> Result<Self> {
        let layout = PoolLayout::from_config(&config)?;
        let media = PmMedia::new(layout.total_lines() as usize * LINE_SIZE, config.domain);
        let mut pool = PmPool { media, layout, domain: config.domain };
        pool.write_meta()?;
        pool.media.drain();
        Ok(pool)
    }

    fn write_meta(&mut self) -> Result<()> {
        let mut meta = CacheLine::zeroed();
        meta.write_at(0, MAGIC);
        meta.write_at(8, &VERSION.to_le_bytes());
        meta.write_at(16, &self.layout.log_lines.to_le_bytes());
        meta.write_at(24, &self.layout.data_lines.to_le_bytes());
        self.media.write_line(LineAddr(HDR_META), meta)
    }

    /// The pool's region layout.
    pub fn layout(&self) -> PoolLayout {
        self.layout
    }

    /// The persistence domain of the backing media.
    pub fn domain(&self) -> PersistenceDomain {
        self.domain
    }

    /// The epoch number most recently committed by `persist()`.
    ///
    /// After recovery, the application observes the pool exactly as it was
    /// when this epoch was committed.
    pub fn committed_epoch(&mut self) -> Result<u64> {
        self.committed_epoch_for(0)
    }

    /// The epoch most recently committed for `tenant`'s pool context.
    ///
    /// Tenant 0 reads the same header line as [`committed_epoch`]
    /// (single-tenant pools are the degenerate case of this API).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] if `tenant >= MAX_TENANTS`.
    ///
    /// [`committed_epoch`]: PmPool::committed_epoch
    pub fn committed_epoch_for(&mut self, tenant: usize) -> Result<u64> {
        let line = self.media.read_line(Self::epoch_slot(tenant)?)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(line.read_at(0, 8));
        Ok(u64::from_le_bytes(buf))
    }

    fn epoch_slot(tenant: usize) -> Result<LineAddr> {
        if tenant >= MAX_TENANTS {
            return Err(PmError::Config(format!(
                "tenant {tenant} out of range (pool header holds {MAX_TENANTS} epoch slots)"
            )));
        }
        Ok(LineAddr(HDR_EPOCH + tenant as u64))
    }

    /// Durably commits `epoch` as the recovery point.
    ///
    /// The write targets a dedicated header line and is drained before
    /// returning, modelling the atomic 8-byte durable store in §3.3: "the
    /// device writes the current epoch number to a special location in the
    /// structure's pool file".
    pub fn commit_epoch(&mut self, epoch: u64) -> Result<()> {
        self.commit_epoch_for(0, epoch)
    }

    /// Durably commits `epoch` as the recovery point of `tenant`'s pool
    /// context. The write targets that tenant's dedicated header line, so
    /// the commit is atomic and independent of every other tenant's slot.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] if `tenant >= MAX_TENANTS`.
    pub fn commit_epoch_for(&mut self, tenant: usize, epoch: u64) -> Result<()> {
        let mut line = CacheLine::zeroed();
        line.write_at(0, &epoch.to_le_bytes());
        self.media.write_line(Self::epoch_slot(tenant)?, line)?;
        self.media.drain();
        Ok(())
    }

    /// Reads a pool-absolute line.
    pub fn read_line(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.media.read_line(addr)
    }

    /// Writes a pool-absolute line (queued; not yet durable).
    pub fn write_line(&mut self, addr: LineAddr, line: CacheLine) -> Result<()> {
        self.media.write_line(addr, line)
    }

    /// Forces queued writes to media.
    pub fn drain(&mut self) {
        self.media.drain();
    }

    /// Simulates power loss on the backing media.
    pub fn crash(&mut self) {
        self.media.crash();
    }

    /// Access statistics of the backing media.
    pub fn media_stats(&self) -> crate::MediaStats {
        self.media.stats()
    }

    /// Snapshot of the backing media's metric registry.
    pub fn media_metrics(&self) -> pax_telemetry::MetricSnapshot {
        self.media.metrics()
    }

    /// Serializes the durable contents to `path`.
    ///
    /// Queued (non-durable) writes are **not** saved — the file holds what
    /// would survive a crash, so save/load round-trips model reboot.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Io`] on file-system failure.
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<()> {
        // What survives depends on the domain; apply it before snapshotting
        // by draining only if the WPQ is inside the persistence domain.
        if self.domain.wpq_survives() {
            self.media.drain();
        }
        let mut f = fs::File::create(path)?;
        f.write_all(MAGIC)?;
        f.write_all(&VERSION.to_le_bytes())?;
        f.write_all(&self.layout.log_lines.to_le_bytes())?;
        f.write_all(&self.layout.data_lines.to_le_bytes())?;
        f.write_all(&u64::from(self.domain_tag()).to_le_bytes())?;
        for i in 0..self.layout.total_lines() {
            let line = self.media.read_durable(LineAddr(i))?;
            f.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    fn domain_tag(&self) -> u8 {
        match self.domain {
            PersistenceDomain::None => 0,
            PersistenceDomain::Adr => 1,
            PersistenceDomain::Eadr => 2,
        }
    }

    /// Loads a pool previously written by [`PmPool::save`].
    ///
    /// # Errors
    ///
    /// Returns [`PmError::BadPool`] for wrong magic/version and
    /// [`PmError::Io`] on file-system failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let mut f = fs::File::open(path)?;
        let mut hdr = [0u8; 8 + 4 + 8 + 8 + 8];
        f.read_exact(&mut hdr)?;
        if &hdr[0..8] != MAGIC {
            return Err(PmError::BadPool("bad magic number".into()));
        }
        let version = u32::from_le_bytes(hdr[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(PmError::BadPool(format!("unsupported version {version}")));
        }
        let log_lines = u64::from_le_bytes(hdr[12..20].try_into().unwrap());
        let data_lines = u64::from_le_bytes(hdr[20..28].try_into().unwrap());
        let domain = match u64::from_le_bytes(hdr[28..36].try_into().unwrap()) {
            0 => PersistenceDomain::None,
            1 => PersistenceDomain::Adr,
            2 => PersistenceDomain::Eadr,
            t => return Err(PmError::BadPool(format!("unknown persistence domain tag {t}"))),
        };
        let layout = PoolLayout { header_lines: HEADER_LINES, log_lines, data_lines };
        let mut media = PmMedia::new(layout.total_lines() as usize * LINE_SIZE, domain);
        let mut buf = vec![0u8; LINE_SIZE];
        for i in 0..layout.total_lines() {
            f.read_exact(&mut buf)?;
            media.write_line(LineAddr(i), CacheLine::from_bytes(&buf))?;
        }
        media.drain();
        Ok(PmPool { media, layout, domain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_sets_magic_and_epoch_zero() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        assert_eq!(pool.committed_epoch().unwrap(), 0);
        let meta = pool.read_line(LineAddr(HDR_META)).unwrap();
        assert_eq!(meta.read_at(0, 8), MAGIC);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let l = pool.layout();
        assert!(l.log_start().0 >= l.header_lines);
        assert_eq!(l.data_start().0, l.header_lines + l.log_lines);
        assert_eq!(l.total_lines(), l.header_lines + l.log_lines + l.data_lines);
    }

    #[test]
    fn vpm_translation_round_trips() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let l = pool.layout();
        for v in [0u64, 1, l.data_lines - 1] {
            let abs = l.vpm_to_pool(v).unwrap();
            assert_eq!(l.pool_to_vpm(abs), Some(v));
        }
        assert!(l.vpm_to_pool(l.data_lines).is_err());
        assert_eq!(l.pool_to_vpm(LineAddr(0)), None);
        assert_eq!(l.pool_to_vpm(l.log_start()), None);
    }

    #[test]
    fn epoch_commit_is_durable_across_crash() {
        let mut pool =
            PmPool::create(PoolConfig::small().with_domain(PersistenceDomain::None)).unwrap();
        pool.commit_epoch(7).unwrap();
        pool.crash();
        assert_eq!(pool.committed_epoch().unwrap(), 7);
    }

    #[test]
    fn tenant_epoch_slots_are_independent() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        pool.commit_epoch_for(0, 5).unwrap();
        pool.commit_epoch_for(1, 9).unwrap();
        pool.commit_epoch_for(3, 2).unwrap();
        assert_eq!(pool.committed_epoch_for(0).unwrap(), 5);
        assert_eq!(pool.committed_epoch_for(1).unwrap(), 9);
        assert_eq!(pool.committed_epoch_for(2).unwrap(), 0);
        assert_eq!(pool.committed_epoch_for(3).unwrap(), 2);
        // Tenant 0 aliases the legacy single-tenant slot.
        assert_eq!(pool.committed_epoch().unwrap(), 5);
    }

    #[test]
    fn tenant_epoch_commit_survives_crash() {
        let mut pool =
            PmPool::create(PoolConfig::small().with_domain(PersistenceDomain::None)).unwrap();
        pool.commit_epoch_for(2, 11).unwrap();
        pool.crash();
        assert_eq!(pool.committed_epoch_for(2).unwrap(), 11);
    }

    #[test]
    fn tenant_slot_out_of_range_is_config_error() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        assert!(matches!(pool.committed_epoch_for(MAX_TENANTS), Err(PmError::Config(_))));
        assert!(matches!(pool.commit_epoch_for(MAX_TENANTS, 1), Err(PmError::Config(_))));
    }

    #[test]
    fn rejects_degenerate_layouts() {
        assert!(PmPool::create(PoolConfig::small().with_log_bytes(0)).is_err());
        assert!(PmPool::create(PoolConfig::small().with_data_bytes(0)).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("pax-pm-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pool");

        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        pool.commit_epoch(3).unwrap();
        let data0 = pool.layout().data_start();
        pool.write_line(data0, CacheLine::filled(0x5A)).unwrap();
        pool.drain();
        pool.save(&path).unwrap();

        let mut re = PmPool::load(&path).unwrap();
        assert_eq!(re.committed_epoch().unwrap(), 3);
        assert_eq!(re.read_line(data0).unwrap(), CacheLine::filled(0x5A));
        assert_eq!(re.layout(), pool.layout());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_excludes_non_durable_writes_without_adr() {
        let dir = std::env::temp_dir().join("pax-pm-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("volatile.pool");

        let mut pool =
            PmPool::create(PoolConfig::small().with_domain(PersistenceDomain::None)).unwrap();
        let data0 = pool.layout().data_start();
        pool.write_line(data0, CacheLine::filled(0xEE)).unwrap();
        // No drain: the write sits in the WPQ, which domain=None loses.
        pool.save(&path).unwrap();

        let mut re = PmPool::load(&path).unwrap();
        assert_eq!(re.read_line(data0).unwrap(), CacheLine::zeroed());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_a_version_1_file() {
        let dir = std::env::temp_dir().join("pax-pm-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version1.pool");
        PmPool::create(PoolConfig::small()).unwrap().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match PmPool::load(&path) {
            Err(PmError::BadPool(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            other => panic!("expected BadPool, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("pax-pm-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.pool");
        fs::write(&path, b"definitely not a pool file, far too short").unwrap();
        match PmPool::load(&path) {
            Err(PmError::BadPool(_)) | Err(PmError::Io(_)) => {}
            other => panic!("expected load failure, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }
}
