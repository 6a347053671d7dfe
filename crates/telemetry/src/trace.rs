//! Bounded structured trace buffer with a global simulation sequence.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

static SIM_SEQUENCE: AtomicU64 = AtomicU64::new(0);

/// Process-global monotonic event sequence.
///
/// Every trace record is stamped from one shared counter, so events from
/// different components (and different pools running in the same test
/// process) are totally ordered without any clock plumbing. Sequence
/// numbers are unique and increasing; they are not timestamps.
pub struct SimClock;

impl SimClock {
    /// Stamps and returns the next sequence number.
    pub fn tick() -> u64 {
        SIM_SEQUENCE.fetch_add(1, Ordering::Relaxed)
    }

    /// The next sequence number that [`SimClock::tick`] would return.
    pub fn now() -> u64 {
        SIM_SEQUENCE.load(Ordering::Relaxed)
    }
}

/// One structured event in the life of the simulated stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A coherence protocol message (`op` names the message, e.g.
    /// `"rd_own"`, `"snp_inv"`).
    Coherence {
        /// Message kind.
        op: Cow<'static, str>,
        /// Cache line address the message concerns.
        line: u64,
    },
    /// An undo-log entry was appended for a line's pre-image.
    LogAppend {
        /// Epoch the entry belongs to.
        epoch: u64,
        /// Logged line address.
        line: u64,
    },
    /// A dirty line was written back to media.
    WriteBack {
        /// Written-back line address.
        line: u64,
    },
    /// An epoch committed (its log entries became dead).
    EpochCommit {
        /// The committed epoch.
        epoch: u64,
        /// Log entries retired by the commit.
        entries: u64,
    },
    /// A crash was injected.
    Crash {
        /// Epoch that was in flight when the crash hit.
        epoch: u64,
    },
    /// Recovery rolled one line back to its logged pre-image.
    RecoveryStep {
        /// Epoch whose entry was rolled back.
        epoch: u64,
        /// Restored line address.
        line: u64,
    },
    /// One virtual tick of the device scheduler made background progress
    /// (zero-work ticks are identity transitions and are not recorded).
    Tick {
        /// The scheduler's virtual-time tick counter after the tick.
        tick: u64,
        /// Durable-write steps performed during the tick (log drain,
        /// write back, persist drain, commit).
        work: u64,
    },
}

impl TraceEvent {
    fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Coherence { .. } => "coherence",
            TraceEvent::LogAppend { .. } => "log_append",
            TraceEvent::WriteBack { .. } => "write_back",
            TraceEvent::EpochCommit { .. } => "epoch_commit",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::RecoveryStep { .. } => "recovery_step",
            TraceEvent::Tick { .. } => "tick",
        }
    }

    fn to_json(&self) -> Json {
        let base = Json::obj().field("type", Json::str(self.kind()));
        match self {
            TraceEvent::Coherence { op, line } => {
                base.field("op", Json::str(op.clone().into_owned())).field("line", Json::U64(*line))
            }
            TraceEvent::LogAppend { epoch, line } => {
                base.field("epoch", Json::U64(*epoch)).field("line", Json::U64(*line))
            }
            TraceEvent::WriteBack { line } => base.field("line", Json::U64(*line)),
            TraceEvent::EpochCommit { epoch, entries } => {
                base.field("epoch", Json::U64(*epoch)).field("entries", Json::U64(*entries))
            }
            TraceEvent::Crash { epoch } => base.field("epoch", Json::U64(*epoch)),
            TraceEvent::RecoveryStep { epoch, line } => {
                base.field("epoch", Json::U64(*epoch)).field("line", Json::U64(*line))
            }
            TraceEvent::Tick { tick, work } => {
                base.field("tick", Json::U64(*tick)).field("work", Json::U64(*work))
            }
        }
    }

    fn from_json(j: &Json) -> Result<TraceEvent, String> {
        let kind = j.get("type").and_then(Json::as_str).ok_or("event missing 'type'")?;
        let u64_field = |name: &str| -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing '{name}'"))
        };
        match kind {
            "coherence" => Ok(TraceEvent::Coherence {
                op: Cow::Owned(
                    j.get("op")
                        .and_then(Json::as_str)
                        .ok_or("coherence event missing 'op'")?
                        .to_string(),
                ),
                line: u64_field("line")?,
            }),
            "log_append" => {
                Ok(TraceEvent::LogAppend { epoch: u64_field("epoch")?, line: u64_field("line")? })
            }
            "write_back" => Ok(TraceEvent::WriteBack { line: u64_field("line")? }),
            "epoch_commit" => Ok(TraceEvent::EpochCommit {
                epoch: u64_field("epoch")?,
                entries: u64_field("entries")?,
            }),
            "crash" => Ok(TraceEvent::Crash { epoch: u64_field("epoch")? }),
            "recovery_step" => Ok(TraceEvent::RecoveryStep {
                epoch: u64_field("epoch")?,
                line: u64_field("line")?,
            }),
            "tick" => Ok(TraceEvent::Tick { tick: u64_field("tick")?, work: u64_field("work")? }),
            other => Err(format!("unknown event type '{other}'")),
        }
    }
}

/// A sequenced, attributed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Sequence number: the global [`SimClock`]'s for a record made by
    /// [`TraceBuf::record`], the producer's own for one handed over
    /// through [`TraceBuf::from_records`].
    pub seq: u64,
    /// Component that emitted the event (e.g. `"device"`).
    pub component: Cow<'static, str>,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    fn to_json(&self) -> Json {
        // Flatten the event fields next to seq/component so each dump
        // line is one shallow object.
        let mut out = Json::obj()
            .field("seq", Json::U64(self.seq))
            .field("component", Json::str(self.component.clone().into_owned()));
        if let Json::Obj(fields) = self.event.to_json() {
            for (k, v) in fields {
                out = out.field(&k, v);
            }
        }
        out
    }

    fn from_json(j: &Json) -> Result<TraceRecord, String> {
        Ok(TraceRecord {
            seq: j.get("seq").and_then(Json::as_u64).ok_or("record missing 'seq'")?,
            component: Cow::Owned(
                j.get("component")
                    .and_then(Json::as_str)
                    .ok_or("record missing 'component'")?
                    .to_string(),
            ),
            event: TraceEvent::from_json(j)?,
        })
    }
}

/// A bounded ring of [`TraceRecord`]s.
///
/// When full, the oldest records are evicted and counted in
/// [`TraceBuf::dropped`] — recent history is what matters for post-crash
/// forensics. A buffer built with [`TraceBuf::disabled`] ignores all
/// events at near-zero cost.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuf {
    /// An enabled buffer retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuf { capacity, records: VecDeque::new(), dropped: 0 }
    }

    /// A buffer retaining `records` (oldest first, already sequenced),
    /// with `dropped` earlier records counted as evicted — how a producer
    /// that keeps its own rings hands them out as one buffer. Keeps the
    /// newest `capacity`, counting the rest as dropped too.
    pub fn from_records(
        capacity: usize,
        records: impl IntoIterator<Item = TraceRecord>,
        dropped: u64,
    ) -> Self {
        let mut records: VecDeque<TraceRecord> = records.into_iter().collect();
        let excess = records.len().saturating_sub(capacity);
        records.drain(..excess);
        TraceBuf { capacity, records, dropped: dropped + excess as u64 }
    }

    /// A buffer that discards everything (capacity 0).
    pub fn disabled() -> Self {
        TraceBuf::default()
    }

    /// Whether this buffer retains events at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted by wraparound since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stamps `event` with the next [`SimClock`] sequence and retains it.
    pub fn record(&mut self, component: &'static str, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            seq: SimClock::tick(),
            component: Cow::Borrowed(component),
            event,
        });
    }

    /// A recording handle bound to one component name, so emit sites
    /// don't repeat it.
    pub fn scope(&mut self, component: &'static str) -> TraceScope<'_> {
        TraceScope { buf: self, component }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Serializes the retained records as JSON lines (one object per
    /// line, oldest first) — the dump format recovery tooling consumes.
    pub fn dump_json_lines(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Parses a [`TraceBuf::dump_json_lines`] dump back into records.
    pub fn parse_json_lines(text: &str) -> Result<Vec<TraceRecord>, String> {
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| TraceRecord::from_json(&Json::parse(line)?))
            .collect()
    }
}

/// A [`TraceBuf`] handle pre-bound to one component name.
pub struct TraceScope<'a> {
    buf: &'a mut TraceBuf,
    component: &'static str,
}

impl TraceScope<'_> {
    /// Records `event` under this scope's component.
    pub fn emit(&mut self, event: TraceEvent) {
        self.buf.record(self.component, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_strictly_increasing() {
        let a = SimClock::tick();
        let b = SimClock::tick();
        assert!(b > a);
        assert!(SimClock::now() > b);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let mut buf = TraceBuf::new(4);
        for line in 0..6u64 {
            buf.record("dev", TraceEvent::WriteBack { line });
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 2);
        let lines: Vec<u64> = buf
            .records()
            .map(|r| match r.event {
                TraceEvent::WriteBack { line } => line,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lines, vec![2, 3, 4, 5], "oldest events evicted first");
    }

    #[test]
    fn event_ordering_follows_sim_clock() {
        let mut buf = TraceBuf::new(16);
        buf.record("cache", TraceEvent::Coherence { op: "rd_own".into(), line: 1 });
        buf.record("dev", TraceEvent::LogAppend { epoch: 0, line: 1 });
        buf.record("dev", TraceEvent::EpochCommit { epoch: 0, entries: 1 });
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq strictly increases: {seqs:?}");
    }

    #[test]
    fn from_records_keeps_the_newest_capacity() {
        let records = (0..6u64).map(|seq| TraceRecord {
            seq,
            component: Cow::Borrowed("dev"),
            event: TraceEvent::WriteBack { line: seq },
        });
        let buf = TraceBuf::from_records(4, records, 3);
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        assert_eq!(buf.dropped(), 5, "the 3 handed over plus the 2 trimmed");
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = TraceBuf::disabled();
        buf.record("dev", TraceEvent::Crash { epoch: 3 });
        assert!(buf.is_empty());
        assert!(!buf.is_enabled());
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn dump_round_trips_every_event_kind() {
        let mut buf = TraceBuf::new(16);
        buf.record("cache", TraceEvent::Coherence { op: "snp_inv".into(), line: 7 });
        buf.record("dev", TraceEvent::LogAppend { epoch: 2, line: 7 });
        buf.record("dev", TraceEvent::WriteBack { line: 7 });
        buf.record("dev", TraceEvent::EpochCommit { epoch: 2, entries: 1 });
        buf.record("dev", TraceEvent::Crash { epoch: 3 });
        buf.record("dev", TraceEvent::RecoveryStep { epoch: 3, line: 9 });
        buf.record("dev", TraceEvent::Tick { tick: 41, work: 6 });
        let parsed = TraceBuf::parse_json_lines(&buf.dump_json_lines()).unwrap();
        let original: Vec<TraceRecord> = buf.records().cloned().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_unknown_event_type() {
        let err = TraceBuf::parse_json_lines(
            "{\"seq\":1,\"component\":\"dev\",\"type\":\"warp_core_breach\"}\n",
        );
        assert!(err.is_err());
    }

    #[test]
    fn scope_attributes_events_to_its_component() {
        let mut buf = TraceBuf::new(4);
        buf.scope("pm").emit(TraceEvent::WriteBack { line: 1 });
        assert_eq!(buf.records().next().unwrap().component, "pm");
    }
}
