//! Bounded structured trace buffer; each buffer numbers its own records.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::json::Json;

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
    /// Sequence number: the buffer's count of records made before this
    /// one by [`TraceBuf::record`], or the producer's own for one handed
    /// over through [`TraceBuf::from_records`]. Unique and increasing
    /// within a buffer; not a timestamp.
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
    /// The seq [`TraceBuf::record`] stamps next.
    next_seq: u64,
}

impl TraceBuf {
    /// An enabled buffer retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuf { capacity, ..TraceBuf::default() }
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
        let next_seq = records.back().map_or(0, |r| r.seq + 1);
        TraceBuf { capacity, records, dropped: dropped + excess as u64, next_seq }
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

    /// Stamps `event` with the buffer's next sequence number and
    /// retains it.
    pub fn record(&mut self, component: &'static str, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push_back(TraceRecord { seq, component: Cow::Borrowed(component), event });
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "evicted records keep their numbers");
    }

    #[test]
    fn seq_counts_the_buffers_own_records() {
        let mut buf = TraceBuf::new(16);
        let mut other = TraceBuf::new(16);
        buf.record("cache", TraceEvent::Coherence { op: "rd_own".into(), line: 1 });
        other.record("dev", TraceEvent::WriteBack { line: 1 });
        buf.record("dev", TraceEvent::LogAppend { epoch: 0, line: 1 });
        buf.record("dev", TraceEvent::EpochCommit { epoch: 0, entries: 1 });
        let seqs: Vec<u64> = buf.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "another buffer's records take no numbers");
        assert_eq!(other.records().next().unwrap().seq, 0);
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
        let mut buf = buf;
        buf.record("dev", TraceEvent::Crash { epoch: 1 });
        assert_eq!(buf.records().last().unwrap().seq, 6, "numbering continues the producer's");
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
}
