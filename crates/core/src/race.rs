//! Context-level command recording — the one recorder behind `cl-flow`
//! and `cl-race`.
//!
//! A `RaceLog` aggregates the streams of *every* queue of a context,
//! tagged with queue ids and interleaved with the sync points (`finish`,
//! markers, blocking transfers) that order them. The whole log feeds
//! [`cl_analyze::hb`]: happens-before classification of every cross-queue
//! conflicting pair, the over-synchronization certifier, and the dynamic
//! vector-clock layer. One queue's commands ([`RaceLog::queue_commands`])
//! feed the single-stream dataflow analysis, [`cl_analyze::analyze_flow`].
//!
//! The log is also the only history of an out-of-order queue: its
//! scheduler holds pending commands only. Each out-of-order command (and
//! each blocking transfer or map on such a queue) carries a *stamp*, the
//! log's push count where its dependencies were decided; commands record
//! at completion, so everything recorded before the stamp had completed.
//! Reading the log derives the completion-before-submission edges from the
//! stamps ([`cl_analyze::hb::completion_waits`]); nothing on the submit or
//! record path scans the history.
//!
//! Recording is opt-in per context ([`crate::context::ContextConfig`] /
//! `CL_RACE=1`); with it off the context holds no log and every record
//! site in the queue is a single `Option` branch (`cl-bench`'s
//! `overhead/race-off` entry gates that path).

use std::sync::atomic::{AtomicU64, Ordering};

use cl_analyze::flow::FlowCommand;
use cl_analyze::hb::{analyze_hb, vector_clock_check, HbAnalysis, HbOp, HbRecord, VcReport};
use cl_util::sync::Mutex;

use crate::buffer::{Buffer, Pod};
use crate::flow::host_access_command;

/// An in-memory recording of a context's multi-queue command stream.
#[derive(Default)]
pub struct RaceLog {
    records: Mutex<Records>,
    next_map_id: AtomicU64,
}

#[derive(Default)]
struct Records {
    held: Vec<HbRecord>,
    /// Records dropped by [`RaceLog::clear`]: with `held.len()`, the push
    /// count a stamp is taken from.
    cleared: u64,
}

impl RaceLog {
    pub fn new() -> Self {
        RaceLog::default()
    }

    /// Append `r`. Its stamp, taken from [`RaceLog::stamp`], is rebased to
    /// count only the records still held: a stamp taken before a `clear`
    /// counts none of them.
    pub(crate) fn push(&self, mut r: HbRecord) {
        let mut log = self.records.lock();
        if let Some(s) = &mut r.stamp {
            *s = s.saturating_sub(log.cleared);
        }
        log.held.push(r);
    }

    /// How many records have ever been pushed, cleared ones included. A
    /// command stamped with this value orders after every command already
    /// recorded — each of them has completed.
    pub(crate) fn stamp(&self) -> u64 {
        let log = self.records.lock();
        log.cleared + log.held.len() as u64
    }

    pub(crate) fn next_map_id(&self) -> u64 {
        self.next_map_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot of the recorded stream.
    pub fn records(&self) -> Vec<HbRecord> {
        self.records.lock().held.clone()
    }

    /// Queue `queue`'s commands in recording order, sync points dropped:
    /// the single-stream view [`cl_analyze::analyze_flow`] takes. Commands
    /// record at completion, so on an out-of-order queue this is
    /// completion order, not submission order.
    pub fn queue_commands(&self, queue: u64) -> Vec<FlowCommand> {
        self.records
            .lock()
            .held
            .iter()
            .filter(|r| r.queue == queue)
            .filter_map(|r| match &r.op {
                HbOp::Command { cmd, .. } => Some(cmd.clone()),
                HbOp::Finish | HbOp::Marker => None,
            })
            .collect()
    }

    /// Number of recorded entries (commands and sync points).
    pub fn len(&self) -> usize {
        self.records.lock().held.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().held.is_empty()
    }

    /// Drop all recorded entries.
    pub fn clear(&self) {
        let mut log = self.records.lock();
        log.cleared += log.held.len() as u64;
        log.held.clear();
    }

    /// Static layer: happens-before graph + cross-queue classification.
    pub fn analyze(&self) -> HbAnalysis {
        analyze_hb(&self.records.lock().held)
    }

    /// Both layers: the static analysis plus the vector-clock replay of the
    /// observed schedule, which must agree with it.
    pub fn check(&self) -> (HbAnalysis, VcReport) {
        let records = self.records();
        let analysis = analyze_hb(&records);
        let vc = vector_clock_check(&records, &analysis);
        (analysis, vc)
    }

    /// Record a raw host access to `elems` (element range within the
    /// buffer's window) performed outside any queue, attributed to
    /// `queue`. `via_map: None` models touching device memory outside any
    /// mapping — the unsynchronized-host-access violation; `Some(id)`
    /// attributes the access to a live mapping (see `TypedMap::map_id`).
    pub fn record_host_access<T: Pod>(
        &self,
        queue: u64,
        buf: &Buffer<T>,
        elems: std::ops::Range<usize>,
        write: bool,
        via_map: Option<u64>,
    ) {
        let cmd = host_access_command(buf, elems, write, via_map);
        self.push(HbRecord::command(queue, 0, cmd, false));
    }
}

impl std::fmt::Debug for RaceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RaceLog({} records)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_analyze::flow::FlowOp;

    /// A stamp taken before `clear` counts none of the records still held,
    /// and one taken after counts only those pushed since.
    #[test]
    fn clear_rebases_stamps() {
        let log = RaceLog::new();
        let cmd = || FlowCommand::new(FlowOp::WriteBuffer, "write", Vec::new());
        let ooo = |seq, stamp| {
            HbRecord::command(1, seq, cmd(), true)
                .ooo_waits(Vec::new())
                .stamped(Some(stamp))
        };
        log.push(HbRecord::command(1, 0, cmd(), true));
        let before_clear = log.stamp();
        log.clear();
        log.push(HbRecord::command(1, 1, cmd(), true));
        let after_clear = log.stamp();
        log.push(ooo(2, before_clear));
        log.push(ooo(3, after_clear));
        let stamps: Vec<Option<u64>> = log.records().iter().map(|r| r.stamp).collect();
        assert_eq!(stamps, [None, Some(0), Some(1)]);
    }
}
