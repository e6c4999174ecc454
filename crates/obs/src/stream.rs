//! Bounded broadcast buffer for live trace streaming.
//!
//! A [`TraceBuffer`] decouples trace *production* (pipeline workers
//! recording spans and progress events) from *consumption* (an HTTP
//! client tailing `GET /jobs/<id>/trace?follow=1` on `acppd`). The buffer
//! is a fixed-capacity ring with a monotone sequence number: publishing
//! **never blocks on readers** — when the ring is full the oldest record
//! is evicted and counted, so a slow (or stalled, or absent) reader can
//! lose history but can never stall a pipeline worker. Readers poll with
//! a cursor and a timeout ([`TraceBuffer::poll_since`]); a condvar wakes
//! them as soon as new records arrive, so a live tail sees events with
//! sub-millisecond latency without busy-waiting.
//!
//! The records flowing through the buffer are ordinary [`SpanRecord`]s —
//! the same closed, redaction-safe schema as the post-hoc trace file.
//! Events are published when recorded and spans when they *close* (so
//! every record appears exactly once, complete); consequently the stream
//! is ordered by completion time, not by id, and a child event can
//! precede its parent span.

use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Default ring capacity for per-job stream buffers: deep enough to hold
/// every span of a large journaled run, small enough to bound memory at
/// roughly a hundred kilobytes per job.
pub const DEFAULT_STREAM_CAPACITY: usize = 1024;

#[derive(Debug)]
struct StreamState {
    ring: VecDeque<(u64, SpanRecord)>,
    next_seq: u64,
    dropped: u64,
    closed: bool,
}

/// A bounded, broadcast, drop-oldest record buffer. See the module docs.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    state: Mutex<StreamState>,
    wake: Condvar,
}

/// One batch of records returned by [`TraceBuffer::poll_since`].
#[derive(Debug)]
pub struct StreamChunk {
    /// `(sequence, record)` pairs, in publication order.
    pub records: Vec<(u64, SpanRecord)>,
    /// The cursor to pass to the next poll.
    pub next_seq: u64,
    /// Records this reader missed because the ring evicted them before
    /// the poll (0 for a reader that keeps up).
    pub missed: u64,
    /// Whether the producer has closed the buffer; once `closed` is true
    /// and `records` is empty the stream is finished.
    pub closed: bool,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity: capacity.max(1),
            state: Mutex::new(StreamState {
                ring: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, StreamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes one record, evicting the oldest if the ring is full.
    /// Never blocks beyond the internal (uncontended-short) lock.
    pub fn publish(&self, record: SpanRecord) {
        let mut st = self.locked();
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        let seq = st.next_seq;
        st.ring.push_back((seq, record));
        st.next_seq += 1;
        drop(st);
        self.wake.notify_all();
    }

    /// Marks the stream finished (the job reached a terminal state) and
    /// wakes every waiting reader.
    pub fn close(&self) {
        self.locked().closed = true;
        self.wake.notify_all();
    }

    /// Total records evicted before any reader saw them.
    pub fn dropped(&self) -> u64 {
        self.locked().dropped
    }

    /// Returns every buffered record with sequence `>= cursor`, blocking
    /// up to `timeout` for new records when none are ready. An empty
    /// `records` with `closed = false` means the timeout elapsed; with
    /// `closed = true` the stream is over.
    pub fn poll_since(&self, cursor: u64, timeout: Duration) -> StreamChunk {
        let mut st = self.locked();
        loop {
            if st.next_seq > cursor || st.closed {
                let oldest = st.ring.front().map_or(st.next_seq, |(s, _)| *s);
                let missed = oldest.saturating_sub(cursor);
                let records: Vec<(u64, SpanRecord)> = st
                    .ring
                    .iter()
                    .filter(|(s, _)| *s >= cursor)
                    .map(|(s, r)| (*s, r.clone()))
                    .collect();
                return StreamChunk { records, next_seq: st.next_seq, missed, closed: st.closed };
            }
            let (guard, wait) = match self.wake.wait_timeout(st, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let (guard, wait) = poisoned.into_inner();
                    (guard, wait)
                }
            };
            st = guard;
            if wait.timed_out() {
                return StreamChunk {
                    records: Vec::new(),
                    next_seq: st.next_seq,
                    missed: 0,
                    closed: st.closed,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Telemetry;
    use std::sync::Arc;

    fn rec(t: &Telemetry) -> SpanRecord {
        t.event("journal.checkpoint", &[]);
        t.records().pop().expect("event recorded")
    }

    #[test]
    fn readers_see_published_records_in_order() {
        let t = Telemetry::enabled();
        let buf = TraceBuffer::new(8);
        for _ in 0..3 {
            buf.publish(rec(&t));
        }
        let chunk = buf.poll_since(0, Duration::from_millis(1));
        assert_eq!(chunk.records.len(), 3);
        assert_eq!(chunk.next_seq, 3);
        assert_eq!(chunk.missed, 0);
        assert!(!chunk.closed);
        let seqs: Vec<u64> = chunk.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // A caught-up reader times out empty.
        let chunk = buf.poll_since(3, Duration::from_millis(1));
        assert!(chunk.records.is_empty());
    }

    #[test]
    fn full_ring_drops_oldest_and_reports_missed() {
        let t = Telemetry::enabled();
        let buf = TraceBuffer::new(2);
        for _ in 0..5 {
            buf.publish(rec(&t));
        }
        assert_eq!(buf.dropped(), 3);
        let chunk = buf.poll_since(0, Duration::from_millis(1));
        assert_eq!(chunk.records.len(), 2, "only the newest survive");
        assert_eq!(chunk.missed, 3, "reader is told what it lost");
        assert_eq!(chunk.records[0].0, 3);
    }

    #[test]
    fn close_wakes_blocked_readers() {
        let buf = Arc::new(TraceBuffer::new(4));
        let reader = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || buf.poll_since(0, Duration::from_secs(30)))
        };
        // Give the reader a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        buf.close();
        let chunk = reader.join().expect("reader thread");
        assert!(chunk.closed);
        assert!(chunk.records.is_empty());
    }

    #[test]
    fn publish_never_blocks_without_readers() {
        // Built once, outside the timed loop: `rec` reads back every record
        // so far, which would make the loop quadratic in the helper.
        let record = rec(&Telemetry::enabled());
        let buf = TraceBuffer::new(1);
        let start = std::time::Instant::now();
        for _ in 0..10_000 {
            buf.publish(record.clone());
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(buf.dropped(), 9_999);
    }
}
