//! Process-wide admission control for queries.
//!
//! A [`Governor`] gates query starts on two aggregate resources: the
//! number of concurrently running queries and the sum of their memory
//! reservations. Arrivals that do not fit wait in a bounded FIFO queue;
//! a full queue or a queue-timeout sheds the query with
//! [`CoreError::Overloaded`] instead of letting an overloaded process
//! thrash. Admission is a RAII [`AdmissionPermit`]: dropping it (on any
//! exit path, including panics and aborted queries) releases capacity
//! and wakes the queue head.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::CoreError;

/// Sizing and shedding knobs for a [`Governor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Queries allowed to run concurrently (0 = unlimited).
    pub max_concurrent: usize,
    /// Aggregate memory reservation across running queries, in bytes
    /// (0 = unlimited). A query that alone exceeds this still runs —
    /// by itself — so an over-sized budget degrades to serial execution
    /// rather than deadlock.
    pub max_total_memory: u64,
    /// Reservation charged for a query with no explicit memory budget.
    pub default_reservation: u64,
    /// Arrivals allowed to wait before new ones shed immediately.
    pub max_queue: usize,
    /// Longest an arrival waits before it sheds.
    pub queue_timeout: Duration,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            max_concurrent: 0,
            max_total_memory: 0,
            default_reservation: 64 << 20,
            max_queue: 128,
            queue_timeout: Duration::from_secs(10),
        }
    }
}

impl GovernorConfig {
    /// A governor that only caps concurrency.
    pub fn concurrency(max_concurrent: usize) -> GovernorConfig {
        GovernorConfig {
            max_concurrent,
            ..GovernorConfig::default()
        }
    }
}

/// Admission counters plus a bounded ring of queue-wait samples.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GovernorStats {
    /// Queries admitted (immediately or after queueing).
    pub admitted: u64,
    /// Admitted queries that had to wait in the queue first.
    pub queued: u64,
    /// Arrivals rejected: queue full or queue timeout.
    pub shed: u64,
    /// Queue-wait samples in nanoseconds for *queued* admissions
    /// (immediate admissions wait zero and are not sampled). Bounded:
    /// newest [`WAIT_SAMPLE_CAP`] kept.
    pub queue_wait_nanos: Vec<u64>,
}

/// Retained queue-wait samples before the oldest is overwritten.
pub const WAIT_SAMPLE_CAP: usize = 4096;

impl GovernorStats {
    /// Percentile (`p` in 0..=100) over the recorded queue waits.
    pub fn queue_wait_percentile(&self, p: f64) -> Option<Duration> {
        if self.queue_wait_nanos.is_empty() {
            return None;
        }
        let mut v = self.queue_wait_nanos.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(Duration::from_nanos(v[rank.min(v.len() - 1)]))
    }
}

#[derive(Debug, Default)]
struct State {
    running: usize,
    mem_in_use: u64,
    /// Tickets of waiting arrivals, FIFO. Admission strictly follows
    /// queue order so a stream of small queries cannot starve a large
    /// one waiting at the head.
    queue: VecDeque<u64>,
    next_ticket: u64,
    stats: GovernorStats,
    /// Ring cursor into `stats.queue_wait_nanos` once it is full.
    wait_pos: usize,
}

/// See the module docs. Shared as `Arc<Governor>`; all entry points
/// take `&Arc<Self>` so permits can hold the governor alive.
#[derive(Debug)]
pub struct Governor {
    config: GovernorConfig,
    state: Mutex<State>,
    cond: Condvar,
}

impl Governor {
    /// A governor with the given config.
    pub fn new(config: GovernorConfig) -> Arc<Governor> {
        Arc::new(Governor {
            config,
            state: Mutex::new(State::default()),
            cond: Condvar::new(),
        })
    }

    /// The configuration this governor enforces.
    pub fn config(&self) -> GovernorConfig {
        self.config
    }

    /// Queries currently running under a permit.
    pub fn running(&self) -> usize {
        self.state.lock().expect("governor state").running
    }

    /// Arrivals currently waiting in the queue.
    pub fn waiting(&self) -> usize {
        self.state.lock().expect("governor state").queue.len()
    }

    /// A snapshot of the admission counters.
    pub fn stats(&self) -> GovernorStats {
        self.state.lock().expect("governor state").stats.clone()
    }

    /// Clears the admission counters and wait samples.
    pub fn reset_stats(&self) {
        let mut st = self.state.lock().expect("governor state");
        st.stats = GovernorStats::default();
        st.wait_pos = 0;
    }

    fn fits(&self, st: &State, reservation: u64) -> bool {
        let c = &self.config;
        if c.max_concurrent > 0 && st.running >= c.max_concurrent {
            return false;
        }
        if c.max_total_memory > 0 && st.mem_in_use + reservation > c.max_total_memory {
            // An over-sized query may still run alone (see config docs).
            return st.running == 0;
        }
        true
    }

    fn grant(self: &Arc<Self>, st: &mut State, reservation: u64) -> AdmissionPermit {
        st.running += 1;
        st.mem_in_use += reservation;
        st.stats.admitted += 1;
        if telemetry::enabled() {
            crate::metrics::governor_admitted().inc();
        }
        AdmissionPermit {
            governor: Arc::clone(self),
            reservation,
        }
    }

    fn record_wait(st: &mut State, nanos: u64) {
        if st.stats.queue_wait_nanos.len() < WAIT_SAMPLE_CAP {
            st.stats.queue_wait_nanos.push(nanos);
        } else {
            let pos = st.wait_pos % WAIT_SAMPLE_CAP;
            st.stats.queue_wait_nanos[pos] = nanos;
            st.wait_pos = pos + 1;
        }
        if telemetry::enabled() {
            crate::metrics::governor_queue_wait_nanos().record(nanos);
        }
    }

    /// Admits a query reserving `reservation` bytes, waiting in the
    /// FIFO queue if the process is at capacity. Sheds with
    /// [`CoreError::Overloaded`] when the queue is full or the wait
    /// exceeds [`GovernorConfig::queue_timeout`].
    pub fn admit(self: &Arc<Self>, reservation: u64) -> Result<AdmissionPermit, CoreError> {
        let reservation = if reservation == 0 {
            self.config.default_reservation
        } else {
            reservation
        };
        let mut st = self.state.lock().expect("governor state");
        if st.queue.is_empty() && self.fits(&st, reservation) {
            return Ok(self.grant(&mut st, reservation));
        }
        if st.queue.len() >= self.config.max_queue.max(1) {
            st.stats.shed += 1;
            if telemetry::enabled() {
                crate::metrics::governor_shed().inc();
            }
            return Err(CoreError::Overloaded(format!(
                "admission queue full ({} queries waiting)",
                st.queue.len()
            )));
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        st.stats.queued += 1;
        if telemetry::enabled() {
            crate::metrics::governor_queued().inc();
        }
        let start = Instant::now();
        let deadline = start + self.config.queue_timeout;
        loop {
            if st.queue.front() == Some(&ticket) && self.fits(&st, reservation) {
                st.queue.pop_front();
                Self::record_wait(&mut st, start.elapsed().as_nanos() as u64);
                let permit = self.grant(&mut st, reservation);
                drop(st);
                // The next waiter may also fit (e.g. under a memory cap).
                self.cond.notify_all();
                return Ok(permit);
            }
            let now = Instant::now();
            if now >= deadline {
                st.queue.retain(|t| *t != ticket);
                st.stats.shed += 1;
                if telemetry::enabled() {
                    crate::metrics::governor_shed().inc();
                }
                drop(st);
                // Our departure may unblock the waiter behind us.
                self.cond.notify_all();
                return Err(CoreError::Overloaded(format!(
                    "shed after waiting {:?} for admission",
                    self.config.queue_timeout
                )));
            }
            let (guard, _) = self
                .cond
                .wait_timeout(st, deadline - now)
                .expect("governor state");
            st = guard;
        }
    }
}

/// Capacity held by one admitted query; released on drop.
#[derive(Debug)]
pub struct AdmissionPermit {
    governor: Arc<Governor>,
    reservation: u64,
}

impl AdmissionPermit {
    /// The memory reservation this permit holds, in bytes.
    pub fn reservation(&self) -> u64 {
        self.reservation
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.governor.state.lock().expect("governor state");
        st.running -= 1;
        st.mem_in_use -= self.reservation;
        drop(st);
        self.governor.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn admits_up_to_the_concurrency_cap() {
        let g = Governor::new(GovernorConfig::concurrency(2));
        let a = g.admit(0).unwrap();
        let _b = g.admit(0).unwrap();
        assert_eq!(g.running(), 2);
        // Third arrival must queue; with a zero timeout it sheds.
        let g3 = Governor::new(GovernorConfig {
            max_concurrent: 1,
            queue_timeout: Duration::ZERO,
            ..GovernorConfig::default()
        });
        let _hold = g3.admit(0).unwrap();
        assert!(matches!(g3.admit(0), Err(CoreError::Overloaded(_))));
        assert_eq!(g3.stats().shed, 1);
        drop(a);
        assert_eq!(g.running(), 1);
    }

    #[test]
    fn release_admits_the_queue_head_fifo() {
        let g = Governor::new(GovernorConfig {
            max_concurrent: 1,
            queue_timeout: Duration::from_secs(5),
            ..GovernorConfig::default()
        });
        let first = g.admit(0).unwrap();
        let order = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..3 {
            let gc = Arc::clone(&g);
            let order = Arc::clone(&order);
            // Stagger arrivals so queue order is deterministic.
            while g.waiting() < i {
                std::thread::yield_now();
            }
            handles.push(std::thread::spawn(move || {
                let permit = gc.admit(0).unwrap();
                let pos = order.fetch_add(1, Ordering::SeqCst);
                drop(permit);
                (i, pos)
            }));
            while g.waiting() <= i {
                std::thread::yield_now();
            }
        }
        drop(first);
        let mut results: Vec<(usize, usize)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort();
        // Arrival i was admitted i-th.
        for (i, pos) in results {
            assert_eq!(i, pos, "FIFO admission order violated");
        }
        let stats = g.stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.queued, 3);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_wait_nanos.len(), 3);
        assert!(stats.queue_wait_percentile(50.0).is_some());
    }

    #[test]
    fn memory_cap_gates_aggregate_reservations() {
        let g = Governor::new(GovernorConfig {
            max_total_memory: 100,
            queue_timeout: Duration::ZERO,
            ..GovernorConfig::default()
        });
        let a = g.admit(60).unwrap();
        assert!(matches!(g.admit(60), Err(CoreError::Overloaded(_))));
        let _b = g.admit(40).unwrap();
        drop(a);
        // An over-sized query runs alone rather than deadlocking.
        let g2 = Governor::new(GovernorConfig {
            max_total_memory: 100,
            queue_timeout: Duration::ZERO,
            ..GovernorConfig::default()
        });
        let big = g2.admit(1000).unwrap();
        assert_eq!(big.reservation(), 1000);
        assert!(matches!(g2.admit(10), Err(CoreError::Overloaded(_))));
        drop(big);
        g2.admit(10).unwrap();
    }

    #[test]
    fn queue_full_sheds_immediately() {
        let g = Governor::new(GovernorConfig {
            max_concurrent: 1,
            max_queue: 1,
            queue_timeout: Duration::from_secs(5),
            ..GovernorConfig::default()
        });
        let _hold = g.admit(0).unwrap();
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.admit(0).map(drop))
        };
        while g.waiting() < 1 {
            std::thread::yield_now();
        }
        // Queue is at max_queue: the next arrival sheds without waiting.
        let t0 = Instant::now();
        assert!(matches!(g.admit(0), Err(CoreError::Overloaded(_))));
        assert!(t0.elapsed() < Duration::from_secs(1));
        drop(_hold);
        waiter.join().unwrap().unwrap();
    }
}
