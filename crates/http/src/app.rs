//! Client-side applications driven by connection events.

use crate::workload::PageSpec;
use longlook_sim::time::{Dur, Time};
use longlook_transport::conn::{AppEvent, Connection, StreamId};
use std::any::Any;

/// A client application running over one connection.
pub trait ClientApp: Any {
    /// Called once when the host starts.
    fn on_start(&mut self, conn: &mut dyn Connection, now: Time);

    /// A connection event for this app.
    fn on_event(&mut self, ev: AppEvent, conn: &mut dyn Connection, now: Time);

    /// Whether the workload finished.
    fn done(&self) -> bool;

    /// Time-driven apps (e.g. a video player whose buffer drains in real
    /// time) may request a wakeup; the host arranges it and calls
    /// [`ClientApp::on_tick`].
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// Called on host wakeups for time-driven apps.
    fn on_tick(&mut self, _conn: &mut dyn Connection, _now: Time) {}

    /// Downcast support for result extraction.
    fn as_any(&self) -> &dyn Any;
}

/// Per-object resource timing, HAR-style (Sec 3.3: "we use Chrome's remote
/// debugging protocol to load a page and then extract HARs").
#[derive(Debug, Clone, Copy)]
pub struct ResourceTiming {
    /// Object index in the page.
    pub object: usize,
    /// Request issue time.
    pub started: Time,
    /// First response byte.
    pub first_byte: Option<Time>,
    /// Response complete.
    pub finished: Option<Time>,
    /// Payload bytes received (includes the response header).
    pub bytes: u64,
}

/// Fetches every object of a [`PageSpec`], measuring page load time.
pub struct WebClient {
    page: PageSpec,
    started_at: Option<Time>,
    finished_at: Option<Time>,
    /// Object indices not yet requested (MSPC may defer them).
    next_object: usize,
    /// The stream each requested object went out on: object `i` on
    /// `streams[i]`. Ids ascend, so a stream's object is found by binary
    /// search; it is in flight until its `finished` time is set.
    streams: Vec<StreamId>,
    timings: Vec<ResourceTiming>,
    completed: usize,
    established: bool,
}

impl WebClient {
    /// New fetcher for `page`.
    pub fn new(page: PageSpec) -> Self {
        let timings: Vec<ResourceTiming> = (0..page.len())
            .map(|i| ResourceTiming {
                object: i,
                started: Time::ZERO,
                first_byte: None,
                finished: None,
                bytes: 0,
            })
            .collect();
        WebClient {
            page,
            started_at: None,
            finished_at: None,
            next_object: 0,
            streams: Vec::with_capacity(timings.len()),
            timings,
            completed: 0,
            established: false,
        }
    }

    fn issue_requests(&mut self, conn: &mut dyn Connection, now: Time) {
        while self.next_object < self.page.len() {
            let Some(id) = conn.open_stream(now) else {
                break; // MSPC limit: wait for streams to finish
            };
            let i = self.next_object;
            self.next_object += 1;
            debug_assert!(self.streams.last().is_none_or(|&last| last < id));
            self.streams.push(id);
            self.timings[i].started = now;
            conn.stream_send(now, id, PageSpec::request_len(i), true);
        }
    }

    /// Page load time, once finished.
    pub fn plt(&self) -> Option<Dur> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.saturating_since(s)),
            _ => None,
        }
    }

    /// HAR-style per-object timings.
    pub fn har(&self) -> &[ResourceTiming] {
        &self.timings
    }

    /// The object whose request went out on `id`, while its response is
    /// still in flight.
    fn inflight(&self, id: StreamId) -> Option<usize> {
        let obj = self.streams.binary_search(&id).ok()?;
        self.timings[obj].finished.is_none().then_some(obj)
    }

    /// When the load began.
    pub fn started_at(&self) -> Option<Time> {
        self.started_at
    }
}

impl ClientApp for WebClient {
    fn on_start(&mut self, conn: &mut dyn Connection, now: Time) {
        self.started_at = Some(now);
        if conn.is_established() {
            self.established = true;
            self.issue_requests(conn, now);
        }
        // Otherwise wait for HandshakeDone; the connection initiates the
        // handshake on its own.
    }

    fn on_event(&mut self, ev: AppEvent, conn: &mut dyn Connection, now: Time) {
        match ev {
            AppEvent::HandshakeDone => {
                if !self.established {
                    self.established = true;
                    self.issue_requests(conn, now);
                }
            }
            AppEvent::StreamData { id, bytes } => {
                if let Some(obj) = self.inflight(id) {
                    let t = &mut self.timings[obj];
                    if t.first_byte.is_none() {
                        t.first_byte = Some(now);
                    }
                    t.bytes += bytes;
                }
            }
            AppEvent::StreamFin(id) => {
                if let Some(obj) = self.inflight(id) {
                    self.timings[obj].finished = Some(now);
                    self.completed += 1;
                    if self.completed == self.page.len() {
                        self.finished_at = Some(now);
                    } else {
                        // A stream slot may have opened up (MSPC).
                        self.issue_requests(conn, now);
                    }
                }
            }
            AppEvent::StreamOpened(_) => {} // server push not modeled
        }
    }

    fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Downloads one large object forever (or until a byte target), sampling
/// throughput in fixed buckets — the instrument for the fairness (Fig 4,
/// Table 4) and variable-bandwidth (Fig 11) experiments.
pub struct BulkClient {
    /// Object index requested (catalog entry on the server).
    object: usize,
    bucket: Dur,
    /// Defer the first request by this much (staggered flow starts).
    start_delay: Dur,
    requested: bool,
    started_at: Option<Time>,
    /// Received payload bytes per bucket.
    buckets: Vec<u64>,
    total: u64,
    finished_at: Option<Time>,
    established: bool,
}

impl BulkClient {
    /// Download catalog object `object`, sampling in `bucket`-sized bins.
    pub fn new(object: usize, bucket: Dur) -> Self {
        Self::with_delay(object, bucket, Dur::ZERO)
    }

    /// Like [`BulkClient::new`] but the first request waits `start_delay`
    /// (staggered starts keep concurrent flows' handshakes from colliding
    /// in a tiny bottleneck buffer).
    pub fn with_delay(object: usize, bucket: Dur, start_delay: Dur) -> Self {
        BulkClient {
            object,
            bucket,
            start_delay,
            requested: false,
            started_at: None,
            buckets: Vec::new(),
            total: 0,
            finished_at: None,
            established: false,
        }
    }

    fn request(&mut self, conn: &mut dyn Connection, now: Time) {
        if self.requested {
            return;
        }
        if now < self.started_at.unwrap_or(Time::ZERO) + self.start_delay {
            return; // on_tick retries at the wakeup
        }
        if let Some(id) = conn.open_stream(now) {
            self.requested = true;
            conn.stream_send(now, id, PageSpec::request_len(self.object), true);
        }
    }

    /// Total payload bytes received.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Completion time, if the transfer finished.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// Throughput timeline in Mbps per bucket.
    pub fn throughput_mbps(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.buckets
            .iter()
            .map(|&b| b as f64 * 8.0 / 1e6 / secs)
            .collect()
    }
}

impl ClientApp for BulkClient {
    fn on_start(&mut self, conn: &mut dyn Connection, now: Time) {
        self.started_at = Some(now);
        if conn.is_established() {
            self.established = true;
            self.request(conn, now);
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        // Only the post-handshake delayed start needs a timer; before the
        // handshake completes, HandshakeDone triggers the request path
        // (arming a past-time wake pre-handshake would spin the world).
        if self.requested || self.finished_at.is_some() || !self.established {
            return None;
        }
        self.started_at.map(|t| t + self.start_delay)
    }

    fn on_tick(&mut self, conn: &mut dyn Connection, now: Time) {
        if self.established {
            self.request(conn, now);
        }
    }

    fn on_event(&mut self, ev: AppEvent, conn: &mut dyn Connection, now: Time) {
        match ev {
            AppEvent::HandshakeDone => {
                if !self.established {
                    self.established = true;
                    self.request(conn, now);
                }
            }
            AppEvent::StreamData { bytes, .. } => {
                self.total += bytes;
                let start = self.started_at.unwrap_or(Time::ZERO);
                let idx = (now.saturating_since(start).as_nanos() / self.bucket.as_nanos().max(1))
                    as usize;
                if self.buckets.len() <= idx {
                    self.buckets.resize(idx + 1, 0);
                }
                self.buckets[idx] += bytes;
            }
            AppEvent::StreamFin(_) => {
                self.finished_at = Some(now);
            }
            AppEvent::StreamOpened(_) => {}
        }
    }

    fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{REQUEST_BASE, RESPONSE_HEADER};
    use longlook_transport::ccstate::StateTrace;
    use longlook_transport::conn::{ConnStats, Transmit};

    /// Minimal fake connection capturing app calls.
    struct FakeConn {
        established: bool,
        streams_opened: u64,
        max_streams: u64,
        sends: Vec<(StreamId, u64, bool)>,
    }

    impl FakeConn {
        fn new(established: bool, max_streams: u64) -> Self {
            FakeConn {
                established,
                streams_opened: 0,
                max_streams,
                sends: Vec::new(),
            }
        }
    }

    impl Connection for FakeConn {
        fn on_datagram(&mut self, _p: longlook_sim::packet::Payload, _now: Time) {}
        fn poll_transmit(&mut self, _now: Time) -> Option<Transmit> {
            None
        }
        fn next_wakeup(&self) -> Option<Time> {
            None
        }
        fn on_wakeup(&mut self, _now: Time) {}
        fn open_stream(&mut self, _now: Time) -> Option<StreamId> {
            if self.streams_opened >= self.max_streams {
                return None;
            }
            self.streams_opened += 1;
            Some(StreamId(self.streams_opened * 2 + 1))
        }
        fn stream_send(&mut self, _now: Time, id: StreamId, bytes: u64, fin: bool) {
            self.sends.push((id, bytes, fin));
        }
        fn poll_event(&mut self) -> Option<AppEvent> {
            None
        }
        fn is_established(&self) -> bool {
            self.established
        }
        fn is_quiescent(&self) -> bool {
            true
        }
        fn stats(&self) -> ConnStats {
            ConnStats::default()
        }
        fn state_trace(&self, _now: Time) -> StateTrace<'static> {
            StateTrace::default()
        }
        fn srtt(&self) -> Dur {
            Dur::from_millis(36)
        }
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn webclient_requests_all_objects_when_established() {
        let mut app = WebClient::new(PageSpec::uniform(3, 1000));
        let mut conn = FakeConn::new(true, 100);
        app.on_start(&mut conn, t(0));
        assert_eq!(conn.sends.len(), 3);
        assert_eq!(conn.sends[0].1, REQUEST_BASE);
        assert_eq!(conn.sends[1].1, REQUEST_BASE + 1);
        assert!(conn.sends.iter().all(|&(_, _, fin)| fin));
    }

    #[test]
    fn webclient_waits_for_handshake() {
        let mut app = WebClient::new(PageSpec::uniform(2, 1000));
        let mut conn = FakeConn::new(false, 100);
        app.on_start(&mut conn, t(0));
        assert!(conn.sends.is_empty());
        conn.established = true;
        app.on_event(AppEvent::HandshakeDone, &mut conn, t(36));
        assert_eq!(conn.sends.len(), 2);
    }

    #[test]
    fn webclient_mspc_defers_requests() {
        let mut app = WebClient::new(PageSpec::uniform(5, 1000));
        let mut conn = FakeConn::new(true, 2);
        app.on_start(&mut conn, t(0));
        assert_eq!(conn.sends.len(), 2, "only 2 slots");
        // Finish one stream: a new request goes out.
        let first = conn.sends[0].0;
        conn.max_streams += 1;
        app.on_event(AppEvent::StreamFin(first), &mut conn, t(50));
        assert_eq!(conn.sends.len(), 3);
    }

    #[test]
    fn webclient_plt_and_har() {
        let mut app = WebClient::new(PageSpec::uniform(2, 1000));
        let mut conn = FakeConn::new(true, 100);
        app.on_start(&mut conn, t(0));
        let (s1, s2) = (conn.sends[0].0, conn.sends[1].0);
        app.on_event(
            AppEvent::StreamData {
                id: s1,
                bytes: 1000 + RESPONSE_HEADER,
            },
            &mut conn,
            t(40),
        );
        app.on_event(AppEvent::StreamFin(s1), &mut conn, t(41));
        assert!(!app.done());
        app.on_event(
            AppEvent::StreamData {
                id: s2,
                bytes: 1000 + RESPONSE_HEADER,
            },
            &mut conn,
            t(70),
        );
        app.on_event(AppEvent::StreamFin(s2), &mut conn, t(75));
        assert!(app.done());
        assert_eq!(app.plt(), Some(Dur::from_millis(75)));
        let har = app.har();
        assert_eq!(har[0].first_byte, Some(t(40)));
        assert_eq!(har[1].finished, Some(t(75)));
        assert_eq!(har[0].bytes, 1100);
    }

    #[test]
    fn bulk_client_throughput_buckets() {
        let mut app = BulkClient::new(0, Dur::from_millis(100));
        let mut conn = FakeConn::new(true, 100);
        app.on_start(&mut conn, t(0));
        assert_eq!(conn.sends.len(), 1);
        let id = conn.sends[0].0;
        // 1 MB in bucket 0, 2 MB in bucket 3.
        app.on_event(
            AppEvent::StreamData {
                id,
                bytes: 1_000_000,
            },
            &mut conn,
            t(50),
        );
        app.on_event(
            AppEvent::StreamData {
                id,
                bytes: 2_000_000,
            },
            &mut conn,
            t(350),
        );
        let tl = app.throughput_mbps();
        assert_eq!(tl.len(), 4);
        assert!((tl[0] - 80.0).abs() < 1e-9, "1MB per 100ms = 80 Mbps");
        assert_eq!(tl[1], 0.0);
        assert!((tl[3] - 160.0).abs() < 1e-9);
        assert_eq!(app.total_bytes(), 3_000_000);
        assert!(!app.done());
        app.on_event(AppEvent::StreamFin(id), &mut conn, t(400));
        assert!(app.done());
    }
}
