//! A gQUIC-like application-layer transport for the `longlook` testbed.
//!
//! Feature-faithful to the 2016-era protocol the paper measured:
//! 0-RTT/1-RTT connection establishment with a server-config cache,
//! multiplexed streams free of cross-stream head-of-line blocking,
//! monotonic packet numbers (no retransmission ambiguity), ack decimation
//! with precise ack delay, NACK-threshold fast retransmit (the fixed
//! threshold of 3 the paper blames for reordering pathologies), tail loss
//! probes, RTO with backoff, Cubic (with N-connection emulation and the
//! MACW clamp) or experimental BBR, pacing, and two-level flow control.

pub mod config;
pub mod connection;
pub mod recv_ack;
pub mod sent;
pub mod streams;
pub mod wire;

pub use config::{CcKind, QuicConfig, CONN_RECV_WINDOW_MAX, STREAM_RECV_WINDOW_MAX};
pub use connection::{QuicConnection, Role};
pub use wire::{Frame, HandshakeKind, QuicPacket, WireError, MAX_ACK_BLOCKS, MAX_PACKET_PAYLOAD};

#[cfg(test)]
mod loopback_tests {
    //! Drive a client/server pair over an in-memory pipe with a fixed
    //! one-way delay and scriptable drops — no simulator involved, so
    //! these tests isolate the connection state machine itself.

    use crate::{QuicConfig, QuicConnection};
    use longlook_sim::packet::Payload;
    use longlook_sim::time::{Dur, Time};
    use longlook_transport::conn::{AppEvent, Connection, StreamId};
    use std::collections::VecDeque;

    const OWD: Dur = Dur::from_millis(18); // 36ms RTT

    struct Pipe {
        /// (deliver_at, payload) toward the peer.
        a_to_b: VecDeque<(Time, Payload)>,
        b_to_a: VecDeque<(Time, Payload)>,
        /// Drop the nth a->b packet (0-based counters).
        drop_a_to_b: Vec<u64>,
        sent_ab: u64,
        /// Stream frames (chunks) `a` has put on the wire.
        chunks_ab: u64,
    }

    impl Pipe {
        fn new() -> Self {
            Pipe {
                a_to_b: VecDeque::new(),
                b_to_a: VecDeque::new(),
                drop_a_to_b: Vec::new(),
                sent_ab: 0,
                chunks_ab: 0,
            }
        }
    }

    /// Run both endpoints until quiescent or `deadline`; returns collected
    /// app events from each side.
    fn run(
        a: &mut QuicConnection,
        b: &mut QuicConnection,
        pipe: &mut Pipe,
        deadline: Time,
    ) -> (Vec<AppEvent>, Vec<AppEvent>) {
        let mut now = Time::ZERO;
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        loop {
            // Drain transmissions at `now`.
            while let Some(tx) = a.poll_transmit(now) {
                let dropped = pipe.drop_a_to_b.contains(&pipe.sent_ab);
                pipe.sent_ab += 1;
                if let Payload::Quic(pkt) = &tx.payload {
                    pipe.chunks_ab += pkt
                        .frames
                        .iter()
                        .filter(|f| matches!(f, crate::Frame::Stream { .. }))
                        .count() as u64;
                }
                if !dropped {
                    pipe.a_to_b.push_back((now + OWD, tx.payload));
                }
            }
            while let Some(tx) = b.poll_transmit(now) {
                pipe.b_to_a.push_back((now + OWD, tx.payload));
            }
            while let Some(e) = a.poll_event() {
                ev_a.push(e);
            }
            while let Some(e) = b.poll_event() {
                ev_b.push(e);
            }
            // Next event: earliest delivery or wakeup.
            let mut next: Option<Time> = None;
            let mut consider = |t: Option<Time>| {
                if let Some(t) = t {
                    next = Some(next.map_or(t, |n: Time| n.min(t)));
                }
            };
            consider(pipe.a_to_b.front().map(|&(t, _)| t));
            consider(pipe.b_to_a.front().map(|&(t, _)| t));
            consider(a.next_wakeup());
            consider(b.next_wakeup());
            let Some(next) = next else { break };
            if next > deadline {
                break;
            }
            now = now.max(next);
            // Deliver everything due.
            while pipe.a_to_b.front().is_some_and(|&(t, _)| t <= now) {
                let (_, p) = pipe.a_to_b.pop_front().expect("checked");
                b.on_datagram(p, now);
            }
            while pipe.b_to_a.front().is_some_and(|&(t, _)| t <= now) {
                let (_, p) = pipe.b_to_a.pop_front().expect("checked");
                a.on_datagram(p, now);
            }
            a.on_wakeup(now);
            b.on_wakeup(now);
        }
        (ev_a, ev_b)
    }

    fn pair(zero_rtt: bool) -> (QuicConnection, QuicConnection) {
        let cfg = QuicConfig::default();
        let c = QuicConnection::client(cfg.clone(), 7, zero_rtt, Time::ZERO);
        let s = QuicConnection::server(cfg, 7, Time::ZERO);
        (c, s)
    }

    fn total_bytes(events: &[AppEvent], id: StreamId) -> u64 {
        events
            .iter()
            .map(|e| match e {
                AppEvent::StreamData { id: i, bytes } if *i == id => *bytes,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn one_rtt_handshake_completes() {
        let (mut c, mut s) = pair(false);
        assert!(!c.is_established());
        let mut pipe = Pipe::new();
        let (ev_c, _) = run(&mut c, &mut s, &mut pipe, Time::ZERO + Dur::from_secs(2));
        assert!(c.is_established());
        assert!(s.is_established());
        assert!(ev_c.contains(&AppEvent::HandshakeDone));
        assert!(c.server_config_learned(), "REJ delivers the server config");
        assert!(!c.used_zero_rtt());
    }

    #[test]
    fn zero_rtt_client_is_established_immediately() {
        let (c, _) = pair(true);
        assert!(c.is_established());
        assert!(c.used_zero_rtt());
    }

    #[test]
    fn small_transfer_end_to_end() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 200, true); // request
        let mut pipe = Pipe::new();
        let (_, ev_s) = run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(2));
        assert_eq!(total_bytes(&ev_s, id), 200);
        assert!(ev_s.contains(&AppEvent::StreamOpened(id)));
        assert!(ev_s.contains(&AppEvent::StreamFin(id)));
    }

    #[test]
    fn server_responds_on_same_stream() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 300, true);
        // First run delivers the request.
        let mut pipe = Pipe::new();
        run(&mut c, &mut s, &mut pipe, now + Dur::from_millis(100));
        // Server answers with 100 KB on the same stream.
        s.stream_send(now + Dur::from_millis(100), id, 100_000, true);
        let (ev_c, _) = run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(5));
        assert_eq!(total_bytes(&ev_c, id), 100_000);
        assert!(ev_c.contains(&AppEvent::StreamFin(id)));
    }

    #[test]
    fn bulk_transfer_is_complete_and_in_order() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        let size = 2_000_000u64;
        c.stream_send(now, id, size, true);
        let mut pipe = Pipe::new();
        let (_, ev_s) = run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(30));
        assert_eq!(total_bytes(&ev_s, id), size);
        assert!(c.is_quiescent());
        let st = c.stats();
        assert!(st.packets_sent > size / 1350);
        assert_eq!(st.losses_detected, 0);
        assert_eq!(st.rto_count, 0);
    }

    #[test]
    fn lost_packet_is_recovered_by_nack_fast_retransmit() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 300_000, true);
        let mut pipe = Pipe::new();
        pipe.drop_a_to_b = vec![5]; // drop one early data packet
        let (_, ev_s) = run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(30));
        assert_eq!(total_bytes(&ev_s, id), 300_000, "data fully recovered");
        let st = c.stats();
        assert!(st.losses_detected >= 1, "NACK threshold fired");
        assert!(st.retransmissions >= 1);
        assert!(ev_s.contains(&AppEvent::StreamFin(id)));
    }

    #[test]
    fn tail_loss_recovered_by_probe_or_rto() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 5 * 1350, true);
        let mut pipe = Pipe::new();
        // Drop tail data packets of the first flight.
        pipe.drop_a_to_b = vec![4, 5];
        let (_, ev_s) = run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(10));
        assert_eq!(total_bytes(&ev_s, id), 5 * 1350, "tail recovered");
        let st = c.stats();
        assert!(
            st.tlp_count >= 1 || st.rto_count >= 1,
            "tail loss needs a timer-driven probe: {st:?}"
        );
    }

    #[test]
    fn mspc_limits_concurrent_streams() {
        let cfg = QuicConfig {
            max_streams: 3,
            ..QuicConfig::default()
        };
        let mut c = QuicConnection::client(cfg, 1, true, Time::ZERO);
        assert!(c.open_stream(Time::ZERO).is_some());
        assert!(c.open_stream(Time::ZERO).is_some());
        assert!(c.open_stream(Time::ZERO).is_some());
        assert!(c.open_stream(Time::ZERO).is_none(), "MSPC reached");
    }

    #[test]
    fn stream_slots_free_when_peer_fins() {
        let cfg = QuicConfig {
            max_streams: 1,
            ..QuicConfig::default()
        };
        let mut c = QuicConnection::client(cfg.clone(), 9, true, Time::ZERO);
        let mut s = QuicConnection::server(cfg, 9, Time::ZERO);
        let id = c.open_stream(Time::ZERO).expect("first stream");
        c.stream_send(Time::ZERO, id, 100, true);
        assert!(c.open_stream(Time::ZERO).is_none());
        let mut pipe = Pipe::new();
        run(
            &mut c,
            &mut s,
            &mut pipe,
            Time::ZERO + Dur::from_millis(200),
        );
        // Server finishes the stream.
        s.stream_send(Time::ZERO + Dur::from_millis(200), id, 50, true);
        run(&mut c, &mut s, &mut pipe, Time::ZERO + Dur::from_secs(2));
        assert!(c.open_stream(Time::ZERO + Dur::from_secs(2)).is_some());
    }

    /// Complexity guard, no timing: serving 200 streams costs the send
    /// scheduler a number of stream probes proportional to the chunks it
    /// emits, not to chunks x streams ever opened (a scan from the lowest
    /// id for every chunk would make on the order of 10^5 probes here).
    #[test]
    fn scheduler_probes_scale_with_chunks_not_streams() {
        const STREAMS: u64 = 200;
        const OBJECT: u64 = 10 * 1024;
        let cfg = QuicConfig {
            max_streams: STREAMS as u32,
            // Keep connection flow control out of the way: a blocked
            // poll legitimately looks at every ready stream.
            conn_recv_window: 16 * 1024 * 1024,
            ..QuicConfig::default()
        };
        let mut c = QuicConnection::client(cfg.clone(), 11, true, Time::ZERO);
        let mut s = QuicConnection::server(cfg, 11, Time::ZERO);
        let ids: Vec<StreamId> = (0..STREAMS)
            .map(|_| {
                let id = c.open_stream(Time::ZERO).expect("under MSPC");
                c.stream_send(Time::ZERO, id, 200, true);
                id
            })
            .collect();
        // The server is side `a` so its packets are the ones counted
        // (and dropped: a few losses put retransmissions, which jump the
        // queue, into the mix).
        let mut pipe = Pipe::new();
        let t1 = Time::ZERO + Dur::from_millis(200);
        run(&mut s, &mut c, &mut pipe, t1);
        for &id in &ids {
            s.stream_send(t1, id, OBJECT, true);
        }
        pipe.drop_a_to_b = vec![40, 41, 300, 900];
        pipe.chunks_ab = 0;
        let (_, ev_c) = run(&mut s, &mut c, &mut pipe, Time::ZERO + Dur::from_secs(60));
        for &id in &ids {
            assert_eq!(total_bytes(&ev_c, id), OBJECT, "stream {id:?} incomplete");
        }
        assert!(s.is_quiescent());
        assert!(s.stats().retransmissions >= 4);
        let (chunks, probes) = (pipe.chunks_ab, s.stream_probes());
        assert!(chunks >= STREAMS * OBJECT / 1350);
        assert!(
            probes <= 2 * chunks,
            "{probes} stream probes for {chunks} chunks over {STREAMS} streams"
        );
    }

    #[test]
    fn rtt_estimate_converges_to_pipe_rtt() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 500_000, true);
        let mut pipe = Pipe::new();
        run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(10));
        let srtt = c.srtt().as_millis_f64();
        assert!((srtt - 36.0).abs() < 8.0, "srtt = {srtt}ms");
    }

    #[test]
    fn state_trace_records_init_and_slow_start() {
        let (mut c, mut s) = pair(false);
        let now = Time::ZERO;
        let mut pipe = Pipe::new();
        run(&mut c, &mut s, &mut pipe, now + Dur::from_millis(500));
        let id = c.open_stream(now + Dur::from_millis(500)).expect("stream");
        c.stream_send(now + Dur::from_millis(500), id, 500_000, true);
        run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(10));
        let trace = c.state_trace(now + Dur::from_secs(10));
        let labels = trace.labels();
        assert_eq!(labels[0], "Init");
        assert!(labels.contains(&"SlowStart"), "labels = {labels:?}");
    }

    #[test]
    fn cwnd_timeline_grows_during_transfer() {
        let (mut c, mut s) = pair(true);
        let now = Time::ZERO;
        let id = c.open_stream(now).expect("stream");
        c.stream_send(now, id, 1_000_000, true);
        let mut pipe = Pipe::new();
        run(&mut c, &mut s, &mut pipe, now + Dur::from_secs(10));
        let tl = c.cwnd_timeline();
        assert!(tl.len() > 3);
        let max = tl.iter().map(|&(_, w)| w).max().unwrap_or(0);
        assert!(max > 32 * 1350, "window grew past initial: {max}");
    }

    #[test]
    fn adaptive_nack_config_starts_at_default() {
        let cfg = QuicConfig {
            adaptive_nack: true,
            ..QuicConfig::default()
        };
        let c = QuicConnection::client(cfg, 2, true, Time::ZERO);
        assert_eq!(c.current_nack_threshold(), 3);
    }
}
