//! Allocation guard, no timing: once a transfer is under way the packet
//! path must not call the allocator, on either transport.
//!
//! A counting `#[global_allocator]` (per-thread cells, so the other tests
//! in this binary cannot leak into a count) measures a clean 8 MiB and a
//! clean 32 MiB transfer through [`Testbed::direct`]. Set-up, handshake and
//! slow start cost the same in both, so the difference is what the extra
//! 24 MiB of steady state allocated: at most one allocation per ten extra
//! packets. Before the scoreboard ring, the h2 event sink and the
//! frame / block free lists QUIC measured 0.67 per packet here.
//!
//! The same allocator also tracks live bytes, so the same pair of loads,
//! on a 10 Mbps path, holds a transfer's peak heap flat in its length:
//! nothing a connection keeps (a cwnd history, say) may grow with the
//! bytes it carries. The third test checks that what the free lists hold
//! when a cell starts reaches nothing observable. The fourth holds the
//! fleet loop to "nothing is per link on the heap": twice the links at the
//! same clients per link must cost neither more allocations nor a higher
//! peak. The fifth holds the event queue to the same rule one level down:
//! its allocations follow how many events it held at once, not how many
//! wheel slots they touched.

mod common;

use longlook_core::prelude::*;
use longlook_sim::EventQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor fails at thread exit.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread has allocated and not yet freed, and their
    // high-water mark. Signed: a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

fn resize(by: i64) {
    let live = LIVE.with(|c| {
        c.set(c.get() + by);
        c.get()
    });
    PEAK.with(|c| c.set(c.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One clean `mib`-MiB page load over a `mbps` path, build to teardown:
/// `(allocations, packets both endpoints sent, peak bytes live above what
/// was live when it began)`.
fn transfer(proto: &ProtoConfig, mbps: f64, mib: u64) -> (u64, u64, i64) {
    let page = PageSpec::single(mib * 1024 * 1024);
    let before = ALLOCS.with(Cell::get);
    let floor = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(floor));
    let mut tb = Testbed::direct(
        4242,
        &NetProfile::baseline(mbps),
        DeviceProfile::DESKTOP,
        page.clone(),
        vec![FlowSpec {
            proto: proto.clone(),
            zero_rtt: false,
            app: Box::new(WebClient::new(page)),
        }],
        None,
        true,
    );
    tb.run(Dur::from_secs(600));
    assert!(
        tb.client_host().app::<WebClient>(0).done(),
        "{} {mib} MiB transfer did not finish",
        proto.name()
    );
    let server = tb
        .server_host()
        .conn_stats(tb.flows[0])
        .expect("server accepted the flow");
    let packets = tb.client_host().conn_stats(0).packets_sent + server.packets_sent;
    drop(tb);
    (
        ALLOCS.with(Cell::get) - before,
        packets,
        PEAK.with(Cell::get) - floor,
    )
}

#[test]
fn steady_state_packets_do_not_allocate() {
    for (name, proto) in common::protos() {
        // Warm the thread's free lists the way any earlier cell would.
        transfer(&proto, 100.0, 1);
        let (small_allocs, small_pkts, _) = transfer(&proto, 100.0, 8);
        let (large_allocs, large_pkts, _) = transfer(&proto, 100.0, 32);
        let extra_pkts = large_pkts - small_pkts;
        assert!(
            extra_pkts > 15_000,
            "{name}: only {extra_pkts} extra packets"
        );
        let extra_allocs = large_allocs.saturating_sub(small_allocs);
        let per_packet = extra_allocs as f64 / extra_pkts as f64;
        println!("{name}: {extra_allocs} allocations over {extra_pkts} extra packets = {per_packet:.4}/packet");
        assert!(
            per_packet <= 0.1,
            "{name}: {extra_allocs} allocations for {extra_pkts} extra packets \
             ({per_packet:.3} per packet; 8 MiB {small_allocs}, 32 MiB {large_allocs})"
        );
    }
}

/// Four times the bytes must not raise a transfer's peak live heap by
/// more than 16 KiB. The path is 10 Mbps because at 100 Mbps QUIC's
/// window sits at its cap for most of the load and stops changing, so a
/// per-change history would stop growing there and pass unseen.
#[test]
fn transfer_heap_does_not_grow_with_length() {
    for (name, proto) in common::protos() {
        let (_, _, small) = transfer(&proto, 10.0, 8);
        let (_, _, large) = transfer(&proto, 10.0, 32);
        println!("{name}: peak heap {small} B at 8 MiB, {large} B at 32 MiB");
        assert!(
            large - small <= 16 * 1024,
            "{name}: peak live heap grew with the transfer: {small} B at 8 MiB, \
             {large} B at 32 MiB"
        );
    }
}

/// One serial flash-crowd fleet of 1 500 clients per link: `(allocations,
/// peak bytes live above what was live when it began)`.
fn fleet(n_links: usize) -> (u64, i64) {
    let mut cfg = FleetConfig::new(1_500 * n_links);
    cfg.n_links = n_links;
    let before = ALLOCS.with(Cell::get);
    let floor = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(floor));
    let m = run_fleet(&ProtoConfig::Quic(QuicConfig::default()), &cfg);
    assert_eq!(m.completed + m.timed_out, cfg.n_conns as u64);
    drop(m);
    (
        ALLOCS.with(Cell::get) - before,
        PEAK.with(Cell::get) - floor,
    )
}

/// The fleet loop runs one link at a time through scratch it resets, so
/// nothing on the heap is per link: twice the links (and clients) cost at
/// most a small constant more allocations (a busier link may set a new
/// high-water mark and double a queue buffer or a column the earlier ones
/// did not) and no higher a peak. With one arena and one queue for the
/// population, both doubled.
#[test]
fn fleet_heap_does_not_grow_with_links() {
    fleet(2);
    let (allocs_4, peak_4) = fleet(4);
    let (allocs_8, peak_8) = fleet(8);
    println!(
        "fleet: 4 links {allocs_4} allocations, peak {peak_4} B; 8 links {allocs_8}, {peak_8} B"
    );
    assert!(
        allocs_8 <= allocs_4 + 64,
        "8 links allocated {allocs_8} times, 4 links {allocs_4}"
    );
    assert!(
        peak_8 <= peak_4 + peak_4 / 4,
        "peak live heap grew with the link count: {peak_4} B at 4 links, {peak_8} B at 8"
    );
}

/// Every pending event sits in one slab and every ring slot is a `u32`
/// list head, so an event in each of the wheel's 2048 slots (`sched::SLOTS`
/// of 2^17 ns) plus a few past its horizon costs a handful of allocations
/// for each doubling of the peak, not one per slot touched; and a reset
/// queue that replays the same events allocates nothing.
#[test]
fn wheel_allocations_follow_its_peak_not_its_slots() {
    const TICK: u64 = 1 << 17;
    const SLOTS: u64 = 2048;
    let replay = |q: &mut EventQueue<u64>| {
        let before = ALLOCS.with(Cell::get);
        for i in 0..SLOTS + 8 {
            q.push(Time::from_nanos(i * TICK + i % 7), i);
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, SLOTS + 8);
        ALLOCS.with(Cell::get) - before
    };
    let mut q = EventQueue::default();
    let fresh = replay(&mut q);
    let doublings = u64::from(usize::BITS - q.scheduled_peak().leading_zeros());
    println!(
        "wheel: {fresh} allocations for a peak of {} events",
        q.scheduled_peak()
    );
    assert!(
        fresh <= 2 * doublings + 8,
        "{fresh} allocations for a peak of {} events ({doublings} doublings)",
        q.scheduled_peak()
    );
    q.reset();
    assert_eq!(replay(&mut q), 0, "a reset queue allocated again");
}

/// A lossy 120-stream cell gives bit-identical records on a fresh thread
/// and on one that ten other cells have run on and whose free lists are
/// full of vectors of assorted capacities. (A world empties the lists when
/// it is dropped, so the ten cells alone leave them cold again; the
/// vectors are put there by hand.)
#[test]
fn warm_free_lists_do_not_change_a_cell() {
    use longlook_sim::pool;
    let cell = || {
        let (_, sc) = common::many_stream_cells().swap_remove(0);
        let records: Vec<RunRecord> = (0..sc.rounds).map(|k| sc.run(k)).collect();
        common::render(&records)
    };
    let cold = std::thread::spawn(cell)
        .join()
        .expect("cold cell thread panicked");
    let warm = std::thread::spawn(move || {
        for (_, sc) in common::scenarios().into_iter().take(5) {
            for (_, proto) in common::protos() {
                sc.clone().with_proto(proto).run(0);
            }
        }
        for k in 1..=pool::FREE_LIST_CAP {
            pool::give_frames(Vec::with_capacity(3 * k));
            pool::give_blocks(Vec::with_capacity(7 * k));
        }
        let records = cell();
        assert_eq!(
            pool::take_frames().capacity(),
            0,
            "the cell's world left the lists empty"
        );
        records
    })
    .join()
    .expect("warm cell thread panicked");
    assert!(
        cold == warm,
        "records differ:\ncold:\n{cold}\nwarm:\n{warm}"
    );
}
