//! A single-threaded open-loop load generator and the max-rate search.
//!
//! Messages are due on a fixed schedule (message `i` at `due_ns[i]`) no
//! matter how the server keeps up. The one thread alternates between
//! offering every message that is due and letting the server work, so a
//! stall in the server delays every message behind it, and each latency
//! is measured from the message's due time, never from when the
//! generator got round to sending it.

use std::time::Instant;

use crate::stats;

/// A source of nanosecond timestamps the generator can wait on.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// The host's monotonic clock; waits by spinning, since sleeping has a
/// coarser grain than the gaps between messages.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// The system under load.
pub trait Server {
    /// Offer message `i`; `false` if the server refused (shed) it.
    fn offer(&mut self, i: usize) -> bool;
    /// Process everything offered so far.
    fn serve(&mut self);
}

/// What one open-loop run saw.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopRun {
    /// Due-to-done latency of every accepted message, nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Messages offered.
    pub sent: usize,
    /// Messages offered more than the lateness threshold after their
    /// due time.
    pub late: usize,
    /// Messages the server refused.
    pub refused: usize,
    /// Least-squares slope of the backlog (messages due but not yet
    /// done) over the second half of the offered schedule, messages per
    /// second.
    pub backlog_slope: f64,
}

impl OpenLoopRun {
    /// Share of offered messages that went out late.
    pub fn late_frac(&self) -> f64 {
        self.late as f64 / self.sent.max(1) as f64
    }

    /// Latency at percentile `p`, microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        stats::percentile(&self.latencies_ns, p).unwrap_or(0.0) / 1e3
    }

    /// Whether the backlog grew by more than `frac` of the offered rate
    /// per second: the server is not keeping up.
    pub fn backlog_grows(&self, rate: f64, frac: f64) -> bool {
        self.backlog_slope > frac * rate
    }
}

/// Offer message `i` to `server` at `due_ns[i]` (nanoseconds after the
/// start, non-decreasing), timing each from its due time on `clock`. A
/// message offered more than `late_after_ns` after it was due counts as
/// late.
pub fn run<C: Clock, S: Server>(
    clock: &C,
    server: &mut S,
    due_ns: &[u64],
    late_after_ns: u64,
) -> OpenLoopRun {
    debug_assert!(due_ns.windows(2).all(|w| w[0] <= w[1]));
    let n = due_ns.len();
    let start = clock.now_ns();
    let mut out = OpenLoopRun {
        latencies_ns: Vec::with_capacity(n),
        ..OpenLoopRun::default()
    };
    // (done instant, messages done by then), one entry per serve.
    let mut done_by: Vec<(u64, usize)> = Vec::new();
    let mut next = 0;
    while next < n {
        clock.wait_until(start + due_ns[next]);
        let now = clock.now_ns() - start;
        let first = next;
        let mut accepted = Vec::new();
        while next < n && due_ns[next] <= now {
            if now - due_ns[next] > late_after_ns {
                out.late += 1;
            }
            if server.offer(next) {
                accepted.push(next);
            } else {
                out.refused += 1;
            }
            next += 1;
        }
        out.sent += next - first;
        server.serve();
        let done = clock.now_ns() - start;
        out.latencies_ns
            .extend(accepted.iter().map(|&i| (done - due_ns[i]) as f64));
        done_by.push((done, next));
    }
    out.backlog_slope = backlog_slope(&done_by, due_ns);
    out
}

/// Points on which the backlog is sampled over the second half of the
/// offered schedule.
const BACKLOG_GRID: usize = 64;

/// Slope, in messages per second, of the backlog (messages due minus
/// messages done) over the second half of the time the schedule offers
/// messages. Sampling on a fixed grid rather than at each serve keeps
/// the estimate fair when an overloaded server serves ever larger
/// batches ever more rarely.
fn backlog_slope(done_by: &[(u64, usize)], due_ns: &[u64]) -> f64 {
    let offered_ns = due_ns.last().copied().unwrap_or(0) as f64;
    let points: Vec<(f64, f64)> = (BACKLOG_GRID / 2..=BACKLOG_GRID)
        .map(|j| {
            let t = offered_ns * j as f64 / BACKLOG_GRID as f64;
            let due = due_ns.partition_point(|&d| d as f64 <= t);
            let done = done_by
                .iter()
                .take_while(|&&(at, _)| at as f64 <= t)
                .last()
                .map_or(0, |&(_, k)| k);
            (t / 1e9, due.saturating_sub(done) as f64)
        })
        .collect();
    stats::slope(&points)
}

/// The highest rate for which `passes` holds, searched upwards from
/// `lo` by factors of `step` until the first failure (or `hi`), then
/// narrowed by `refine` bisections (in log space) between the last pass
/// and the first failure. Only rates below a failure are ever credited,
/// so for a `passes` that is monotone in the rate the result is too.
/// `None` when even `lo` fails.
pub fn max_rate(
    lo: f64,
    hi: f64,
    step: f64,
    refine: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(lo > 0.0 && hi >= lo && step > 1.0);
    if !passes(lo) {
        return None;
    }
    let mut good = lo;
    let mut bad = None;
    while good < hi {
        let r = (good * step).min(hi);
        if passes(r) {
            good = r;
        } else {
            bad = Some(r);
            break;
        }
    }
    if let Some(mut bad) = bad {
        for _ in 0..refine {
            let mid = (good * bad).sqrt();
            if passes(mid) {
                good = mid;
            } else {
                bad = mid;
            }
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Due times, nanoseconds, of `n` messages spaced evenly at `rate` per
    /// second.
    fn uniform(n: usize, rate: f64) -> Vec<u64> {
        assert!(rate > 0.0, "offered rate must be positive");
        let period_ns = 1e9 / rate;
        (0..n).map(|i| (i as f64 * period_ns) as u64).collect()
    }

    /// A clock that only moves when told to.
    #[derive(Clone, Default)]
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    /// A server whose `serve` takes `cost_ns` per queued message, plus
    /// a one-off stall of `stall_ns` on the call that serves message
    /// `stall_at`.
    struct FakeServer {
        clock: FakeClock,
        queued: Vec<usize>,
        cost_ns: u64,
        stall_at: Option<usize>,
        stall_ns: u64,
        capacity: usize,
    }

    impl FakeServer {
        fn new(clock: &FakeClock, cost_ns: u64) -> FakeServer {
            FakeServer {
                clock: clock.clone(),
                queued: Vec::new(),
                cost_ns,
                stall_at: None,
                stall_ns: 0,
                capacity: usize::MAX,
            }
        }
    }

    impl Server for FakeServer {
        fn offer(&mut self, i: usize) -> bool {
            if self.queued.len() >= self.capacity {
                return false;
            }
            self.queued.push(i);
            true
        }
        fn serve(&mut self) {
            let mut t = self.clock.now_ns() + self.cost_ns * self.queued.len() as u64;
            if self.stall_at.is_some_and(|s| self.queued.contains(&s)) {
                t += self.stall_ns;
            }
            self.queued.clear();
            self.clock.0.set(t);
        }
    }

    #[test]
    fn an_idle_server_sees_only_its_service_time() {
        let clock = FakeClock::default();
        let mut s = FakeServer::new(&clock, 1_000);
        // 10k/s: one message every 100 µs, each served in 1 µs.
        let r = run(&clock, &mut s, &uniform(1000, 10_000.0), 5_000);
        assert_eq!(r.sent, 1000);
        assert_eq!(r.late, 0);
        assert_eq!(r.latency_us(50.0), 1.0);
        assert_eq!(r.latency_us(99.0), 1.0);
        assert!(!r.backlog_grows(10_000.0, 0.05));
    }

    #[test]
    fn a_stall_is_charged_to_every_message_behind_it() {
        let clock = FakeClock::default();
        let mut s = FakeServer::new(&clock, 1_000);
        // Message 100 (due at 10 ms) stalls the server for 1 ms: the
        // next 10 messages fall due during the stall and wait for it,
        // each charged from its own due time.
        s.stall_at = Some(100);
        s.stall_ns = 1_000_000;
        let r = run(&clock, &mut s, &uniform(1000, 10_000.0), 5_000);
        assert_eq!(r.sent, 1000);
        // 101..=109 are offered more than 5 µs late; 110, due at 11 ms,
        // only 1 µs late.
        assert_eq!(r.late, 9);
        assert!((r.late_frac() - 0.009).abs() < 1e-12);
        let lat = &r.latencies_ns;
        assert_eq!(lat[100], 1_001_000.0);
        // Message 101 was due 100 µs later; it is served, together with
        // the nine behind it, right after the stall ends at 11.001 ms.
        assert_eq!(lat[101], 11_001_000.0 + 10_000.0 - 10_100_000.0);
        assert_eq!(lat[110], 11_011_000.0 - 11_000_000.0);
        assert!(lat[111] <= 1_000.0);
    }

    #[test]
    fn a_burst_is_timed_from_its_shared_due_time() {
        let clock = FakeClock::default();
        let mut s = FakeServer::new(&clock, 1_000);
        // Ten messages due together at 1 ms, then one at 2 ms: the burst
        // is offered and served as one batch, and every message in it
        // waits for the whole batch.
        let mut due = vec![1_000_000; 10];
        due.push(2_000_000);
        let r = run(&clock, &mut s, &due, 5_000);
        assert_eq!(r.sent, 11);
        assert_eq!(r.late, 0);
        assert_eq!(&r.latencies_ns[..10], &[10_000.0; 10]);
        assert_eq!(r.latencies_ns[10], 1_000.0);
    }

    #[test]
    fn lateness_uses_the_threshold() {
        let clock = FakeClock::default();
        let mut s = FakeServer::new(&clock, 1_000);
        s.stall_at = Some(100);
        s.stall_ns = 1_000_000;
        // With a 500 µs threshold only the messages due in the first
        // half of the stall (offered more than 500 µs late) count.
        let r = run(&clock, &mut s, &uniform(1000, 10_000.0), 500_000);
        assert_eq!(r.late, 5);
    }

    #[test]
    fn an_overloaded_server_shows_a_growing_backlog() {
        let clock = FakeClock::default();
        // 20 µs per message is 50k/s of capacity, offered 100k/s.
        let mut s = FakeServer::new(&clock, 20_000);
        let r = run(&clock, &mut s, &uniform(20_000, 100_000.0), 5_000);
        assert!(
            r.backlog_grows(100_000.0, 0.05),
            "slope {}",
            r.backlog_slope
        );
        // Capacity falls 50k/s short of the offer. Batches double in
        // size, so the sampled backlog is a sawtooth around that line.
        assert!(
            (r.backlog_slope - 50_000.0).abs() < 10_000.0,
            "{}",
            r.backlog_slope
        );
        assert!(r.late_frac() > 0.9);
    }

    #[test]
    fn refused_messages_are_counted_and_not_timed() {
        let clock = FakeClock::default();
        let mut s = FakeServer::new(&clock, 20_000);
        s.capacity = 3;
        let r = run(&clock, &mut s, &uniform(1000, 200_000.0), 5_000);
        assert_eq!(r.sent, 1000);
        assert!(r.refused > 0);
        assert_eq!(r.latencies_ns.len() + r.refused, 1000);
    }

    #[test]
    fn max_rate_finds_the_threshold() {
        let found = max_rate(1_000.0, 1e6, 2.0, 8, |r| r <= 37_000.0).unwrap();
        assert!(found <= 37_000.0);
        assert!(found > 37_000.0 / 2f64.powf(1.0 / 256.0) - 1e-6);
        assert_eq!(max_rate(1_000.0, 1e6, 2.0, 8, |r| r <= 500.0), None);
        assert_eq!(max_rate(1_000.0, 4_000.0, 2.0, 8, |_| true), Some(4_000.0));
    }

    #[test]
    fn max_rate_is_monotone_in_capacity() {
        let mut last = 0.0;
        for cap in (1..200).map(|i| 1_000.0 * 1.07f64.powi(i)) {
            let found = max_rate(1_000.0, 1e9, 1.5, 6, |r| r <= cap).unwrap();
            assert!(found >= last, "capacity {cap}: {found} < {last}");
            assert!(found <= cap);
            last = found;
        }
    }

    #[test]
    fn max_rate_never_credits_a_rate_above_a_failure() {
        // A noisy, non-monotone pass/fail: 8k fails although 16k passes.
        let found = max_rate(1_000.0, 1e6, 2.0, 0, |r| r != 8_000.0 && r <= 16_000.0).unwrap();
        assert_eq!(found, 4_000.0);
    }

    #[test]
    fn max_rate_on_the_fake_server_is_monotone_in_service_cost() {
        let mut last = f64::INFINITY;
        for cost_ns in [5_000u64, 10_000, 20_000, 40_000] {
            let found = max_rate(1_000.0, 1e6, 1.5, 4, |rate| {
                let clock = FakeClock::default();
                let mut s = FakeServer::new(&clock, cost_ns);
                let r = run(&clock, &mut s, &uniform(4_000, rate), 5_000);
                r.latency_us(99.0) <= 200.0 && !r.backlog_grows(rate, 0.05)
            })
            .unwrap();
            assert!(found <= last, "cost {cost_ns}: {found} > {last}");
            assert!(found <= 1e9 / cost_ns as f64);
            last = found;
        }
    }
}
