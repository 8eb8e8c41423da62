//! Deadline heap for connection timeouts.
//!
//! The old server enforced idle/request timeouts by waking every 50 ms
//! per connection and checking the clock — fine for eight connections,
//! pure overhead for a thousand. The event loop instead keeps one armed
//! entry per connection and sleeps in `epoll_wait` exactly until the
//! earliest deadline.
//!
//! Design choices:
//!
//! * **One min-heap, not a hashed wheel.** A wheel still needs a
//!   min-heap of its entries' ticks, or the next-deadline query scans
//!   every slot on every loop iteration; with each arm paying that heap
//!   push anyway, the heap alone does the whole job. Its top is the next
//!   deadline, and expiry pops entries until the top is in the future.
//! * **Coarse ticks** (16 ms). Timeouts here are hundreds of
//!   milliseconds to tens of seconds; firing one tick late is harmless.
//! * **Lazy cancellation.** Entries carry the connection's slab
//!   generation; a stale entry (connection closed or its deadline
//!   re-armed) is dropped when it comes due instead of being searched
//!   for at cancel time. The caller re-checks the *actual* deadline on
//!   fire, so a premature fire (entry armed before the deadline was
//!   pushed out by new activity) just re-inserts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Deadline granularity. Deadlines fire at most one tick late.
pub(crate) const TICK: Duration = Duration::from_millis(16);

/// A fired deadline: the caller compares `generation` against the live
/// slab slot and ignores the fire if they disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fired {
    /// Token the deadline was armed under.
    pub token: usize,
    /// Slab generation at arming time.
    pub generation: u64,
}

/// Min-heap of `(tick, token, generation)` entries.
#[derive(Debug)]
pub(crate) struct DeadlineHeap {
    origin: Instant,
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
}

impl DeadlineHeap {
    pub(crate) fn new(origin: Instant) -> DeadlineHeap {
        DeadlineHeap {
            origin,
            heap: BinaryHeap::new(),
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.origin).as_nanos() / TICK.as_nanos()) as u64
    }

    /// Arm a deadline. Deadlines already in the past fire on the next
    /// [`DeadlineHeap::expire`] call.
    pub(crate) fn insert(&mut self, deadline: Instant, token: usize, generation: u64) {
        self.heap
            .push(Reverse((self.tick_of(deadline), token, generation)));
    }

    /// Pop every entry whose tick has been reached by `now` into `out`.
    pub(crate) fn expire(&mut self, now: Instant, out: &mut Vec<Fired>) {
        let now_tick = self.tick_of(now);
        while let Some(&Reverse((tick, token, generation))) = self.heap.peek() {
            if tick > now_tick {
                return;
            }
            self.heap.pop();
            out.push(Fired { token, generation });
        }
    }

    /// How long the event loop may sleep before the next entry is due.
    /// `None` when nothing is armed (sleep until I/O). The bound is
    /// tick-granular: sleeping exactly to it and calling
    /// [`DeadlineHeap::expire`] fires everything due.
    pub(crate) fn next_deadline(&self, now: Instant) -> Option<Duration> {
        let &Reverse((tick, ..)) = self.heap.peek()?;
        // End of the due tick, relative to `now`.
        let due = self.origin + TICK * (tick as u32 + 1);
        Some(due.saturating_duration_since(now))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_order_and_only_once() {
        let origin = Instant::now();
        let mut timers = DeadlineHeap::new(origin);
        timers.insert(origin + Duration::from_millis(40), 1, 10);
        timers.insert(origin + Duration::from_millis(200), 2, 20);

        let mut fired = Vec::new();
        timers.expire(origin + Duration::from_millis(100), &mut fired);
        assert_eq!(
            fired,
            vec![Fired {
                token: 1,
                generation: 10
            }]
        );
        assert_eq!(timers.len(), 1);

        fired.clear();
        timers.expire(origin + Duration::from_millis(300), &mut fired);
        assert_eq!(
            fired,
            vec![Fired {
                token: 2,
                generation: 20
            }]
        );
        assert_eq!(timers.len(), 0);

        fired.clear();
        timers.expire(origin + Duration::from_secs(60), &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn far_deadlines_fire_on_time() {
        let origin = Instant::now();
        let mut timers = DeadlineHeap::new(origin);
        // Hundreds of ticks out: must neither fire early nor be lost.
        timers.insert(origin + Duration::from_secs(30), 9, 1);
        let mut fired = Vec::new();
        timers.expire(origin + Duration::from_secs(29), &mut fired);
        assert!(fired.is_empty());
        timers.expire(origin + Duration::from_secs(31), &mut fired);
        assert_eq!(
            fired,
            vec![Fired {
                token: 9,
                generation: 1
            }]
        );
    }

    #[test]
    fn next_deadline_bounds_the_sleep() {
        let origin = Instant::now();
        let mut timers = DeadlineHeap::new(origin);
        assert_eq!(timers.next_deadline(origin), None);
        timers.insert(origin + Duration::from_millis(500), 4, 2);
        let sleep = timers.next_deadline(origin).unwrap();
        // Sleeping the advertised bound must reach the deadline.
        assert!(sleep >= Duration::from_millis(500), "sleep {sleep:?}");
        // And not oversleep by more than a tick's slack.
        assert!(
            sleep <= Duration::from_millis(500) + 2 * TICK,
            "sleep {sleep:?}"
        );
        let mut fired = Vec::new();
        timers.expire(origin + sleep, &mut fired);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let origin = Instant::now();
        let mut timers = DeadlineHeap::new(origin);
        let now = origin + Duration::from_secs(1);
        let mut fired = Vec::new();
        timers.expire(now, &mut fired); // advance the clock past origin
        timers.insert(origin, 5, 3); // deadline already behind the clock
        fired.clear();
        timers.expire(now, &mut fired);
        assert_eq!(
            fired,
            vec![Fired {
                token: 5,
                generation: 3
            }]
        );
    }

    /// One step of a random schedule. `value` is in µs.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Arm at `now + value - 2 s`: past deadlines (some before the
        /// origin) up to deadlines 10 s out.
        Arm(u64),
        /// Advance the clock (mostly sub-second, sometimes 6–7 s in one
        /// jump) and expire.
        Advance(u64),
        /// Sleep the advertised `next_deadline` and expire.
        Sleep,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u64..12_000_000).prop_map(|(kind, value)| match kind {
            0 | 1 => Op::Arm(value),
            2 | 3 if value >= 11_000_000 => Op::Advance(value - 5_000_000),
            2 | 3 => Op::Advance(value % 700_000),
            _ => Op::Sleep,
        })
    }

    fn tick(origin: Instant, at: Instant) -> u128 {
        at.saturating_duration_since(origin).as_nanos() / TICK.as_nanos()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Checks the heap against a brute-force list of armed entries:
        /// each entry fires exactly once, at the first `expire` whose
        /// tick reaches its own and never earlier, and sleeping the
        /// advertised bound reaches the earliest deadline, fires it, and
        /// oversleeps it by at most a tick.
        #[test]
        fn matches_a_brute_force_list(ops in prop::collection::vec(op(), 1..160)) {
            let origin = Instant::now();
            let mut timers = DeadlineHeap::new(origin);
            // The clock starts 1 s in, so some past deadlines precede
            // the origin.
            let mut now = origin + Duration::from_secs(1);
            let mut armed: Vec<(Instant, usize)> = Vec::new();
            let mut fired = Vec::new();
            for (token, op) in ops.into_iter().enumerate() {
                let wake = match op {
                    Op::Arm(us) => {
                        let deadline = (now + Duration::from_micros(us))
                            .checked_sub(Duration::from_secs(2))
                            .unwrap_or(origin);
                        timers.insert(deadline, token, token as u64 * 7);
                        armed.push((deadline, token));
                        continue;
                    }
                    Op::Advance(us) => now + Duration::from_micros(us),
                    Op::Sleep => {
                        let sleep = timers.next_deadline(now);
                        let Some(&(earliest, token)) = armed.iter().min() else {
                            prop_assert_eq!(sleep, None);
                            continue;
                        };
                        let wake = now + sleep.expect("entries are armed");
                        prop_assert!(wake >= earliest, "woke before token {}'s deadline", token);
                        prop_assert!(
                            wake <= earliest.max(now) + TICK,
                            "overslept token {} by {:?}",
                            token,
                            wake - earliest.max(now)
                        );
                        wake
                    }
                };
                now = wake;
                fired.clear();
                timers.expire(now, &mut fired);
                fired.sort_by_key(|f| f.token);
                let now_tick = tick(origin, now);
                // `armed` is in token order, so `due` is too.
                let due: Vec<Fired> = armed
                    .iter()
                    .filter(|(deadline, _)| tick(origin, *deadline) <= now_tick)
                    .map(|&(_, token)| Fired { token, generation: token as u64 * 7 })
                    .collect();
                armed.retain(|(deadline, _)| tick(origin, *deadline) > now_tick);
                prop_assert_eq!(&fired, &due, "fired set at {:?}", now - origin);
                prop_assert_eq!(timers.len(), armed.len());
            }
        }
    }
}
