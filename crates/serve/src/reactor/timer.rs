//! Lazy hashed timer wheel for idle keep-alive timeouts.
//!
//! The wheel is a hint structure, not the source of truth: each
//! connection's `idle_deadline` is authoritative, and the wheel only
//! records *when to look*. The reactor keeps exactly one hint per open
//! connection, keyed by its `(slot, generation)` token: scheduled at
//! accept, and rescheduled once each time it fires on a connection that
//! is still open. Deadlines past the wheel horizon are clamped to the
//! last reachable slot; on expiry the reactor rechecks the real
//! deadline and reschedules the remainder. That keeps entries O(1) per
//! connection and lets the default 30 s timeout coexist with a 25.6 s
//! horizon.

use std::time::{Duration, Instant};

/// Wheel slot count.
const SLOTS: usize = 256;
/// Wheel tick width.
const TICK: Duration = Duration::from_millis(100);

/// Hashed timer wheel keyed by connection token.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: Vec<Vec<u64>>,
    /// Wheel position of the last advance.
    cursor: usize,
    /// Wall time corresponding to `cursor`.
    cursor_time: Instant,
    /// Hints held across all slots.
    len: usize,
}

impl TimerWheel {
    /// Empty wheel anchored at `now`.
    pub fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
            len: 0,
        }
    }

    /// Records a check for connection `token` at (or near) `deadline`.
    /// Deadlines beyond the horizon are clamped; the caller rechecks
    /// the real deadline when the entry fires.
    pub fn schedule(&mut self, token: u64, now: Instant, deadline: Instant) {
        let delay = deadline.saturating_duration_since(now);
        let ticks = (delay.as_millis() / TICK.as_millis()).max(1) as usize;
        let ticks = ticks.min(SLOTS - 1);
        let idx = (self.cursor + ticks) % SLOTS;
        self.slots[idx].push(token);
        self.len += 1;
    }

    /// Advances the wheel to `now`, returning every connection token
    /// whose check came due. Entries may be stale or early — callers
    /// must verify against the connection's generation and its actual
    /// deadline.
    pub fn expired(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        let elapsed = now.saturating_duration_since(self.cursor_time);
        let steps = (elapsed.as_millis() / TICK.as_millis()) as usize;
        if steps == 0 {
            return due;
        }
        // A full lap (or more) empties the whole wheel.
        for _ in 0..steps.min(SLOTS) {
            self.cursor = (self.cursor + 1) % SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
        self.cursor_time += TICK * steps as u32;
        self.len -= due.len();
        due
    }

    /// Hints the wheel holds, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_entries_once_their_tick_passes() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.schedule(1, t0, t0 + Duration::from_millis(250));
        assert_eq!(wheel.len(), 1);
        assert!(wheel.expired(t0 + Duration::from_millis(100)).is_empty());
        let due = wheel.expired(t0 + Duration::from_millis(300));
        assert_eq!(due, vec![1]);
        assert_eq!(wheel.len(), 0);
        assert!(wheel.expired(t0 + Duration::from_millis(400)).is_empty());
    }

    #[test]
    fn clamps_deadlines_past_the_horizon() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // 60 s is far beyond the 25.6 s horizon; the entry must still
        // surface within one lap so the caller can reschedule.
        wheel.schedule(9, t0, t0 + Duration::from_secs(60));
        let due = wheel.expired(t0 + Duration::from_secs(26));
        assert_eq!(due, vec![9]);
    }

    #[test]
    fn near_deadlines_round_up_to_one_tick() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.schedule(4, t0, t0 + Duration::from_millis(1));
        let due = wheel.expired(t0 + Duration::from_millis(150));
        assert_eq!(due, vec![4]);
    }

    #[test]
    fn multi_lap_advance_drains_everything() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        for token in 0..10u64 {
            wheel.schedule(token, t0, t0 + Duration::from_millis(100 * (token + 1)));
        }
        assert_eq!(wheel.len(), 10);
        let mut due = wheel.expired(t0 + Duration::from_secs(120));
        due.sort_unstable();
        assert_eq!(due, (0..10).collect::<Vec<u64>>());
        assert_eq!(wheel.len(), 0);
    }
}
