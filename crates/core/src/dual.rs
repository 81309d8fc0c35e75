//! Dual-direction on-path observation (RFC 9312 §4.2.1).
//!
//! An observer that sees *both* directions of a flow can split the RTT
//! into two components at its own position: when the client's flip
//! crosses the tap (client→server edge) and comes back reflected
//! (server→client edge with the same value), the gap is the
//! **server-side component** (tap → server → tap); the gap from the
//! reflected edge to the client's next inversion crossing the tap is the
//! **client-side component**. Component pairs sum to the full RTT —
//! this is how an in-network device localizes latency to one side of
//! itself, the operational use case the paper's introduction motivates.
//!
//! The observer is fixed-size: it keeps the last edge per direction and
//! a streaming count and sum per component, never the samples.

use crate::median::SampleStats;
use crate::observation::PacketObservation;
use serde::{Deserialize, Serialize};

/// Which direction a packet crossed the tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Client → server.
    Upstream,
    /// Server → client.
    Downstream,
}

/// Streaming two-direction spin observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualDirectionObserver {
    last_spin: [Option<bool>; 2],
    /// Last edge (time, value) per direction.
    last_edge: [Option<(u64, bool)>; 2],
    /// Tap → server → tap component samples (µs).
    server_side: SampleStats,
    /// Tap → client → tap component samples (µs).
    client_side: SampleStats,
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::Upstream => 0,
        Direction::Downstream => 1,
    }
}

impl DualDirectionObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one packet seen crossing the tap in `dir`.
    pub fn observe(&mut self, dir: Direction, obs: &PacketObservation) {
        let idx = dir_index(dir);
        let is_edge = match self.last_spin[idx] {
            None => {
                self.last_spin[idx] = Some(obs.spin);
                return;
            }
            Some(prev) => prev != obs.spin,
        };
        self.last_spin[idx] = Some(obs.spin);
        if !is_edge {
            return;
        }

        match dir {
            Direction::Downstream => {
                // The server reflected some client edge: if we saw that
                // edge go up with the same value, the gap is the
                // server-side component.
                if let Some((up_time, up_value)) = self.last_edge[0] {
                    if up_value == obs.spin && obs.time_us >= up_time {
                        self.server_side.push(obs.time_us - up_time);
                    }
                }
            }
            Direction::Upstream => {
                // The client inverted the value it received: the gap from
                // the reflected edge is the client-side component.
                if let Some((down_time, down_value)) = self.last_edge[1] {
                    if down_value != obs.spin && obs.time_us >= down_time {
                        self.client_side.push(obs.time_us - down_time);
                    }
                }
            }
        }
        self.last_edge[idx] = Some((obs.time_us, obs.spin));
    }

    /// Number of server-side component samples.
    pub fn server_side_count(&self) -> u64 {
        self.server_side.count()
    }

    /// Number of client-side component samples.
    pub fn client_side_count(&self) -> u64 {
        self.client_side.count()
    }

    /// Mean server-side component (µs, rounded down).
    pub fn server_side_mean_us(&self) -> Option<u64> {
        self.server_side.mean()
    }

    /// Mean client-side component (µs, rounded down).
    pub fn client_side_mean_us(&self) -> Option<u64> {
        self.client_side.mean()
    }

    /// Mean server-side component (ms).
    pub fn server_side_mean_ms(&self) -> Option<f64> {
        Some(self.server_side.mean_f64()? / 1000.0)
    }

    /// Mean client-side component (ms).
    pub fn client_side_mean_ms(&self) -> Option<f64> {
        Some(self.client_side.mean_f64()? / 1000.0)
    }

    /// Mean full RTT reconstructed from the two components (ms).
    pub fn full_rtt_mean_ms(&self) -> Option<f64> {
        Some(self.server_side_mean_ms()? + self.client_side_mean_ms()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t_ms: u64, spin: bool) -> PacketObservation {
        PacketObservation::wire(t_ms * 1000, spin)
    }

    /// A clean loop at a tap 10 ms from the client and 30 ms from the
    /// server (RTT 80 ms): client edge up at t, reflected down at t+60
    /// (tap→server→tap), next client edge up at t+80.
    fn feed_clean_loop(observer: &mut DualDirectionObserver, periods: u64) {
        observer.observe(Direction::Upstream, &obs(0, false));
        observer.observe(Direction::Downstream, &obs(1, false));
        for k in 0..periods {
            let base = 10 + 80 * k;
            let value = k % 2 == 0;
            observer.observe(Direction::Upstream, &obs(base, value));
            observer.observe(Direction::Downstream, &obs(base + 60, value));
        }
    }

    #[test]
    fn components_split_the_rtt_at_the_tap() {
        let mut observer = DualDirectionObserver::new();
        feed_clean_loop(&mut observer, 4);
        assert_eq!(observer.server_side_mean_ms(), Some(60.0));
        assert_eq!(observer.client_side_mean_ms(), Some(20.0));
        assert_eq!(observer.full_rtt_mean_ms(), Some(80.0));
    }

    #[test]
    fn sample_counts() {
        let mut observer = DualDirectionObserver::new();
        feed_clean_loop(&mut observer, 4);
        // 4 upstream edges → 4 reflections; client components need a
        // previous downstream edge → 3.
        assert_eq!(observer.server_side_count(), 4);
        assert_eq!(observer.client_side_count(), 3);
    }

    #[test]
    fn no_samples_without_edges() {
        let mut observer = DualDirectionObserver::new();
        for t in 0..10 {
            observer.observe(Direction::Upstream, &obs(t, false));
            observer.observe(Direction::Downstream, &obs(t, false));
        }
        assert!(observer.full_rtt_mean_ms().is_none());
        assert_eq!(observer.server_side_count(), 0);
    }

    #[test]
    fn mismatched_reflection_value_is_ignored() {
        let mut observer = DualDirectionObserver::new();
        observer.observe(Direction::Upstream, &obs(0, false));
        observer.observe(Direction::Downstream, &obs(0, false));
        // Client edge to 1 at t=10.
        observer.observe(Direction::Upstream, &obs(10, true));
        // A bogus downstream edge to 0 (not the reflection of 1).
        // It is a downstream edge only if the value changed — it did not
        // (downstream last was 0) — so feed a 1 then 0 to force an edge
        // with the wrong value relationship.
        observer.observe(Direction::Downstream, &obs(30, true)); // genuine reflection
        observer.observe(Direction::Downstream, &obs(40, false)); // spurious flip back

        // The spurious 1→0 downstream edge does not match upstream value 1.
        assert_eq!(observer.server_side_count(), 1);
        assert_eq!(observer.server_side_mean_us(), Some(20_000));
    }

    #[test]
    fn one_direction_only_yields_nothing() {
        let mut observer = DualDirectionObserver::new();
        for k in 0..6 {
            observer.observe(Direction::Downstream, &obs(k * 40, k % 2 == 0));
        }
        assert_eq!(observer.server_side_count(), 0);
        assert_eq!(observer.client_side_count(), 0);
    }
}
