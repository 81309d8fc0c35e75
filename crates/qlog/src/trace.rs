//! Per-connection trace logs and the qlog file envelope.

use crate::events::{EventData, LoggedEvent};
use serde::{Deserialize, Serialize};

/// One connection's event trace (one qlog "trace").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TraceLog {
    /// Which endpoint produced the log (`"client"` / `"server"`).
    pub vantage_point: String,
    /// Free-form identifier (the scanner stores the target domain here).
    #[serde(default)]
    pub title: String,
    /// The events, in emission order.
    pub events: Vec<LoggedEvent>,
}

impl TraceLog {
    /// Creates an empty trace for the given vantage point.
    pub fn new(vantage_point: impl Into<String>) -> Self {
        TraceLog {
            vantage_point: vantage_point.into(),
            title: String::new(),
            events: Vec::new(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, time_us: u64, data: EventData) {
        self.events.push(LoggedEvent::new(time_us, data));
    }

    /// All `(time_us, packet_number, spin)` observations from received
    /// 1-RTT packets — the §3.3 extraction the analysis runs on.
    pub fn spin_observations(&self) -> Vec<(u64, u64, bool)> {
        self.events
            .iter()
            .filter_map(LoggedEvent::as_spin_observation)
            .collect()
    }

    /// All raw RTT samples (µs) the endpoint's estimator produced.
    pub fn rtt_samples_us(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(LoggedEvent::as_rtt_sample)
            .collect()
    }

    /// Whether the log records a completed handshake.
    pub fn handshake_completed(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.data, EventData::HandshakeCompleted))
    }

    /// Virtual time (µs since connection start) at which the handshake
    /// completed, if it did.
    pub fn handshake_time_us(&self) -> Option<u64> {
        self.events
            .iter()
            .find(|e| matches!(e.data, EventData::HandshakeCompleted))
            .map(|e| e.time_us)
    }

    /// Virtual duration of the connection: the timestamp of the last
    /// logged event (events are pushed in emission order).
    pub fn duration_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.time_us)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Heap bytes the trace owns: its strings' and event vector's
    /// capacities plus the close reasons the events hold.
    pub fn heap_bytes(&self) -> usize {
        let reasons: usize = self
            .events
            .iter()
            .map(|e| match &e.data {
                EventData::ConnectionClosed { reason } => reason.capacity(),
                _ => 0,
            })
            .sum();
        self.vantage_point.capacity()
            + self.title.capacity()
            + self.events.capacity() * std::mem::size_of::<LoggedEvent>()
            + reasons
    }
}

/// The qlog file envelope (`qlog_version` + traces), mirroring the
/// structure of qlog 0.3 serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QlogFile {
    /// Format version marker.
    pub qlog_version: String,
    /// Tool that produced the file.
    pub tool: String,
    /// The traces.
    pub traces: Vec<TraceLog>,
}

impl QlogFile {
    /// Wraps traces in the standard envelope.
    pub fn new(traces: Vec<TraceLog>) -> Self {
        QlogFile {
            qlog_version: "0.3".into(),
            tool: "quicspin".into(),
            traces,
        }
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a JSON string produced by [`QlogFile::to_json`].
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PacketSpace;

    fn sample_trace() -> TraceLog {
        let mut t = TraceLog::new("client");
        t.title = "www.example.com".into();
        t.push(
            0,
            EventData::PacketSent {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1200,
                ack_eliciting: true,
            },
        );
        t.push(
            40_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 1,
                spin: Some(false),
                size: 64,
            },
        );
        t.push(40_001, EventData::HandshakeCompleted);
        t.push(
            80_000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 2,
                spin: Some(true),
                size: 64,
            },
        );
        t.push(
            80_001,
            EventData::RttUpdated {
                latest_us: 40_000,
                smoothed_us: 40_000,
                min_us: 40_000,
                ack_delay_us: 0,
            },
        );
        t
    }

    #[test]
    fn spin_observations_in_order() {
        let t = sample_trace();
        assert_eq!(
            t.spin_observations(),
            vec![(40_000, 1, false), (80_000, 2, true)]
        );
    }

    #[test]
    fn rtt_samples_extracted() {
        let t = sample_trace();
        assert_eq!(t.rtt_samples_us(), vec![40_000]);
    }

    #[test]
    fn handshake_flag() {
        assert!(sample_trace().handshake_completed());
        assert!(!TraceLog::new("client").handshake_completed());
    }

    #[test]
    fn virtual_times() {
        let t = sample_trace();
        assert_eq!(t.handshake_time_us(), Some(40_001));
        assert_eq!(t.duration_us(), 80_001);
        let empty = TraceLog::new("client");
        assert_eq!(empty.handshake_time_us(), None);
        assert_eq!(empty.duration_us(), 0);
    }

    #[test]
    fn len_and_empty() {
        assert!(TraceLog::new("x").is_empty());
        let t = sample_trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn envelope_roundtrip() {
        let file = QlogFile::new(vec![sample_trace(), TraceLog::new("server")]);
        let json = file.to_json().unwrap();
        assert!(json.contains("\"qlog_version\":\"0.3\""));
        let back = QlogFile::from_json(&json).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn pretty_json_parses_back() {
        let file = QlogFile::new(vec![sample_trace()]);
        let pretty = file.to_json_pretty().unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(QlogFile::from_json(&pretty).unwrap(), file);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(QlogFile::from_json("{not json").is_err());
        assert!(QlogFile::from_json("{}").is_err());
    }
}
