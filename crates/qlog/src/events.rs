//! The event schema.

use serde::{Deserialize, Serialize};

/// Which packet-number space a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PacketSpace {
    /// Initial packets (long header).
    Initial,
    /// Handshake packets (long header).
    Handshake,
    /// 1-RTT application packets (short header — these carry the spin bit).
    Application,
}

impl PacketSpace {
    /// Whether packets in this space carry a spin bit.
    pub fn has_spin(self) -> bool {
        matches!(self, PacketSpace::Application)
    }
}

/// The body of a logged event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "name", rename_all = "snake_case")]
pub enum EventData {
    /// A packet left this endpoint.
    PacketSent {
        /// Packet-number space.
        space: PacketSpace,
        /// Full packet number.
        packet_number: u64,
        /// Spin bit on the wire (`None` for long-header packets).
        #[serde(skip_serializing_if = "Option::is_none", default)]
        spin: Option<bool>,
        /// Encoded datagram size in bytes.
        size: usize,
        /// Whether the packet elicits an ACK.
        ack_eliciting: bool,
    },
    /// A packet arrived at this endpoint. This is the record the paper's
    /// analysis consumes (spin, packet number, timestamp).
    PacketReceived {
        /// Packet-number space.
        space: PacketSpace,
        /// Full packet number.
        packet_number: u64,
        /// Spin bit on the wire (`None` for long-header packets).
        #[serde(skip_serializing_if = "Option::is_none", default)]
        spin: Option<bool>,
        /// Encoded datagram size in bytes.
        size: usize,
    },
    /// The RFC 9002 estimator produced a new sample.
    RttUpdated {
        /// Most recent raw sample (µs).
        latest_us: u64,
        /// Smoothed RTT (µs).
        smoothed_us: u64,
        /// Minimum RTT seen (µs).
        min_us: u64,
        /// Peer-reported ACK delay that was factored out (µs).
        ack_delay_us: u64,
    },
    /// The TLS-equivalent handshake finished.
    HandshakeCompleted,
    /// The connection ended.
    ConnectionClosed {
        /// Human-readable cause.
        reason: String,
    },
    /// A packet was declared lost by loss detection.
    PacketLost {
        /// Packet-number space.
        space: PacketSpace,
        /// Full packet number.
        packet_number: u64,
    },
}

/// An event with its (virtual) timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// Microseconds since connection start.
    pub time_us: u64,
    /// Event body.
    #[serde(flatten)]
    pub data: EventData,
}

impl LoggedEvent {
    /// Convenience constructor.
    pub fn new(time_us: u64, data: EventData) -> Self {
        LoggedEvent { time_us, data }
    }

    /// If this is a received 1-RTT packet, returns
    /// `(time_us, packet_number, spin)` — the paper's §3.3 extraction.
    pub fn as_spin_observation(&self) -> Option<(u64, u64, bool)> {
        match &self.data {
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number,
                spin: Some(spin),
                ..
            } => Some((self.time_us, *packet_number, *spin)),
            _ => None,
        }
    }

    /// If this is an RTT update, returns the latest sample in µs.
    pub fn as_rtt_sample(&self) -> Option<u64> {
        match &self.data {
            EventData::RttUpdated { latest_us, .. } => Some(*latest_us),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derived readers of the flattened, internally tagged event:
    /// the tag may sit at any position, unknown keys are skipped, a
    /// repeated key keeps its first value, omitted `default` fields take
    /// their default, and required fields and malformed skipped values
    /// are still errors.
    #[test]
    fn tagged_event_json_reads_in_any_member_order() {
        let text = r#"{"size":100,"extra":{"a":[1,2]},"packet_number":7,"size":5,
            "space":"application","time_us":1000,"name":"packet_received"}"#;
        let ev: LoggedEvent = serde_json::from_str(text).unwrap();
        let expected = EventData::PacketReceived {
            space: PacketSpace::Application,
            packet_number: 7,
            spin: None,
            size: 100,
        };
        assert_eq!(ev, LoggedEvent::new(1000, expected));
        let closed = r#"{"time_us":3,"reason":"idle","name":"connection_closed"}"#;
        let ev: LoggedEvent = serde_json::from_str(closed).unwrap();
        assert_eq!(
            ev.data,
            EventData::ConnectionClosed {
                reason: "idle".into()
            }
        );
        assert_eq!(
            serde_json::from_str::<LoggedEvent>(&serde_json::to_string(&ev).unwrap()).unwrap(),
            ev
        );

        let err = |text: &str| serde_json::from_str::<LoggedEvent>(text).unwrap_err().0;
        assert_eq!(
            err(r#"{"time_us":3,"name":"packet_lost","space":"initial"}"#),
            "missing field `packet_number` while deserializing EventData"
        );
        assert_eq!(
            err(r#"{"time_us":3}"#),
            "missing field `name` while deserializing EventData"
        );
        assert_eq!(
            err(r#"{"name":"handshake_completed"}"#),
            "missing field `time_us` while deserializing LoggedEvent"
        );
        assert_eq!(
            err(r#"{"time_us":3,"name":"hello"}"#),
            "unknown variant `hello` of EventData"
        );
        assert!(err(r#"{"time_us":3,"name":"handshake_completed","x":[1,}"#).contains("offset"));
    }

    #[test]
    fn spin_observation_extraction() {
        let ev = LoggedEvent::new(
            1000,
            EventData::PacketReceived {
                space: PacketSpace::Application,
                packet_number: 7,
                spin: Some(true),
                size: 100,
            },
        );
        assert_eq!(ev.as_spin_observation(), Some((1000, 7, true)));
    }

    #[test]
    fn long_header_packets_are_not_spin_observations() {
        let ev = LoggedEvent::new(
            5,
            EventData::PacketReceived {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1200,
            },
        );
        assert_eq!(ev.as_spin_observation(), None);
    }

    #[test]
    fn sent_packets_are_not_spin_observations() {
        let ev = LoggedEvent::new(
            5,
            EventData::PacketSent {
                space: PacketSpace::Application,
                packet_number: 0,
                spin: Some(false),
                size: 100,
                ack_eliciting: true,
            },
        );
        assert_eq!(ev.as_spin_observation(), None);
    }

    #[test]
    fn rtt_sample_extraction() {
        let ev = LoggedEvent::new(
            9,
            EventData::RttUpdated {
                latest_us: 40_000,
                smoothed_us: 41_000,
                min_us: 39_000,
                ack_delay_us: 25,
            },
        );
        assert_eq!(ev.as_rtt_sample(), Some(40_000));
        assert_eq!(
            LoggedEvent::new(9, EventData::HandshakeCompleted).as_rtt_sample(),
            None
        );
    }

    #[test]
    fn serde_roundtrip() {
        let events = vec![
            LoggedEvent::new(
                0,
                EventData::PacketSent {
                    space: PacketSpace::Initial,
                    packet_number: 0,
                    spin: None,
                    size: 1200,
                    ack_eliciting: true,
                },
            ),
            LoggedEvent::new(
                100,
                EventData::PacketReceived {
                    space: PacketSpace::Application,
                    packet_number: 3,
                    spin: Some(true),
                    size: 64,
                },
            ),
            LoggedEvent::new(200, EventData::HandshakeCompleted),
            LoggedEvent::new(
                300,
                EventData::ConnectionClosed {
                    reason: "done".into(),
                },
            ),
            LoggedEvent::new(
                400,
                EventData::PacketLost {
                    space: PacketSpace::Handshake,
                    packet_number: 1,
                },
            ),
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<LoggedEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn json_uses_snake_case_names() {
        let ev = LoggedEvent::new(1, EventData::HandshakeCompleted);
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"handshake_completed\""), "{json}");
        assert!(json.contains("\"time_us\":1"), "{json}");
    }

    #[test]
    fn spin_field_omitted_when_absent() {
        let ev = LoggedEvent::new(
            1,
            EventData::PacketReceived {
                space: PacketSpace::Initial,
                packet_number: 0,
                spin: None,
                size: 1,
            },
        );
        let json = serde_json::to_string(&ev).unwrap();
        assert!(!json.contains("spin"), "{json}");
    }

    #[test]
    fn only_application_space_has_spin() {
        assert!(PacketSpace::Application.has_spin());
        assert!(!PacketSpace::Initial.has_spin());
        assert!(!PacketSpace::Handshake.has_spin());
    }
}
