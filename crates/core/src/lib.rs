//! # quicspin-core — passive spin-bit observation and analysis
//!
//! This crate is the methodological heart of the reproduction: everything
//! the paper's §3.3 and §5 do with collected packet data happens here.
//!
//! * [`PacketObservation`] — the §3.3 extraction: (timestamp, packet
//!   number, spin bit) per received 1-RTT packet.
//! * [`SpinObserver`] — detects spin edges in a single observed packet
//!   stream and turns the time between consecutive edges into RTT samples,
//!   optionally applying the RFC 9312 robustness heuristics
//!   ([`heuristics::RttFilter`]).
//! * [`WindowedMedian`] / [`SampleStats`] ([`median`]) — the fixed-size
//!   per-flow state behind the heuristics: the median of the last
//!   [`MEDIAN_WINDOW`] accepted periods, and streaming count/sum/min/max
//!   in place of sample lists.
//! * [`VecObserver`] — the Valid Edge Counter of De Vaere et al., carried
//!   in the short header's reserved bits by consenting endpoints.
//! * [`GreaseFilter`] — the paper's filter: a connection presumably
//!   greases the spin bit if any spin-derived RTT estimate undercuts the
//!   minimum of the QUIC stack's own estimates.
//! * [`classify`](classify::classify_flow) — the Table 3 taxonomy:
//!   AllZero / AllOne / Spinning / Greased.
//! * [`AccuracySample`] — §5.1's two metrics: absolute difference of the
//!   means and the mapped ratio (divide by the smaller mean; negative when
//!   the spin bit underestimates).
//! * [`reorder`] — §5.1's R/S comparison: received order vs. packets
//!   sorted by packet number.
//!
//! Nothing in this crate knows about the simulator or the QUIC stack; it
//! consumes plain observation records, so it can equally be fed from a
//! real packet capture.

pub mod accuracy;
pub mod classify;
pub mod dual;
pub mod grease;
pub mod heuristics;
pub mod median;
pub mod observation;
pub mod observer;
pub mod reorder;
pub mod report;
pub mod vec_counter;

pub use accuracy::AccuracySample;
pub use classify::FlowClassification;
pub use dual::{Direction, DualDirectionObserver};
pub use grease::GreaseFilter;
pub use heuristics::RttFilter;
pub use median::{SampleStats, WindowedMedian, MEDIAN_WINDOW};
pub use observation::PacketObservation;
pub use observer::{ObserverConfig, SpinEdge, SpinObserver};
pub use report::ObserverReport;
pub use vec_counter::{VecObserver, VEC_INVALID, VEC_MAX};
