//! quicspin benchmark: three seeded, single-process workloads against the
//! public APIs of the pipeline's layers, all traffic simulated in-process.
//!
//! ```text
//! perfbench --workload <paper_sweep|toplist_lossy_tap|tap_replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! telemetry off; `--trace 1` is the traced run that gives the per-layer
//! metrics and writes its spans under `out/<workload>/trace/`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See NOTE.md for why each
//! workload exists and what each metric should move.

mod replay;
mod sweep;
mod trace;
mod units;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{Checks, Metrics};

/// Worker threads: the machine's parallelism, capped so the workload
/// stays the same shape on larger hosts.
const MAX_THREADS: usize = 2;

/// The workloads by name.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Sweep(sweep::Kind),
    TapReplay,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_sweep", Workload::Sweep(sweep::Kind::Paper)),
    (
        "toplist_lossy_tap",
        Workload::Sweep(sweep::Kind::ToplistLossyTap),
    ),
    ("tap_replay", Workload::TapReplay),
];

/// Every per-layer metric the traced run prints, with its unit. A layer
/// that does no work in a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("webpop.generate_s", "s"),
    ("webpop.domains", "count"),
    ("scanner.domain_p50_us", "us"),
    ("scanner.domain_p99_us", "us"),
    ("scanner.nonquic_domain_p50_ns", "ns"),
    ("scanner.engine_overhead_share", "ratio"),
    ("scanner.mailbox_wait_s", "s"),
    ("scanner.fold_s", "s"),
    ("scanner.peak_record_bytes", "bytes"),
    ("scanner.records_per_domain", "ratio"),
    ("scanner.probe_error_ratio", "ratio"),
    ("scanner.artifact_write_s", "s"),
    ("scanner.artifact_read_s", "s"),
    ("scanner.artifact_bytes", "bytes"),
    ("scanner.probe_unattributed_share", "ratio"),
    ("quic.handshake_p50_us", "us"),
    ("quic.handshake_p99_us", "us"),
    ("quic.transfer_p50_us", "us"),
    ("quic.transfer_p99_us", "us"),
    ("quic.packets_per_probe", "count"),
    ("quic.retransmit_ratio", "ratio"),
    ("quic.ptos_per_probe", "count"),
    ("netsim.wheel_pushes_per_probe", "count"),
    ("netsim.wheel_pops_per_probe", "count"),
    ("netsim.drops_per_probe", "count"),
    ("netsim.reorders_per_probe", "count"),
    ("netsim.queue_high_water", "count"),
    ("netsim.payload_reclaim_ratio", "ratio"),
    ("netsim.send_drain_ns", "ns"),
    ("wire.encodes_per_probe", "count"),
    ("wire.decodes_per_probe", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.peek_ns", "ns"),
    ("observer.ingest_ns", "ns"),
    ("observer.long_flow_ingest_ns", "ns"),
    ("observer.short_flow_ingest_ns", "ns"),
    ("observer.rss_growth_mib", "MiB"),
    ("observer.measurable_ratio", "ratio"),
    ("observer.rejected_ratio", "ratio"),
    ("observer.fold_p50_us", "us"),
    ("core.spin_extraction_p50_us", "us"),
    ("core.classify_p50_us", "us"),
    ("qlog.encode_p50_us", "us"),
    ("qlog.trace_store_bytes", "bytes"),
    ("analysis.build_s", "s"),
    ("analysis.records_per_s", "1/s"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Parsed command line plus the run's derived settings.
pub struct Opts {
    name: String,
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    pub threads: usize,
    /// Where the run writes artifacts and spans.
    pub out_dir: PathBuf,
    /// Identifier shared by every span of this run.
    pub run_id: String,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let name: String = workload.ok_or("missing --workload")?;
        let workload = WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                format!("unknown workload {name:?} (one of {})", names.join(", "))
            })?;
        let seed: u64 = seed.ok_or("missing --seed")?;
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_THREADS);
        let started = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        Ok(Opts {
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(&name),
            run_id: format!("{name}-seed{seed}-{}-{started}", std::process::id()),
            name,
            workload,
            seed,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            threads,
        })
    }
}

/// The traced run's per-layer metrics by name.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

/// Writes the traced run's spans to `out/<workload>/trace/` and prints
/// the per-name roll-up to standard error.
pub fn write_trace(
    opts: &Opts,
    tracer: &trace::Tracer,
    spans: &[trace::Span],
) -> Result<(), String> {
    let dir = opts.out_dir.join("trace");
    let rows = trace::write_spans(&dir, tracer, spans)
        .map_err(|e| format!("cannot write spans to {}: {e}", dir.display()))?;
    eprintln!("spans written to {} ({} spans)", dir.display(), spans.len());
    eprintln!(
        "{:<40} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, n, total, own) in rows {
        eprintln!(
            "{name:<40} {n:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(Checks, Metrics), String> {
    let result = if opts.trace {
        let mut layers = LayerMetrics::default();
        let checks = match opts.workload {
            Workload::Sweep(kind) => sweep::run_traced(kind, opts, &mut layers)?,
            Workload::TapReplay => replay::run_traced(opts, &mut layers)?,
        };
        (checks, layers.into_metrics())
    } else {
        match opts.workload {
            Workload::Sweep(kind) => sweep::run(kind, opts)?,
            Workload::TapReplay => replay::run(opts)?,
        }
    };
    // The artifact set is rewritten by every iteration; only spans stay.
    let artifacts = opts.out_dir.join("artifacts");
    if artifacts.exists() {
        std::fs::remove_dir_all(&artifacts)
            .map_err(|e| format!("cannot remove {}: {e}", artifacts.display()))?;
    }
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Opts::parse(&args).and_then(|opts| {
        eprintln!(
            "workload {} seed {} seconds {} trace {} threads {}",
            opts.name, opts.seed, opts.seconds, opts.trace, opts.threads
        );
        let (checks, metrics) = run(&opts)?;
        util::result_line(checks, &metrics)
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
