//! The two campaign workloads: `paper_sweep` (the paper's own
//! zone-scale sweep into Tables 1–4 and Figs. 3–4) and
//! `toplist_lossy_tap` (a QUIC-dense toplist over an adverse path with
//! the on-path tap and flight recorder, streamed into the artifact set).

use crate::trace::{Open, Span, Tracer};
use crate::units;
use crate::util::{self, median, quantile, ratio, since, splitmix64, Checks, Metrics, PeakRss};
use crate::{LayerMetrics, Opts};
use quicspin_analysis::Dataset;
use quicspin_h3::MAX_REDIRECTS;
use quicspin_qlog::encode_trace;
use quicspin_scanner::{
    chrome_trace_export, read_anomaly_index, read_chrome_trace, read_flagged_trace, read_observer,
    read_timeseries, write_chrome_trace, write_flight_recording, write_observer, write_timeseries,
    CampaignConfig, ConnectionRecord, FlightConfig, FlightRecording, NetworkConditions,
    ObserverDocBuilder, ProbeScratch, RecordRow, ScanOutcome, Scanner, TimeSeriesBuilder,
    TRACE_STORE_FILE_NAME,
};
use quicspin_telemetry::{
    GaugeId, Metric, ProfilerRegistry, Registry, ScopeId, Stage, DEFAULT_TIMESERIES_CAPACITY,
};
use quicspin_webpop::{Population, PopulationConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One domain in this many is re-scanned alone as the determinism check.
const SAMPLE_EVERY: u64 = 64;
/// Retained flight traces decoded back from `traces.bin` per iteration.
const TRACE_READBACK_SAMPLE: usize = 32;
/// Resident record budget of the streamed engine (as `spinctl run`).
const RECORD_BUDGET_BYTES: usize = 1 << 20;
/// Lab runs captured for the per-layer unit costs.
const MIX_CONNECTIONS: usize = 64;
/// Toplist population size of `toplist_lossy_tap`.
const TOPLIST_DOMAINS: u32 = 60_000;
/// Tap position of `toplist_lossy_tap` (mid-path).
const TAP_POSITION: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    ToplistLossyTap,
}

impl Kind {
    fn population(self, seed: u64) -> PopulationConfig {
        match self {
            Kind::Paper => PopulationConfig::paper_scale(1000).with_seed(seed),
            Kind::ToplistLossyTap => PopulationConfig {
                seed,
                toplist_domains: TOPLIST_DOMAINS,
                zone_domains: 0,
            },
        }
    }

    fn campaign(self, seed: u64, threads: usize) -> CampaignConfig {
        match self {
            Kind::Paper => CampaignConfig {
                threads,
                ..CampaignConfig::default()
            },
            Kind::ToplistLossyTap => CampaignConfig {
                threads,
                conditions: NetworkConditions {
                    loss: 0.02,
                    reorder: 0.01,
                    jitter_frac: 0.05,
                },
                tap: Some(TAP_POSITION),
                flight: FlightConfig {
                    baseline_sample_every: 64,
                    ..FlightConfig::armed(seed)
                },
                ..CampaignConfig::default()
            },
        }
    }
}

/// Span recording for one iteration: off in untraced iterations (every
/// call is a branch, no clock read), on in traced ones.
struct Spans<'t> {
    tracer: Option<&'t Tracer>,
    root: Option<u64>,
    spans: Vec<Span>,
}

impl<'t> Spans<'t> {
    fn off() -> Self {
        Spans {
            tracer: None,
            root: None,
            spans: Vec::new(),
        }
    }

    fn on(tracer: &'t Tracer, root: u64) -> Self {
        Spans {
            tracer: Some(tracer),
            root: Some(root),
            spans: Vec::new(),
        }
    }

    fn open(&self, name: &'static str, parent: Option<&Open>) -> Option<Open> {
        let parent = parent.map(Open::id).or(self.root);
        self.tracer.map(|t| t.open(name, parent, None))
    }

    /// Ends the span and returns its duration in seconds (0 when off).
    fn close(&mut self, open: Option<Open>) -> f64 {
        match (self.tracer, open) {
            (Some(t), Some(o)) => t.close(o, &mut self.spans) as f64 / 1e9,
            _ => 0.0,
        }
    }
}

/// Per-domain output checks: every domain of the population appears
/// once, in id order, and keeps the record invariants; sampled domains
/// must equal a lone `Scanner::scan_domain` of the same domain.
struct DomainCheck<'r> {
    domains: u32,
    tap: bool,
    sample_seed: u64,
    reference: &'r BTreeMap<u32, Vec<String>>,
    next: u32,
    current: Option<u32>,
    failing: BTreeSet<u32>,
    captured: BTreeMap<u32, Vec<String>>,
}

impl<'r> DomainCheck<'r> {
    fn new(
        domains: u32,
        tap: bool,
        sample_seed: u64,
        reference: &'r BTreeMap<u32, Vec<String>>,
    ) -> Self {
        DomainCheck {
            domains,
            tap,
            sample_seed,
            reference,
            next: 0,
            current: None,
            failing: BTreeSet::new(),
            captured: BTreeMap::new(),
        }
    }

    fn sampled(sample_seed: u64, id: u32) -> bool {
        splitmix64(sample_seed ^ u64::from(id)).is_multiple_of(SAMPLE_EVERY)
    }

    /// Notes one record row (rows arrive in record order); `repr`
    /// renders the full record for sampled domains.
    fn row(&mut self, row: &RecordRow, repr: impl FnOnce() -> String) {
        let id = row.domain_id;
        if self.current != Some(id) {
            if id != self.next {
                // Out of order, repeated, or domains skipped.
                self.failing.insert(id);
                for missing in self.next..id.min(self.domains) {
                    self.failing.insert(missing);
                }
            }
            self.current = Some(id);
            self.next = self.next.max(id.saturating_add(1));
        }
        let established = row.outcome == ScanOutcome::Ok;
        let ok = (!established || row.classification.is_some())
            && (!established || !self.tap || row.observer.is_some())
            && row.redirect_depth as usize <= MAX_REDIRECTS;
        if !ok {
            self.failing.insert(id);
        }
        if Self::sampled(self.sample_seed, id) {
            self.captured.entry(id).or_default().push(repr());
        }
    }

    fn finish(mut self) -> Checks {
        for missing in self.next..self.domains {
            self.failing.insert(missing);
        }
        for (id, want) in self.reference {
            if self.captured.get(id) != Some(want) {
                self.failing.insert(*id);
            }
        }
        Checks {
            attempted: u64::from(self.domains),
            failed: self.failing.len() as u64,
        }
    }
}

/// Scans every sampled domain alone, as the determinism reference.
fn reference(
    kind: Kind,
    scanner: &Scanner<'_>,
    config: &CampaignConfig,
    domains: u32,
    sample_seed: u64,
) -> BTreeMap<u32, Vec<String>> {
    (0..domains)
        .filter(|&id| DomainCheck::sampled(sample_seed, id))
        .map(|id| {
            let records = scanner.scan_domain(id, config);
            let reprs = records
                .iter()
                .map(|r| match kind {
                    Kind::Paper => format!("{r:?}"),
                    Kind::ToplistLossyTap => format!("{:?}", RecordRow::of(r)),
                })
                .collect();
            (id, reprs)
        })
        .collect()
}

/// What one timed iteration produced.
#[derive(Default)]
struct Iteration {
    run_s: f64,
    sweep_s: f64,
    /// 1-RTT packets processed in the sweep (see NOTE.md).
    packets: u64,
    records: u64,
    checks: Checks,
    // Filled only when spans are on.
    fold_s: f64,
    analysis_s: f64,
    artifact_write_s: f64,
    artifact_read_s: f64,
    artifact_bytes: u64,
    record_bytes: u64,
    trace_store_bytes: u64,
    qlog_encode_us: Vec<f64>,
}

/// `run_campaign` then `Dataset::build_parallel`, then the checks.
fn paper_iteration(
    scanner: &Scanner<'_>,
    config: &CampaignConfig,
    check: DomainCheck<'_>,
    spans: &mut Spans<'_>,
) -> Iteration {
    let start = Instant::now();
    let s = spans.open("scanner.run_campaign", None);
    let campaign = scanner.run_campaign(config);
    spans.close(s);
    let sweep_s = since(start);
    let s = spans.open("analysis.Dataset::build_parallel", None);
    let dataset = Dataset::build_parallel(&campaign, config.threads);
    let analysis_s = spans.close(s);
    let run_s = since(start);
    std::hint::black_box(&dataset);

    let mut check = check;
    let mut packets = 0u64;
    let mut record_bytes =
        (campaign.records.capacity() * std::mem::size_of::<ConnectionRecord>()) as u64;
    for r in &campaign.records {
        check.row(&RecordRow::of(r), || format!("{r:?}"));
        if let Some(report) = &r.report {
            packets += report.packets as u64;
            record_bytes += 8
                * (report.spin_samples_received_us.capacity()
                    + report.spin_samples_sorted_us.capacity()
                    + report.stack_samples_us.capacity()) as u64;
        }
    }
    Iteration {
        run_s,
        sweep_s,
        packets,
        records: campaign.records.len() as u64,
        checks: check.finish(),
        analysis_s,
        record_bytes,
        ..Iteration::default()
    }
}

/// The streamed flight sweep folded into the observer document and time
/// series, then the artifact set written and read back, then the checks.
fn toplist_iteration(
    scanner: &Scanner<'_>,
    config: &CampaignConfig,
    dir: &Path,
    check: DomainCheck<'_>,
    spans: &mut Spans<'_>,
) -> Result<Iteration, String> {
    let tap = config.tap.unwrap_or(TAP_POSITION);
    let mut check = check;
    let mut builder = TimeSeriesBuilder::new(DEFAULT_TIMESERIES_CAPACITY);
    let mut observer = ObserverDocBuilder::new(&config.campaign_id(), tap);
    let mut packets = 0u64;
    let mut records = 0u64;
    let mut fold_s = 0.0;

    let start = Instant::now();
    let sweep_span = spans.open("scanner.run_campaign_streamed_flight", None);
    let recording = scanner.run_campaign_streamed_flight(config, RECORD_BUDGET_BYTES, |batch| {
        let s = spans.open("scanner.sink", sweep_span.as_ref());
        for i in 0..batch.len() {
            observer.note_row(&batch.row(i));
        }
        builder.push_batch(batch);
        fold_s += spans.close(s);
        records += batch.len() as u64;
        for i in 0..batch.len() {
            let row = batch.row(i);
            packets += row.observer.map_or(0, |v| v.stats.packets);
            check.row(&row, || format!("{row:?}"));
        }
    });
    spans.close(sweep_span);
    let sweep_s = since(start);

    let io = |e: std::io::Error| format!("artifact i/o in {}: {e}", dir.display());
    let write_start = Instant::now();
    let s = spans.open("scanner.write_flight_recording", None);
    write_flight_recording(dir, &recording).map_err(io)?;
    spans.close(s);
    let s = spans.open("scanner.write_timeseries", None);
    let series = builder.finish(config.campaign_id());
    write_timeseries(dir, &series).map_err(io)?;
    spans.close(s);
    let s = spans.open("scanner.write_chrome_trace", None);
    let events = chrome_trace_export(&recording);
    write_chrome_trace(dir, &events).map_err(io)?;
    spans.close(s);
    let s = spans.open("scanner.write_observer", None);
    let doc = observer.finish();
    write_observer(dir, &doc).map_err(io)?;
    spans.close(s);
    let artifact_write_s = since(write_start);

    // Read-back errors are output failures of the program, not of the
    // benchmark: they count against the checks below.
    let read_start = Instant::now();
    let s = spans.open("scanner.read_anomaly_index", None);
    let index_back = read_anomaly_index(dir);
    spans.close(s);
    let s = spans.open("scanner.read_flagged_trace", None);
    let slots = index_back
        .as_ref()
        .map(|i| i.traces.clone())
        .unwrap_or_default();
    let stride = slots.len().div_ceil(TRACE_READBACK_SAMPLE).max(1);
    let traces_back: Vec<_> = slots
        .iter()
        .step_by(stride)
        .map(|slot| (slot.probe, read_flagged_trace(dir, slot)))
        .collect();
    spans.close(s);
    let s = spans.open("scanner.read_timeseries", None);
    let series_back = read_timeseries(dir);
    spans.close(s);
    let s = spans.open("scanner.read_chrome_trace", None);
    let events_back = read_chrome_trace(dir);
    spans.close(s);
    let s = spans.open("scanner.read_observer", None);
    let doc_back = read_observer(dir);
    spans.close(s);
    let artifact_read_s = since(read_start);
    let run_s = since(start);

    let mut checks = check.finish();
    let store = recording.trace_store();
    checks.note(index_back.as_ref().is_ok_and(|i| *i == recording.index()));
    checks.note(
        std::fs::read(dir.join(TRACE_STORE_FILE_NAME)).is_ok_and(|b| b == store)
            && traces_back
                .iter()
                .all(|(probe, t)| t.as_ref().ok() == recording.trace(*probe).as_ref()),
    );
    checks.note(series_back.is_ok_and(|s| s == series));
    checks.note(events_back.is_ok_and(|e| e == events));
    checks.note(doc_back.is_ok_and(|d| d == doc));

    let mut iteration = Iteration {
        run_s,
        sweep_s,
        packets,
        records,
        checks,
        fold_s,
        artifact_write_s,
        artifact_read_s,
        ..Iteration::default()
    };
    if spans.tracer.is_some() {
        iteration.artifact_bytes = std::fs::read_dir(dir)
            .map_err(io)?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        iteration.trace_store_bytes = store.len() as u64;
        iteration.qlog_encode_us = qlog_encode_us(&recording);
    }
    Ok(iteration)
}

/// Per-trace `encode_trace` time (µs) over the retained flight traces.
fn qlog_encode_us(recording: &FlightRecording) -> Vec<f64> {
    recording
        .retained()
        .iter()
        .filter_map(|t| recording.trace(t.probe))
        .map(|trace| {
            let start = Instant::now();
            std::hint::black_box(encode_trace(std::hint::black_box(&trace)));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

fn iterate(
    kind: Kind,
    scanner: &Scanner<'_>,
    config: &CampaignConfig,
    opts: &Opts,
    check: DomainCheck<'_>,
    spans: &mut Spans<'_>,
) -> Result<Iteration, String> {
    match kind {
        Kind::Paper => Ok(paper_iteration(scanner, config, check, spans)),
        Kind::ToplistLossyTap => toplist_iteration(
            scanner,
            config,
            &opts.out_dir.join("artifacts"),
            check,
            spans,
        ),
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, opts: &Opts) -> Result<(Checks, Metrics), String> {
    let seed = splitmix64(opts.seed ^ 0x5eed_2023);
    let (population, setup) = util::repeat_setup(|| Population::generate(kind.population(seed)));
    let domains = population.len() as u32;
    let config = kind.campaign(seed, opts.threads);
    let scanner = Scanner::new(&population);
    let sample_seed = splitmix64(seed);
    let reference = reference(kind, &scanner, &config, domains, sample_seed);
    let new_check = || DomainCheck::new(domains, config.tap.is_some(), sample_seed, &reference);

    let mut checks = Checks::default();
    let mut runs = Vec::new();
    let mut sweeps = Vec::new();
    let mut packets = 0;
    let mut rss = PeakRss::default();
    let start = Instant::now();
    while runs.is_empty() || since(start) < opts.seconds {
        let it = iterate(
            kind,
            &scanner,
            &config,
            opts,
            new_check(),
            &mut Spans::off(),
        )?;
        rss.note_iteration()?;
        eprintln!(
            "iteration {}: run {:.3} s, sweep {:.3} s, {} records, {} failed",
            runs.len(),
            it.run_s,
            it.sweep_s,
            it.records,
            it.checks.failed
        );
        runs.push(it.run_s);
        sweeps.push(it.sweep_s);
        packets = it.packets;
        checks.add(it.checks);
    }
    let sweep_s = median(&sweeps);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("run_s", median(&runs), "s");
    m.put("domains_per_s", f64::from(domains) / sweep_s, "1/s");
    m.put("packets_per_s", packets as f64 / sweep_s, "1/s");
    m.put("peak_rss_mib", rss.mib()?, "MiB");
    m.put("ok_ratio", checks.ok_ratio(), "ratio");
    Ok((checks, m))
}

/// Per-domain call timing from the traced run's own per-domain pass.
#[derive(Clone, Copy)]
enum DomainClass {
    /// At least one connection established.
    Established,
    /// Never reached the lab (unresolved or no QUIC).
    NonQuic,
    /// Handshake failed or host unreachable.
    Errored,
}

/// Drives `Scanner::scan_domain_into` for every domain on `threads`
/// workers, one span per call sharing the domain id.
fn per_domain_pass(
    scanner: &Scanner<'_>,
    config: &CampaignConfig,
    domains: u32,
    tracer: &Tracer,
    parent: u64,
) -> (Vec<(DomainClass, u64)>, Vec<Span>) {
    const BATCH: u32 = 64;
    let cursor = AtomicU32::new(0);
    let worker = || {
        let mut scratch = ProbeScratch::default();
        let mut records = Vec::new();
        let mut spans = Vec::new();
        let mut timed = Vec::new();
        loop {
            let lo = cursor.fetch_add(BATCH, Ordering::Relaxed);
            if lo >= domains {
                break;
            }
            for id in lo..(lo + BATCH).min(domains) {
                records.clear();
                let s = tracer.open("scanner.scan_domain_into", Some(parent), Some(id));
                scanner.scan_domain_into(id, config, &mut scratch, &mut records);
                let ns = tracer.close(s, &mut spans);
                let class = if records.iter().any(|r| r.outcome == ScanOutcome::Ok) {
                    DomainClass::Established
                } else if records
                    .iter()
                    .all(|r| matches!(r.outcome, ScanOutcome::NotResolved | ScanOutcome::NoQuic))
                {
                    DomainClass::NonQuic
                } else {
                    DomainClass::Errored
                };
                timed.push((class, ns));
            }
        }
        (timed, spans)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads.max(1))
            .map(|_| scope.spawn(worker))
            .collect();
        let mut timed = Vec::new();
        let mut spans = Vec::new();
        for h in handles {
            let (t, s) = h.join().expect("per-domain worker panicked");
            timed.extend(t);
            spans.extend(s);
        }
        (timed, spans)
    })
}

/// The traced run: per-layer metrics.
pub fn run_traced(kind: Kind, opts: &Opts, layers: &mut LayerMetrics) -> Result<Checks, String> {
    let seed = splitmix64(opts.seed ^ 0x5eed_2023);
    let tracer = Tracer::new(opts.run_id.clone());
    let root = tracer.open("benchmark.traced_run", None, None);
    let mut spans = Vec::new();

    let s = tracer.open("webpop.Population::generate", Some(root.id()), None);
    let population = Population::generate(kind.population(seed));
    layers.set(
        "webpop.generate_s",
        tracer.close(s, &mut spans) as f64 / 1e9,
    );
    let domains = population.len() as u32;
    layers.set("webpop.domains", f64::from(domains));
    let config = kind.campaign(seed, opts.threads);
    let scanner = Scanner::new(&population);
    let sample_seed = splitmix64(seed);
    let reference = reference(kind, &scanner, &config, domains, sample_seed);
    let new_check = || DomainCheck::new(domains, config.tap.is_some(), sample_seed, &reference);

    // After one warm-up, alternate untraced and traced iterations; the
    // traced ones run with the program's registry and profiler enabled
    // and spans around every call into the scanner, analysis and
    // artifact layers.
    let mut checks = Checks::default();
    let mut untraced_runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut last = None;
    let warm_up = iterate(
        kind,
        &scanner,
        &config,
        opts,
        new_check(),
        &mut Spans::off(),
    )?;
    checks.add(warm_up.checks);
    let start = Instant::now();
    while traced_runs.is_empty() || since(start) < opts.seconds / 2.0 {
        let it = iterate(
            kind,
            &scanner,
            &config,
            opts,
            new_check(),
            &mut Spans::off(),
        )?;
        untraced_runs.push(it.run_s);
        checks.add(it.checks);

        let traced_config = CampaignConfig {
            telemetry: Arc::new(Registry::new()),
            profiler: Arc::new(ProfilerRegistry::new()),
            ..config.clone()
        };
        let iteration_span = tracer.open("benchmark.iteration", Some(root.id()), None);
        let mut iteration_spans = Spans::on(&tracer, iteration_span.id());
        let it = iterate(
            kind,
            &scanner,
            &traced_config,
            opts,
            new_check(),
            &mut iteration_spans,
        )?;
        tracer.close(iteration_span, &mut spans);
        spans.append(&mut iteration_spans.spans);
        traced_runs.push(it.run_s);
        checks.add(it.checks);
        last = Some((it, traced_config));
    }
    let (it, traced) = last.expect("at least one traced iteration");
    layers.set(
        "telemetry.trace_overhead",
        median(&traced_runs) / median(&untraced_runs) - 1.0,
    );

    let pass = tracer.open("benchmark.per_domain_pass", Some(root.id()), None);
    let (timed, domain_spans) = per_domain_pass(&scanner, &config, domains, &tracer, pass.id());
    tracer.close(pass, &mut spans);
    spans.extend(domain_spans);

    let s = tracer.open("benchmark.unit_costs", Some(root.id()), None);
    let captures = units::capture_mix(&population, &config.conditions, MIX_CONNECTIONS, seed);
    let costs = units::mix_costs(&captures, &config.conditions, config.tap.is_some());
    tracer.close(s, &mut spans);

    let reg = &*traced.telemetry;
    let prof = &*traced.profiler;
    let count = |m: Metric| reg.counter(m) as f64;
    let hist_us =
        |stage: Stage, q: f64| reg.stage_histogram(stage).to_shard().quantile(q) as f64 / 1e3;
    let probes = count(Metric::HandshakesCompleted) + count(Metric::HandshakesFailed);
    let per_probe = |v: f64| ratio(v, probes);

    let class_ns = |want: fn(DomainClass) -> bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|(c, _)| want(*c))
            .map(|&(_, ns)| ns as f64)
            .collect()
    };
    let established = class_ns(|c| matches!(c, DomainClass::Established));
    let nonquic = class_ns(|c| matches!(c, DomainClass::NonQuic));
    let lab_ns: f64 = class_ns(|c| !matches!(c, DomainClass::NonQuic))
        .iter()
        .sum();
    layers.set("scanner.domain_p50_us", quantile(&established, 0.5) / 1e3);
    layers.set("scanner.domain_p99_us", quantile(&established, 0.99) / 1e3);
    layers.set("scanner.nonquic_domain_p50_ns", quantile(&nonquic, 0.5));

    let probe_busy_ns = reg.stage_histogram(Stage::Probe).to_shard().sum() as f64;
    layers.set(
        "scanner.engine_overhead_share",
        1.0 - probe_busy_ns / (it.sweep_s * 1e9 * config.threads.max(1) as f64),
    );
    layers.set(
        "scanner.mailbox_wait_s",
        prof.wall_ns(ScopeId::BatchMailbox) as f64 / 1e9,
    );
    layers.set("scanner.fold_s", it.fold_s);
    layers.set(
        "scanner.peak_record_bytes",
        match kind {
            Kind::Paper => it.record_bytes as f64,
            Kind::ToplistLossyTap => reg.gauge(GaugeId::PeakRecordBytes) as f64,
        },
    );
    layers.set(
        "scanner.records_per_domain",
        it.records as f64 / f64::from(domains),
    );
    layers.set(
        "scanner.probe_error_ratio",
        count(Metric::ProbesErrored) / f64::from(domains),
    );
    layers.set("scanner.artifact_write_s", it.artifact_write_s);
    layers.set("scanner.artifact_read_s", it.artifact_read_s);
    layers.set("scanner.artifact_bytes", it.artifact_bytes as f64);

    let encodes = prof.enters(ScopeId::PacketEncode) as f64;
    let decodes = prof.enters(ScopeId::PacketDecode) as f64;
    let sent = count(Metric::PacketsSent);
    let observed = prof.enters(ScopeId::ObserverSamples) as f64;
    let attributed = costs.encode_ns * encodes
        + costs.decode_ns * decodes
        + costs.send_drain_ns * sent
        + costs.ingest_ns * observed;
    layers.set(
        "scanner.probe_unattributed_share",
        1.0 - ratio(attributed, lab_ns),
    );

    layers.set("quic.handshake_p50_us", hist_us(Stage::Handshake, 0.5));
    layers.set("quic.handshake_p99_us", hist_us(Stage::Handshake, 0.99));
    layers.set("quic.transfer_p50_us", hist_us(Stage::Transfer, 0.5));
    layers.set("quic.transfer_p99_us", hist_us(Stage::Transfer, 0.99));
    layers.set("quic.packets_per_probe", per_probe(sent));
    layers.set(
        "quic.retransmit_ratio",
        ratio(count(Metric::FramesRetransmitted), sent),
    );
    layers.set("quic.ptos_per_probe", per_probe(count(Metric::PtosFired)));

    layers.set(
        "netsim.wheel_pushes_per_probe",
        per_probe(prof.enters(ScopeId::WheelPush) as f64),
    );
    layers.set(
        "netsim.wheel_pops_per_probe",
        per_probe(prof.enters(ScopeId::WheelPop) as f64),
    );
    layers.set(
        "netsim.drops_per_probe",
        per_probe(count(Metric::NetsimDrops)),
    );
    layers.set(
        "netsim.reorders_per_probe",
        per_probe(count(Metric::NetsimReorders)),
    );
    layers.set(
        "netsim.queue_high_water",
        reg.gauge(GaugeId::NetsimQueueHighWater) as f64,
    );
    layers.set(
        "netsim.payload_reclaim_ratio",
        ratio(count(Metric::PayloadReclaimed), sent),
    );
    layers.set("netsim.send_drain_ns", costs.send_drain_ns);

    layers.set("wire.encodes_per_probe", per_probe(encodes));
    layers.set("wire.decodes_per_probe", per_probe(decodes));
    layers.set("wire.encode_ns", costs.encode_ns);
    layers.set("wire.decode_ns", costs.decode_ns);
    layers.set("wire.peek_ns", costs.peek_ns);

    if config.tap.is_some() {
        let measurable = count(Metric::ObserverFlowsMeasurable);
        layers.set("observer.ingest_ns", costs.ingest_ns);
        layers.set("observer.short_flow_ingest_ns", costs.ingest_ns);
        layers.set(
            "observer.measurable_ratio",
            ratio(
                measurable,
                measurable + count(Metric::ObserverFlowsUnmeasurable),
            ),
        );
        layers.set(
            "observer.rejected_ratio",
            ratio(
                count(Metric::ObserverSamplesRejected),
                count(Metric::ObserverEdgesObserved),
            ),
        );
        layers.set("observer.fold_p50_us", hist_us(Stage::ObserverFold, 0.5));
    }

    layers.set(
        "core.spin_extraction_p50_us",
        hist_us(Stage::SpinExtraction, 0.5),
    );
    layers.set("core.classify_p50_us", hist_us(Stage::Classify, 0.5));
    layers.set("qlog.encode_p50_us", median(&it.qlog_encode_us));
    layers.set("qlog.trace_store_bytes", it.trace_store_bytes as f64);
    if kind == Kind::Paper {
        layers.set("analysis.build_s", it.analysis_s);
        layers.set(
            "analysis.records_per_s",
            ratio(it.records as f64, it.analysis_s),
        );
    }

    tracer.close(root, &mut spans);
    crate::write_trace(opts, &tracer, &spans)?;
    Ok(checks)
}
