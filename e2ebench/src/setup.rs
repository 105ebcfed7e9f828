//! Workload inputs: a synthetic feed file and a learned knowledge file,
//! made from the seed alone (`sd-netsim` generate → inject → learn → save).
//!
//! The network, and the history the knowledge is learned from, are
//! dataset A's at every seed; the seed draws the feed's traffic. A new
//! network or history per seed changes the knowledge base, and with it
//! the cost of loading knowledge and snapshots, enough that seed-to-seed
//! spread hides the changes the benchmark exists to show.

use sd_model::RawMessage;
use sd_netsim::config::render_all;
use sd_netsim::workload::run;
use sd_netsim::{inject, DatasetSpec, FaultSpec, Grammar, TopoSpec, Topology, WorkloadSpec};
use sd_telemetry::Telemetry;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;
use syslogdigest::offline::{learn_instrumented, OfflineConfig};

/// Dataset A at this scale yields about 290k messages for any seed ...
pub const SCALE: f64 = 0.35;
/// ... of which every workload keeps the first `FEED_MSGS`: the ROADMAP's
/// 250k floor, equal at every seed so throughput compares across seeds.
pub const FEED_MSGS: usize = 250_000;

/// Everything a measured pass reads, plus the clean reference messages.
pub struct Inputs {
    /// The workload's feed file (wire format, delivery order).
    pub feed: PathBuf,
    /// The learned knowledge base (checksummed artifact).
    pub knowledge: PathBuf,
    /// The seed's clean feed as generated (time-sorted).
    pub clean: Vec<RawMessage>,
    /// Router configuration files and history the knowledge was learned
    /// from.
    pub configs: Vec<String>,
    pub history: Vec<RawMessage>,
    pub feed_lines: usize,
    pub feed_bytes: u64,
    pub knowledge_bytes: u64,
}

/// Wall times of the set-up steps, in seconds.
#[derive(Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub inject_s: f64,
}

/// Hash of the feed and knowledge file bytes: equal seeds must give
/// equal hashes.
pub fn fingerprint(inputs: &Inputs) -> Result<u64, String> {
    let mut h = DefaultHasher::new();
    for path in [&inputs.feed, &inputs.knowledge] {
        std::fs::read(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?
            .hash(&mut h);
    }
    Ok(h.finish())
}

/// Write `msgs` through `spec` as a feed file; returns (lines, bytes).
pub fn write_feed(
    path: &Path,
    msgs: &[RawMessage],
    spec: &FaultSpec,
) -> Result<(usize, u64), String> {
    let (lines, _) = inject(msgs, spec);
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((lines.len(), text.len() as u64))
}

/// Dataset A's network: its topology and router configs.
fn network() -> (DatasetSpec, Topology, Vec<String>) {
    let spec = DatasetSpec::preset_a().scaled(SCALE);
    let topology = Topology::generate(&TopoSpec {
        n_routers: spec.n_routers,
        vendor: spec.vendor,
        iptv: spec.iptv,
        seed: spec.seed,
    });
    let configs = render_all(&topology);
    (spec, topology, configs)
}

/// The first [`FEED_MSGS`] messages (time-sorted) of the traffic that
/// `seed` draws on the network.
fn traffic(spec: &DatasetSpec, topology: &Topology, seed: u64) -> Result<Vec<RawMessage>, String> {
    let w = run(
        topology,
        &Grammar::for_vendor(spec.vendor),
        &WorkloadSpec {
            start: spec.start,
            days: spec.total_days(),
            seed,
            events_per_day: spec.events_per_day,
            noise_per_day: spec.noise_per_day,
            mix: spec.mix.clone(),
            decorrelation_week: spec.decorrelation_week,
            timers_per_router: spec.timers_per_router,
            intensity: spec.intensity,
        },
    );
    let mut msgs = w.messages;
    if msgs.len() < FEED_MSGS {
        return Err(format!(
            "seed {seed} yields {} messages, fewer than {FEED_MSGS}",
            msgs.len()
        ));
    }
    msgs.truncate(FEED_MSGS);
    Ok(msgs)
}

/// The seed's clean feed, as [`build`] generates it.
pub fn clean_feed(seed: u64) -> Result<Vec<RawMessage>, String> {
    let (spec, topology, _) = network();
    traffic(&spec, &topology, seed)
}

/// Generate the network, its history and the seed's traffic; write the
/// workload's feed (faulted with `FaultSpec::bounded` when `faulted`);
/// learn knowledge from the history and save it. Spans and counters go to `tel`.
pub fn build(
    dir: &Path,
    seed: u64,
    faulted: bool,
    tel: &Telemetry,
) -> Result<(Inputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let (spec, topology, configs) = network();
    let history = traffic(&spec, &topology, spec.seed)?;
    let clean = traffic(&spec, &topology, seed)?;
    times.generate_s = t.elapsed().as_secs_f64();

    let fault = if faulted {
        FaultSpec::bounded(seed)
    } else {
        FaultSpec::clean(seed)
    };
    let feed = dir.join(if faulted { "faulted.log" } else { "syslog.log" });
    let t = Instant::now();
    let (feed_lines, feed_bytes) = write_feed(&feed, &clean, &fault)?;
    times.inject_s = t.elapsed().as_secs_f64();

    let k = learn_instrumented(&configs, &history, &OfflineConfig::dataset_a(), tel);
    let knowledge = dir.join("knowledge.json");
    k.save(&knowledge).map_err(|e| e.to_string())?;

    let knowledge_bytes = std::fs::metadata(&knowledge)
        .map_err(|e| e.to_string())?
        .len();
    Ok((
        Inputs {
            feed,
            knowledge,
            clean,
            configs,
            history,
            feed_lines,
            feed_bytes,
            knowledge_bytes,
        },
        times,
    ))
}
