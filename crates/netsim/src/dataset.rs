//! Dataset presets mirroring the paper's two networks.
//!
//! Dataset **A** is a vendor-V1 tier-1 ISP backbone; dataset **B** is a
//! vendor-V2 IPTV backbone with a PIM multicast overlay. The paper trains
//! on three months (Sep–Nov 2009) and runs online on Dec 1–14 2009; the
//! presets reproduce those windows at laptop scale (12 training weeks +
//! 2 online weeks). `scaled()` shrinks everything proportionally for tests.

use crate::config::render_all;
use crate::events::GtEvent;
use crate::grammar::Grammar;
use crate::topology::{TopoSpec, Topology};
use crate::workload::{run, KindMix, WorkloadSpec};
use sd_model::{RawMessage, Timestamp, Vendor, DAY};
use sd_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Full description of a synthetic dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name ("A", "B", …).
    pub name: String,
    /// Router vendor.
    pub vendor: Vendor,
    /// Whether to overlay the IPTV multicast tree.
    pub iptv: bool,
    /// Number of routers.
    pub n_routers: usize,
    /// Training period length in days (paper: ~3 months = 12 weeks).
    pub train_days: u32,
    /// Online period length in days (paper: 2 weeks).
    pub online_days: u32,
    /// Mean ground-truth events per day.
    pub events_per_day: f64,
    /// Mean background-noise messages per day.
    pub noise_per_day: f64,
    /// Master seed.
    pub seed: u64,
    /// First instant of the training period.
    pub start: Timestamp,
    /// Event kind mix.
    pub mix: Vec<KindMix>,
    /// Week after which scheduled-only correlations stop.
    pub decorrelation_week: u32,
    /// Periodic timer-noise series per router.
    pub timers_per_router: usize,
    /// Cascade-size multiplier (see `WorkloadSpec::intensity`).
    pub intensity: f64,
}

impl DatasetSpec {
    /// Dataset A: tier-1 ISP backbone, vendor V1.
    pub fn preset_a() -> Self {
        DatasetSpec {
            name: "A".to_owned(),
            vendor: Vendor::V1,
            iptv: false,
            n_routers: 44,
            train_days: 84,
            online_days: 14,
            events_per_day: 45.0,
            noise_per_day: 30.0,
            seed: 0xA,
            start: Timestamp::from_ymd_hms(2009, 9, 8, 0, 0, 0),
            mix: WorkloadSpec::mix_v1(),
            decorrelation_week: 6,
            timers_per_router: 4,
            intensity: 1.0,
        }
    }

    /// Dataset B: IPTV backbone, vendor V2.
    pub fn preset_b() -> Self {
        DatasetSpec {
            name: "B".to_owned(),
            vendor: Vendor::V2,
            iptv: true,
            n_routers: 36,
            train_days: 84,
            online_days: 14,
            events_per_day: 13.0,
            noise_per_day: 20.0,
            seed: 0xB,
            start: Timestamp::from_ymd_hms(2009, 9, 8, 0, 0, 0),
            mix: WorkloadSpec::mix_v2(),
            decorrelation_week: 7,
            timers_per_router: 3,
            intensity: 2.0,
        }
    }

    /// Shrink days and rates by `f` (for fast tests); keeps at least one
    /// training week and one online day.
    #[must_use]
    pub fn scaled(mut self, f: f64) -> Self {
        self.train_days = ((f64::from(self.train_days) * f) as u32).max(7);
        self.online_days = ((f64::from(self.online_days) * f) as u32).max(1);
        self.events_per_day = (self.events_per_day * f).max(3.0);
        self.noise_per_day = (self.noise_per_day * f).max(5.0);
        self.n_routers = ((self.n_routers as f64 * f) as usize).max(8);
        self
    }

    /// Total simulated days.
    pub fn total_days(&self) -> u32 {
        self.train_days + self.online_days
    }

    /// First instant of the online period.
    pub fn online_start(&self) -> Timestamp {
        self.start.plus(i64::from(self.train_days) * DAY)
    }
}

/// A fully generated dataset: network, configs, months of messages, and
/// the ground truth behind them.
pub struct Dataset {
    /// The generating spec.
    pub spec: DatasetSpec,
    /// The network.
    pub topology: Topology,
    /// The vendor grammar (ground-truth templates).
    pub grammar: Grammar,
    /// One rendered config per router (index-aligned with `topology.routers`).
    pub configs: Vec<String>,
    /// All messages, time-sorted, spanning training + online periods.
    pub messages: Vec<RawMessage>,
    /// Ground-truth events.
    pub gt_events: Vec<GtEvent>,
    /// Index of the first online-period message in `messages`.
    online_split: usize,
}

impl Dataset {
    /// Generate the dataset (deterministic in the spec's seed), with the
    /// generation stages timed in `tel` (`netsim.topology` /
    /// `netsim.configs` / `netsim.workload` spans, `netsim.messages`
    /// counter; pass [`Telemetry::disabled`] to run without).
    pub fn generate(spec: DatasetSpec, tel: &Telemetry) -> Dataset {
        let topology = {
            let _t = tel.time("netsim.topology");
            Topology::generate(&TopoSpec {
                n_routers: spec.n_routers,
                vendor: spec.vendor,
                iptv: spec.iptv,
                seed: spec.seed,
            })
        };
        let grammar = Grammar::for_vendor(spec.vendor);
        let configs = {
            let _t = tel.time("netsim.configs");
            render_all(&topology)
        };
        let wspec = WorkloadSpec {
            start: spec.start,
            days: spec.total_days(),
            seed: spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            events_per_day: spec.events_per_day,
            noise_per_day: spec.noise_per_day,
            mix: spec.mix.clone(),
            decorrelation_week: spec.decorrelation_week,
            timers_per_router: spec.timers_per_router,
            intensity: spec.intensity,
        };
        let w = {
            let _t = tel.time("netsim.workload");
            run(&topology, &grammar, &wspec)
        };
        tel.counter("netsim.messages").add(w.messages.len() as u64);
        let online_start = spec.online_start();
        let online_split = w.messages.partition_point(|m| m.ts < online_start);
        Dataset {
            spec,
            topology,
            grammar,
            configs,
            messages: w.messages,
            gt_events: w.events,
            online_split,
        }
    }

    /// Training-period messages (time-sorted).
    pub fn train(&self) -> &[RawMessage] {
        &self.messages[..self.online_split]
    }

    /// Online-period messages (time-sorted; includes cascade tails that
    /// spill past the nominal end).
    pub fn online(&self) -> &[RawMessage] {
        &self.messages[self.online_split..]
    }

    /// Training messages of week `w` (0-based), for weekly rule updates.
    pub fn train_week(&self, w: u32) -> &[RawMessage] {
        let start = self.spec.start.plus(i64::from(w) * 7 * DAY);
        let end = start.plus(7 * DAY);
        let lo = self.messages.partition_point(|m| m.ts < start);
        let hi = self.messages.partition_point(|m| m.ts < end);
        &self.messages[lo.min(self.online_split)..hi.min(self.online_split)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_a_generates_consistently() {
        let spec = DatasetSpec::preset_a().scaled(0.1);
        let d = Dataset::generate(spec, &Telemetry::disabled());
        assert!(!d.messages.is_empty());
        assert_eq!(d.configs.len(), d.topology.routers.len());
        assert_eq!(d.train().len() + d.online().len(), d.messages.len());
        // Split is at the online boundary.
        let boundary = d.spec.online_start();
        assert!(d.train().iter().all(|m| m.ts < boundary));
        assert!(d.online().iter().all(|m| m.ts >= boundary));
    }

    #[test]
    fn weekly_slices_partition_training() {
        let spec = DatasetSpec::preset_a().scaled(0.12);
        let d = Dataset::generate(spec, &Telemetry::disabled());
        let weeks = d.spec.train_days.div_ceil(7);
        let mut total = 0usize;
        for w in 0..weeks {
            total += d.train_week(w).len();
        }
        assert_eq!(total, d.train().len());
    }

    #[test]
    fn preset_b_has_pim_events() {
        let spec = DatasetSpec::preset_b().scaled(0.15);
        let d = Dataset::generate(spec, &Telemetry::disabled());
        assert!(d
            .gt_events
            .iter()
            .any(|e| e.kind == crate::events::EventKind::PimNeighborLoss));
        assert!(!d.topology.pim.is_empty());
    }
}
