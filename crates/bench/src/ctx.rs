//! Shared experiment context: lazily generated datasets A and B with their
//! learned knowledge bases, scaled by a command-line factor so every
//! experiment binary can run from quick smoke (`--scale 0.1`) to full
//! paper scale (`--scale 1`, the default).

use sd_netsim::{Dataset, DatasetSpec};
use sd_telemetry::Telemetry;
use std::sync::OnceLock;
use std::time::Instant;
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::DomainKnowledge;

/// A dataset plus the knowledge learned from its training period.
pub struct Bundle {
    /// The generated dataset.
    pub data: Dataset,
    /// Knowledge learned offline from `data.train()` and the configs.
    pub knowledge: DomainKnowledge,
    /// The offline config used (carries the Table 6 defaults).
    pub offline: OfflineConfig,
}

/// Lazily-built experiment context.
pub struct Ctx {
    /// Scale factor applied to both datasets (1.0 = paper-scale presets).
    pub scale: f64,
    a: OnceLock<Bundle>,
    b: OnceLock<Bundle>,
}

impl Ctx {
    /// Context at the given scale.
    pub fn new(scale: f64) -> Self {
        Ctx {
            scale,
            a: OnceLock::new(),
            b: OnceLock::new(),
        }
    }

    /// Parse `--scale <f>` from `std::env::args` (or the `SD_SCALE` env
    /// var); defaults to 1.0.
    pub fn from_args() -> Self {
        let mut scale: Option<f64> = std::env::var("SD_SCALE").ok().and_then(|v| v.parse().ok());
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--scale" {
                scale = args.next().and_then(|v| v.parse().ok());
            }
        }
        Self::new(scale.unwrap_or(1.0))
    }

    fn build(&self, which: char) -> Bundle {
        let (spec, offline) = match which {
            'A' => (DatasetSpec::preset_a(), OfflineConfig::dataset_a()),
            _ => (DatasetSpec::preset_b(), OfflineConfig::dataset_b()),
        };
        let spec = if (self.scale - 1.0).abs() < 1e-9 {
            spec
        } else {
            spec.scaled(self.scale)
        };
        let t = Instant::now();
        let data = Dataset::generate(spec, &Telemetry::disabled());
        let tg = t.elapsed();
        let t = Instant::now();
        let knowledge = learn(&data.configs, data.train(), &offline);
        eprintln!(
            "[ctx] dataset {which}: {} routers, {} train + {} online msgs \
             (gen {tg:.1?}, learn {:.1?}; {} templates, {} rules)",
            data.topology.routers.len(),
            data.train().len(),
            data.online().len(),
            t.elapsed(),
            knowledge.templates.len(),
            knowledge.rules.len(),
        );
        Bundle {
            data,
            knowledge,
            offline,
        }
    }

    /// Dataset A (tier-1 ISP, vendor V1) with learned knowledge.
    pub fn a(&self) -> &Bundle {
        self.a.get_or_init(|| self.build('A'))
    }

    /// Dataset B (IPTV, vendor V2) with learned knowledge.
    pub fn b(&self) -> &Bundle {
        self.b.get_or_init(|| self.build('B'))
    }

    /// Both bundles as `(name, bundle)` pairs.
    pub fn both(&self) -> [(&'static str, &Bundle); 2] {
        [("A", self.a()), ("B", self.b())]
    }
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Print a "what the paper reports" note.
pub fn paper(note: &str) {
    println!("  [paper] {note}");
}
