//! CI gate for pipeline conformance (see `.github/workflows/ci.yml`):
//!
//! For every golden seed it generates the netsim corpus, runs the
//! differential driver (`sd_conformance::verify_dataset`) — naive
//! paper-faithful reference oracles vs. the optimized pipeline — then
//! streams the clean / bounded / hostile faulted feeds through the
//! fault-tolerant ingest layer and compares the resulting partition /
//! template / rule digests against the checked-in golden corpus.
//!
//! Structural invariant checked on every run, independent of the golden
//! file: the `bounded` variant's partition must equal `clean`'s (its
//! faults are repairable by construction at `--skew 30`), and `hostile`'s
//! must not (it drops messages).
//!
//! * `--golden PATH` — golden file (default: the checked-in one);
//! * `--bless` — regenerate the golden file instead of comparing;
//! * `--scale F`, `--seeds a,b,c`, `--skew S` — corpus
//!   shape overrides (the defaults are what the golden file pins);
//! * `--recovery` — run the crash/corrupt/recover/replay conformance
//!   matrix instead ([`sd_conformance::verify_recovery`]): for each seed,
//!   every storage-fault kind must recover to a verifiable checkpoint
//!   generation losing at most one checkpoint interval, and the recovered
//!   replay must digest identically to the uninterrupted run.
//!
//! Exits non-zero with full provenance on the first divergence.

use sd_conformance::{compute_entry, default_golden_path, GoldenEntry};
use sd_conformance::{GoldenFile, GOLDEN_VERSION};
use sd_netsim::{inject, FaultSpec};
use sd_netsim::{Corpus, GOLDEN_SCALE, GOLDEN_SEEDS};
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::GroupingConfig;

fn fail(msg: &str) -> ! {
    eprintln!("validate_conformance: FAIL: {msg}");
    std::process::exit(1);
}

fn compare(seed: u64, variant: &str, pinned: &GoldenEntry, got: &GoldenEntry) {
    let fields: [(&str, String, String); 8] = [
        (
            "n_lines",
            pinned.n_lines.to_string(),
            got.n_lines.to_string(),
        ),
        (
            "n_events",
            pinned.n_events.to_string(),
            got.n_events.to_string(),
        ),
        ("n_late", pinned.n_late.to_string(), got.n_late.to_string()),
        (
            "n_duplicate",
            pinned.n_duplicate.to_string(),
            got.n_duplicate.to_string(),
        ),
        (
            "n_malformed",
            pinned.n_malformed.to_string(),
            got.n_malformed.to_string(),
        ),
        ("partition", pinned.partition.clone(), got.partition.clone()),
        ("templates", pinned.templates.clone(), got.templates.clone()),
        ("rules", pinned.rules.clone(), got.rules.clone()),
    ];
    for (name, want, have) in fields {
        if want != have {
            fail(&format!(
                "seed {seed} variant {variant}: {name} diverged from golden: \
                 pinned {want}, got {have} \
                 (re-pin intentional changes with --bless)"
            ));
        }
    }
}

/// `--recovery` mode: per seed, stream the bounded-faulted feed with
/// rotated checkpoints, damage the newest generation with every storage
/// fault, and demand recovery within one interval plus a byte-identical
/// replay (see [`sd_conformance::verify_recovery`]).
fn run_recovery(seeds: &[u64], scale: f64, skew: i64) {
    let ocfg = OfflineConfig::dataset_a();
    for &seed in seeds {
        let corpus = Corpus::generate(seed, scale);
        let d = &corpus.dataset;
        let k = learn(&d.configs, d.train(), &ocfg);
        let (lines, _) = inject(d.online(), &FaultSpec::bounded(seed));
        let every = (lines.len() / 5).max(1);
        let dir = std::env::temp_dir().join(format!("sd-recovery-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        match sd_conformance::verify_recovery(&k, &lines, skew, every, 2, seed, &dir) {
            Ok(outcomes) => {
                println!(
                    "ok: seed {seed} recovery conformant — {} lines, interval {every}",
                    lines.len()
                );
                for o in &outcomes {
                    println!("   seed {seed} {o}");
                }
            }
            Err(e) => fail(&format!("seed {seed}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "validate_conformance: all {} seeds recover from every storage fault",
        seeds.len()
    );
}

fn main() {
    let mut golden_path = default_golden_path();
    let mut bless = false;
    let mut recovery = false;
    let mut scale = GOLDEN_SCALE;
    let mut seeds: Vec<u64> = GOLDEN_SEEDS.to_vec();
    let mut skew = 30i64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--golden" => golden_path = args.next().unwrap_or_else(|| fail("missing --golden")),
            "--bless" => bless = true,
            "--recovery" => recovery = true,
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("invalid --scale"))
            }
            "--seeds" => {
                let list = args.next().unwrap_or_else(|| fail("missing --seeds"));
                seeds = list
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| fail("invalid --seeds")))
                    .collect();
            }
            "--skew" => {
                skew = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("invalid --skew"))
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if recovery {
        run_recovery(&seeds, scale, skew);
        return;
    }

    let pinned = if bless {
        None
    } else {
        let text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            fail(&format!(
                "reading {golden_path}: {e} (generate it with --bless)"
            ))
        });
        let f = GoldenFile::from_json(&text).unwrap_or_else(|e| fail(&e));
        if (f.scale - scale).abs() > 1e-12 || f.max_skew_secs != skew {
            fail(&format!(
                "golden file was pinned at scale {} skew {}, but this run uses \
                 scale {scale} skew {skew}",
                f.scale, f.max_skew_secs
            ));
        }
        Some(f)
    };

    let ocfg = OfflineConfig::dataset_a();
    let gcfg = GroupingConfig::default();
    let mut entries = Vec::new();

    for &seed in &seeds {
        let corpus = Corpus::generate(seed, scale);
        let d = &corpus.dataset;

        // Differential oracles: reference vs optimized.
        match sd_conformance::verify_dataset(d, &ocfg, &gcfg) {
            Ok(s) => println!(
                "ok: seed {seed} conformant — {} train / {} online msgs, \
                 {} templates, {} rules, {} edges, {} groups",
                s.n_train, s.n_online, s.n_templates, s.n_rules, s.n_edges, s.n_groups
            ),
            Err(div) => fail(&format!("seed {seed}: {div}")),
        }

        // Golden digests per fault variant.
        let k = learn(&d.configs, d.train(), &ocfg);
        let mut by_variant = Vec::new();
        for variant in sd_conformance::VARIANTS {
            let entry = compute_entry(&k, d.online(), seed, variant, skew);
            println!(
                "   seed {seed} {variant}: {} lines -> {} events, partition {}",
                entry.n_lines, entry.n_events, entry.partition
            );
            if let Some(f) = &pinned {
                let want = f.find(seed, variant).unwrap_or_else(|| {
                    fail(&format!(
                        "golden file has no entry for seed {seed} variant {variant}"
                    ))
                });
                compare(seed, variant, want, &entry);
            }
            by_variant.push(entry);
        }

        // Structural invariants, golden file or not.
        let (clean, bounded, hostile) = (&by_variant[0], &by_variant[1], &by_variant[2]);
        if bounded.partition != clean.partition {
            fail(&format!(
                "seed {seed}: bounded faults were not repaired — partition {} \
                 differs from clean {}",
                bounded.partition, clean.partition
            ));
        }
        if bounded.n_duplicate == 0 {
            fail(&format!(
                "seed {seed}: bounded feed absorbed no duplicates — fault \
                 injection is not exercising the reorder buffer"
            ));
        }
        if hostile.partition == clean.partition {
            fail(&format!(
                "seed {seed}: hostile partition equals clean — drops and clock \
                 skew had no effect, fault injection is broken"
            ));
        }
        entries.extend(by_variant);
    }

    if bless {
        let f = GoldenFile {
            version: GOLDEN_VERSION,
            scale,
            max_skew_secs: skew,
            entries,
        };
        if let Some(dir) = std::path::Path::new(&golden_path).parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(&format!("creating {}: {e}", dir.display())));
        }
        std::fs::write(&golden_path, f.to_json() + "\n")
            .unwrap_or_else(|e| fail(&format!("writing {golden_path}: {e}")));
        println!(
            "blessed: wrote {} entries to {golden_path}",
            f.entries.len()
        );
    } else {
        println!(
            "validate_conformance: all {} seeds conformant and matching golden",
            seeds.len()
        );
    }
}
