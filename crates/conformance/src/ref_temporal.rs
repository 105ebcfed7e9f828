//! Reference EWMA temporal clustering, written straight from §4.1.3's
//! equations with no shared state or library reuse.
//!
//! The predicted interarrival after observing gap `S(t−1)` is
//!
//! ```text
//! Ŝt = α·S(t−1) + (1−α)·Ŝ(t−1)
//! ```
//!
//! and arrival `t` *continues* its cluster iff `St ≤ β·Ŝt`, subject to the
//! paper's clamps: a gap at or under `Smin` (the data's 1-second time
//! granularity) always groups, a gap above `Smax` (3 h) always splits, and
//! the prediction is floored at `Smin` inside the comparison so a
//! burst-collapsed `Ŝ` cannot make every subsequent arrival split.

use sd_model::Timestamp;
use sd_temporal::TemporalConfig;

/// Cluster a time-sorted series: the 0-based group label per element.
///
/// Semantics pinned here (and asserted against the optimized tracker by
/// the differential suite):
///
/// * the first arrival opens group 0;
/// * a gap `≤ s_min` groups unconditionally;
/// * a gap `> s_max` splits unconditionally;
/// * with no prediction yet (the second arrival), a gap within the clamps
///   groups and is adopted as the first estimate `Ŝ`;
/// * otherwise the split test is **strict**: `St > β·max(Ŝ, s_min)`, so
///   exact equality `St = β·Ŝt` stays in the group;
/// * the EWMA is maintained across group boundaries (the paper computes
///   it over the full interarrival sequence);
/// * negative gaps (out-of-order input) clamp to 0 and therefore group.
pub fn ref_group_series(ts: &[Timestamp], cfg: &TemporalConfig) -> Vec<usize> {
    let mut labels = Vec::with_capacity(ts.len());
    let mut group = 0usize;
    let mut prev: Option<Timestamp> = None;
    let mut pred: Option<f64> = None;
    for &t in ts {
        if let Some(p) = prev {
            let gap = t.seconds_since(p).max(0);
            let split = if gap <= cfg.s_min {
                false
            } else if gap > cfg.s_max {
                true
            } else {
                match pred {
                    None => false,
                    Some(s_hat) => (gap as f64) > cfg.beta * s_hat.max(cfg.s_min as f64),
                }
            };
            pred = Some(match pred {
                None => gap as f64,
                Some(s_hat) => cfg.alpha * gap as f64 + (1.0 - cfg.alpha) * s_hat,
            });
            if split {
                group += 1;
            }
        }
        labels.push(group);
        prev = Some(t);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(alpha: f64, beta: f64) -> TemporalConfig {
        TemporalConfig {
            alpha,
            beta,
            s_min: 1,
            s_max: 3 * 3600,
        }
    }

    #[test]
    fn periodic_series_is_one_group() {
        let ts: Vec<Timestamp> = (0..40).map(|i| Timestamp(i * 300)).collect();
        assert_eq!(ref_group_series(&ts, &cfg(0.05, 2.0)).last(), Some(&0));
    }

    #[test]
    fn two_hour_gap_splits() {
        let ts = vec![
            Timestamp(0),
            Timestamp(5),
            Timestamp(10),
            Timestamp(10 + 2 * 3600),
        ];
        assert_eq!(ref_group_series(&ts, &cfg(0.05, 5.0)).last(), Some(&1));
    }
}
