//! Offline α/β calibration (§4.1.3, Figures 10–11).
//!
//! The offline learner sweeps α (at β = 2) and then β (at the chosen α)
//! over the historical per-series timestamp collections, measuring the
//! *temporal-grouping compression ratio* (#groups / #messages); the
//! parameters that stabilize/minimize the ratio become the Table 6
//! defaults used online.

use crate::ewma::{count_groups, TemporalConfig};
use sd_model::{par_map, Parallelism, Timestamp};

/// A collection of per-key timestamp series (one per
/// `(router, template, location)` in the driver).
pub type SeriesSet = Vec<Vec<Timestamp>>;

/// Temporal compression ratio of grouping every series with `cfg`.
pub fn compression_ratio(series: &SeriesSet, cfg: &TemporalConfig) -> f64 {
    let mut groups = 0usize;
    let mut msgs = 0usize;
    for s in series {
        groups += count_groups(s, cfg);
        msgs += s.len();
    }
    if msgs == 0 {
        return 0.0;
    }
    groups as f64 / msgs as f64
}

/// Compression ratio at each `(alpha, beta)` of `grid`, evaluated on
/// `par.threads` scoped threads. Every point is an independent pass over
/// `series`, so results are identical for every thread count.
fn sweep(series: &SeriesSet, grid: Vec<(f64, f64)>, par: Parallelism) -> Vec<f64> {
    par_map(par, &grid, |_, &(alpha, beta)| {
        let cfg = TemporalConfig {
            alpha,
            beta,
            ..TemporalConfig::default()
        };
        compression_ratio(series, &cfg)
    })
}

/// Sweep α at fixed β, returning `(alpha, ratio)` pairs (Figure 10).
pub fn sweep_alpha(
    series: &SeriesSet,
    alphas: &[f64],
    beta: f64,
    par: Parallelism,
) -> Vec<(f64, f64)> {
    let grid = alphas.iter().map(|&a| (a, beta)).collect();
    alphas
        .iter()
        .copied()
        .zip(sweep(series, grid, par))
        .collect()
}

/// Sweep β at fixed α, returning `(beta, ratio)` pairs (Figure 11).
pub fn sweep_beta(
    series: &SeriesSet,
    betas: &[f64],
    alpha: f64,
    par: Parallelism,
) -> Vec<(f64, f64)> {
    let grid = betas.iter().map(|&b| (alpha, b)).collect();
    betas
        .iter()
        .copied()
        .zip(sweep(series, grid, par))
        .collect()
}

/// Full calibration: pick the α minimizing the ratio at β = 2, then the
/// smallest β (from `betas`) whose further increase improves the ratio by
/// less than `knee` relatively — the paper's "improvement of compression
/// diminishes" rule that selected β = 5. Both sweeps run their grid
/// points on `par.threads` threads; the β sweep follows the α sweep (its
/// grid depends on the chosen α), and the picked parameters are identical
/// for every thread count.
pub fn calibrate(
    series: &SeriesSet,
    alphas: &[f64],
    betas: &[f64],
    knee: f64,
    par: Parallelism,
) -> TemporalConfig {
    let by_alpha = sweep_alpha(series, alphas, 2.0, par);
    let alpha = by_alpha
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(a, _)| a)
        .unwrap_or(0.05);
    let by_beta = sweep_beta(series, betas, alpha, par);
    let mut beta = by_beta.last().map(|(b, _)| *b).unwrap_or(5.0);
    for w in by_beta.windows(2) {
        let (b0, r0) = w[0];
        let (_, r1) = w[1];
        if r0 <= 0.0 || (r0 - r1) / r0 < knee {
            beta = b0;
            break;
        }
    }
    TemporalConfig {
        alpha,
        beta,
        ..TemporalConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEQ: Parallelism = Parallelism { threads: 1 };

    fn t(secs: i64) -> Timestamp {
        Timestamp(secs)
    }

    /// Series with slow drift + occasional jitter spikes: small alpha must
    /// beat large alpha (Figure 10 shape).
    fn jittery_series(n_series: usize) -> SeriesSet {
        let mut out = Vec::new();
        for s in 0..n_series {
            let mut ts = Vec::new();
            let mut cur = 0i64;
            let mut gap = 30.0 + s as f64;
            for i in 0..300 {
                let g = if i % 13 == 0 { gap * 0.1 } else { gap };
                cur += g as i64;
                ts.push(t(cur));
                gap *= if i % 2 == 0 { 1.03 } else { 0.98 };
            }
            out.push(ts);
        }
        out
    }

    #[test]
    fn small_alpha_beats_large_alpha_on_jitter() {
        let series = jittery_series(5);
        let swept = sweep_alpha(&series, &[0.05, 0.6], 2.0, SEQ);
        assert!(
            swept[0].1 < swept[1].1,
            "alpha 0.05 ratio {} should beat alpha 0.6 ratio {}",
            swept[0].1,
            swept[1].1
        );
    }

    #[test]
    fn ratio_monotone_in_beta() {
        let series = jittery_series(4);
        let swept = sweep_beta(&series, &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 0.05, SEQ);
        for w in swept.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-12,
                "beta sweep not monotone: {swept:?}"
            );
        }
    }

    #[test]
    fn calibrate_returns_sensible_parameters() {
        let series = jittery_series(6);
        let cfg = calibrate(
            &series,
            &[0.0, 0.05, 0.1, 0.2, 0.4, 0.6],
            &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            0.02,
            SEQ,
        );
        assert!(cfg.alpha <= 0.2, "alpha {}", cfg.alpha);
        assert!((2.0..=7.0).contains(&cfg.beta), "beta {}", cfg.beta);
    }

    #[test]
    fn empty_series_set_is_zero_ratio() {
        assert_eq!(
            compression_ratio(&Vec::new(), &TemporalConfig::default()),
            0.0
        );
        let cfg = calibrate(&Vec::new(), &[0.05], &[2.0, 5.0], 0.02, SEQ);
        assert_eq!(cfg.alpha, 0.05);
    }

    #[test]
    fn perfect_periodic_series_compress_fully() {
        let series: SeriesSet = (0..3)
            .map(|_| (0..100).map(|i| t(i * 120)).collect())
            .collect();
        let r = compression_ratio(&series, &TemporalConfig::default());
        assert!((r - 3.0 / 300.0).abs() < 1e-9, "ratio {r}");
    }
}
