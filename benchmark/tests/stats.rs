//! The reported statistics on hand-computed inputs.

use ninja_benchmark::stats::{
    better_quartile, fastest, geomean, median, percentile, window_percentiles,
};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(|i| 10.0 * i as f64).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.99), 100.0);
    assert_eq!(percentile(&v, 0.90), 90.0);
    assert_eq!(percentile(&v, 0.91), 100.0);
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn windows_give_their_percentiles_in_ascending_order() {
    // p50 per window (nearest rank of three): 200, 2, 20.
    let windows = vec![
        vec![300.0, 200.0, 100.0],
        vec![3.0, 1.0, 2.0],
        vec![10.0, 30.0, 20.0],
        Vec::new(),
    ];
    assert_eq!(window_percentiles(&windows, 0.50), [2.0, 20.0, 200.0]);
    // p99 per window is each window's maximum; the empty window is skipped.
    assert_eq!(window_percentiles(&windows, 0.99), [3.0, 30.0, 300.0]);
    assert!(window_percentiles(&[Vec::new()], 0.5).is_empty());
}

#[test]
fn the_better_quartile_ignores_both_tails() {
    let latencies = [90.0, 300.0, 310.0, 320.0, 330.0, 340.0, 900.0, 950.0];
    // Rank ceil(0.25 * 8) = 2: past the one lucky window, short of the slow ones.
    assert_eq!(better_quartile(&latencies, true), 300.0);
    let rates = [50.0, 60.0, 100.0, 101.0, 102.0, 103.0, 104.0, 200.0];
    // Rank ceil(0.75 * 8) = 6.
    assert_eq!(better_quartile(&rates, false), 103.0);
    assert!(better_quartile(&[], true).is_nan());
}

#[test]
fn the_fastest_observation_wins() {
    assert_eq!(fastest(&[0.012, 0.010, 0.019]), 0.010);
    assert_eq!(fastest(&[0.5]), 0.5);
    assert!(fastest(&[]).is_nan());
}

#[test]
fn geomean_of_ratios() {
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    // A failed cell (NaN or zero time) poisons the metric instead of panicking.
    assert!(geomean(&[2.0, f64::NAN]).is_nan());
    assert!(geomean(&[2.0, 0.0]).is_nan());
    assert!(geomean(&[]).is_nan());
}
