//! Tests of the benchmark's own helpers: the tail-percentile rule,
//! tie-aware AUC, self-time arithmetic, and the seed-determinism of the
//! arrival schedule and the contract mix.

use perfbench::load;
use perfbench::stats::{
    median, percentile, self_time_by_name, self_times_ns, tail_percentile, verdict_auc, Span,
    Summary,
};

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(39), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let s = Summary::of(&v).expect("100 samples summarise");
    assert_eq!((s.count, s.p50, s.tail_p, s.tail), (100, 50.0, 90.0, 90.0));
    // A failure recorded as infinite latency misses every limit.
    let mut with_failure = v.clone();
    with_failure[0] = f64::INFINITY;
    assert_eq!(percentile(&with_failure, 100.0), f64::INFINITY);
}

#[test]
fn auc_counts_tied_pairs_as_half() {
    assert_eq!(verdict_auc(&[0.1, 0.2, 0.8, 0.9], &[0, 0, 1, 1]), 1.0);
    assert_eq!(verdict_auc(&[0.5; 4], &[0, 1, 0, 1]), 0.5);
    // Positive 0.4 ties negative 0.4: 1 + 0.5 + 2 of 4 pairs.
    assert_eq!(verdict_auc(&[0.1, 0.4, 0.4, 0.8], &[0, 0, 1, 1]), 0.875);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_merged_child_cover() {
    let spans = vec![
        span("request", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),
        span("a", 60, 70, Some(0)),
        span("inner", 25, 28, Some(2)),
    ];
    // The request's children cover [10, 50] and [60, 70]: 50 of 100.
    assert_eq!(self_times_ns(&spans), vec![50, 20, 27, 10, 3]);
    assert_eq!(
        self_time_by_name(&spans),
        vec![("request", 50), ("a", 30), ("b", 27), ("inner", 3)]
    );
    // Self times add up to the root's wall time plus the 10 ns in which
    // the concurrent children `a` and `b` overlap.
    assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100 + 10);
}

#[test]
fn arrivals_are_seed_deterministic_poisson() {
    let a = load::poisson_arrivals(7, 400.0, 10.0);
    assert_eq!(a, load::poisson_arrivals(7, 400.0, 10.0));
    assert_ne!(a, load::poisson_arrivals(8, 400.0, 10.0));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    let rate = a.len() as f64 / 10.0;
    assert!((rate - 400.0).abs() < 40.0, "rate {rate}");
    assert_eq!(load::picks(7, 10, 50), load::picks(7, 10, 50));
    // Rounds serve every item once per round.
    let order = load::rounds(7, 10, 3);
    assert_eq!(order, load::rounds(7, 10, 3));
    for round in order.chunks(10) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, (0..10).collect::<Vec<_>>());
    }
    assert!(load::picks(7, 10, 50).iter().all(|&i| i < 10));
}

#[test]
fn contract_mix_is_seed_deterministic_and_fits_the_server_caps() {
    let batches = load::batches(3, 8);
    assert_eq!(batches, load::batches(3, 8));
    assert_ne!(batches, load::batches(4, 8));
    for (i, b) in batches.iter().enumerate() {
        assert_eq!(b.len(), load::BATCH);
        let large = b
            .iter()
            .filter(|c| c.code.len() >= load::LARGE_BYTES.0)
            .count();
        assert_eq!(large, usize::from(i % load::LARGE_EVERY == 0));
        assert!(b.iter().all(|c| c.code.len() <= 24 * 1024));
        assert!(load::predict_batch_body(b).len() <= load::MAX_BODY);
    }
    let pool = load::pool(3, 512);
    assert_eq!(pool, load::pool(3, 512));
    assert_ne!(pool, load::pool(4, 512));
    assert!(pool.iter().all(|c| c.code.len() < load::LARGE_BYTES.0));
    // The corpus mixture: both classes, and EIP-1167 proxies (45 bytes)
    // among the benign deployments, at the corpus's 15% of benign
    // uniques give or take the clone duplication.
    let phishing = pool.iter().filter(|c| c.label == 1).count();
    assert!(
        (128..=448).contains(&phishing),
        "{phishing} phishing of 512"
    );
    let proxies = pool.iter().filter(|c| c.code.len() == 45).count();
    assert!(proxies > 0 && proxies < 128, "{proxies} proxies of 512");
    assert!(pool
        .iter()
        .filter(|c| c.code.len() == 45)
        .all(|c| c.label == 0));
}
