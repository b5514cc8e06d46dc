//! Seed handling: `--seed` drives every generated input. The same seed
//! gives the same stream and the same simulated digest — untraced, traced,
//! and across runs — and a different seed gives a different stream.

use perfbench::stats::{fail_ratio, Outcome};
use perfbench::workloads::{cycle, run_digest, serve, train, Budget, Kind, ALL};

/// A short prefix of each workload's stream, rendered for comparison.
fn stream(kind: Kind, seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match kind {
            Kind::ServeHot => format!("{:?}", serve::Mode::Hot.request(seed, i)),
            Kind::ServeCold => format!("{:?}", serve::Mode::Cold.request(seed, i)),
            Kind::TrainOverlap => format!("{:?}", train::op(seed, i)),
            Kind::CycleFig9 => format!("{:?}", cycle::op(seed, i)),
        })
        .collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for kind in ALL {
        let n = 40;
        assert_eq!(stream(kind, 7, n), stream(kind, 7, n), "{}", kind.name());
        assert_ne!(stream(kind, 7, n), stream(kind, 8, n), "{}", kind.name());
    }
}

#[test]
fn rounds_cover_the_whole_menu() {
    // every round of a round-based workload is a permutation of its menu,
    // so runs of whole rounds do the same work whatever the seed
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let kinds = |seed| -> Vec<String> {
        (0..cycle::ROUND)
            .map(|i| {
                let op = cycle::op(seed, i);
                format!("{} {}", op.label(), op.class)
            })
            .collect()
    };
    assert_eq!(sorted(kinds(1)), sorted(kinds(2)));
    let models = |seed| -> Vec<String> {
        (train::ROUND..2 * train::ROUND)
            .map(|i| {
                let op = train::op(seed, i);
                format!(
                    "{} {} {:?}",
                    op.model,
                    op.algorithm,
                    op.bucket.map(|b| b > 10 << 20)
                )
            })
            .collect()
    };
    assert_eq!(sorted(models(3)), sorted(models(4)));
}

/// Ops per workload in the digest tests: enough to touch every kind of
/// request, small enough for a debug build of the benchmark.
fn ops(kind: Kind) -> usize {
    match kind {
        Kind::ServeHot => 40,
        Kind::ServeCold => serve::Mode::Cold.round(),
        Kind::TrainOverlap => 6,
        Kind::CycleFig9 => 4,
    }
}

#[test]
fn same_seed_same_digest_untraced_and_traced() {
    for kind in ALL {
        let budget = Budget::Ops(ops(kind));
        let a = kind.run(11, budget);
        let b = kind.run(11, budget);
        let traced = kind.run_traced(11, budget);
        let outcomes: Vec<Outcome> = a.ops.iter().map(|o| o.outcome.clone()).collect();
        assert_eq!(fail_ratio(&outcomes), 0.0, "{}: {outcomes:?}", kind.name());
        assert_eq!(fail_ratio(&traced.outcomes()), 0.0, "{}", kind.name());
        let n = ops(kind);
        let digest = run_digest(&a.ops, n);
        assert_eq!(digest, run_digest(&b.ops, n), "{}: rerun", kind.name());
        assert_eq!(
            digest,
            run_digest(&traced.reference, n),
            "{}: traced run's reference pass",
            kind.name()
        );
        for pass in &traced.passes {
            assert_eq!(digest, run_digest(pass, n), "{}: traced pass", kind.name());
        }
        assert_eq!(a.headlines, b.headlines, "{}", kind.name());
        let other = kind.run(12, budget);
        assert_ne!(
            digest,
            run_digest(&other.ops, n),
            "{}: other seed",
            kind.name()
        );
    }
}
