//! The job stream is a pure function of the seed, and the percentile
//! helper refuses tails it cannot support.

use epoc_perfbench::{percentile, JobKind, JobStream, NOVEL_PERIOD};

#[test]
fn same_seed_gives_byte_identical_job_stream() {
    for novel in [false, true] {
        let a = JobStream::request_bytes(7, novel, 64);
        let b = JobStream::request_bytes(7, novel, 64);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 64);
    }
}

#[test]
fn different_seed_gives_different_job_stream() {
    for novel in [false, true] {
        assert_ne!(
            JobStream::request_bytes(7, novel, 64),
            JobStream::request_bytes(8, novel, 64)
        );
    }
}

#[test]
fn mix_stream_has_exactly_one_novel_job_per_period() {
    let mut stream = JobStream::new(3, true);
    for _ in 0..20 {
        let novel = (0..NOVEL_PERIOD)
            .filter(|_| matches!(stream.next_job(), JobKind::Novel { .. }))
            .count();
        assert_eq!(novel, 1);
    }
    let mut warm = JobStream::new(3, false);
    assert!((0..200).all(|_| matches!(warm.next_job(), JobKind::Pool { .. })));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&samples(19), 0.5), None);
    assert_eq!(percentile(&samples(20), 0.5), Some(10.0));
    assert_eq!(percentile(&samples(99), 0.9), None);
    assert_eq!(percentile(&samples(100), 0.9), Some(90.0));
    assert_eq!(percentile(&samples(1000), 0.9), Some(900.0));
}
