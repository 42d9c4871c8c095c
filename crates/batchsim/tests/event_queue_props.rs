//! Property tests pinning [`EventQueue`] — the trace's arrivals read in
//! arrival order, merged with a heap of pushed events — to the single
//! `BinaryHeap` it replaced, into which every arrival was pushed first:
//! any arrival list and any interleaving of pushes and pops must pop
//! exactly the events that heap pops, in the same order. Equal
//! timestamps pop first-in, first-out, so an arrival pops before a
//! finish or a re-arrival pushed for the same instant.

use green_batchsim::event::{Event, EventBuffers, EventKind, EventQueue};
use green_units::{Energy, TimePoint, TimeSpan};
use green_workload::{Job, JobId, UserId};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// The reference model: one `BinaryHeap<Event>` holding every event,
/// every arrival pushed first, in trace order. The `Event` ordering is
/// unchanged, so this is the simulator's old queue, bit for bit.
struct ReferenceQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn new(jobs: &[Job]) -> ReferenceQueue {
        let mut queue = ReferenceQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        };
        for (job, j) in jobs.iter().enumerate() {
            queue.push(j.arrival, EventKind::Arrival(job));
        }
        queue
    }

    fn push(&mut self, at: TimePoint, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }
}

/// One step of a stream after the arrivals.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at the last popped time plus a delay: the simulator's
    /// pattern, where a finish or a re-arrival is never in the past.
    After(f64, EventKind),
    /// Push at an absolute time.
    At(f64, EventKind),
    Pop,
}

/// A job per arrival time; only `arrival` matters to the queue.
fn jobs(arrivals: &[f64]) -> Vec<Job> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &secs)| Job {
            id: JobId(i as u32),
            user: UserId(0),
            archetype: 0,
            cores: 1,
            arrival: TimePoint::from_secs(secs),
            ref_runtime: TimeSpan::from_secs(0.0),
            ref_energy: Energy::from_kwh(0.0),
        })
        .collect()
}

fn check_stream(arrivals: &[f64], ops: &[Op]) {
    check_stream_in(&mut EventBuffers::default(), &jobs(arrivals), ops);
}

/// Drives the queue, built in `buffers`, and the reference through the
/// same stream, then drains both: every pop must agree in time bits,
/// sequence number and kind.
fn check_stream_in(buffers: &mut EventBuffers, jobs: &[Job], ops: &[Op]) {
    let mut queue = EventQueue::new(jobs, buffers);
    let mut reference = ReferenceQueue::new(jobs);
    let mut now = 0.0;
    for &op in ops {
        match op {
            Op::After(delay, kind) => {
                let at = TimePoint::from_secs(now + delay);
                queue.push(at, kind);
                reference.push(at, kind);
            }
            Op::At(secs, kind) => {
                queue.push(TimePoint::from_secs(secs), kind);
                reference.push(TimePoint::from_secs(secs), kind);
            }
            Op::Pop => {
                if let Some(at) = pop_both(&mut queue, &mut reference) {
                    now = at;
                }
            }
        }
        assert_eq!(queue.len(), reference.heap.len());
        assert_eq!(queue.is_empty(), reference.heap.is_empty());
    }
    while pop_both(&mut queue, &mut reference).is_some() {}
    assert!(queue.is_empty());
}

/// Pops both queues, asserts they agree, and returns the popped time.
fn pop_both(queue: &mut EventQueue, reference: &mut ReferenceQueue) -> Option<f64> {
    match (queue.pop(), reference.heap.pop()) {
        (None, None) => None,
        (Some(a), Some(b)) => {
            // Bitwise time comparison so NaN streams compare.
            assert_eq!(
                (a.at.as_secs().to_bits(), a.seq, a.kind),
                (b.at.as_secs().to_bits(), b.seq, b.kind),
                "pop diverged"
            );
            Some(a.at.as_secs())
        }
        (a, b) => panic!("emptiness diverged: queue={a:?} reference={b:?}"),
    }
}

/// A finish on one of a few machines, or a re-arrival, of a small job.
fn kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0usize..4, 0usize..64).prop_map(|(machine, job)| EventKind::Finish(machine, job)),
        (0usize..64).prop_map(EventKind::Arrival),
    ]
}

/// Arrival times sorted by `total_cmp`, the order the trace keeps.
fn sorted(mut arrivals: Vec<f64>) -> Vec<f64> {
    arrivals.sort_by(f64::total_cmp);
    arrivals
}

/// Times that break a naive comparison: zeros of both signs, infinities
/// and NaNs of both signs.
fn special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN.copysign(1.0)),
        Just(f64::NAN.copysign(-1.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random arrival-sorted streams on coarse times (so arrivals tie
    /// with each other and with pushes), with finishes and re-arrivals
    /// pushed at or after the last popped time.
    #[test]
    fn random_interleavings_match_reference(
        arrivals in prop::collection::vec((0u32..64).prop_map(|t| t as f64 * 777.0), 0..120),
        ops in prop::collection::vec(
            prop_oneof![
                ((0u32..8), kind()).prop_map(|(d, k)| Op::After(d as f64 * 777.0, k)),
                ((0u32..4), kind()).prop_map(|(d, k)| Op::After(d as f64 * 3600.0, k)),
                Just(Op::Pop),
                Just(Op::Pop),
            ],
            1..200,
        )
    ) {
        check_stream(&sorted(arrivals), &ops);
    }

    /// The simulator's own pattern: continuous arrival times, and each
    /// push at or after the last popped time.
    #[test]
    fn monotone_schedule_matches_reference(
        arrivals in prop::collection::vec(0.0f64..200_000.0, 1..150),
        steps in prop::collection::vec((0.0f64..20_000.0, kind(), 0u32..3), 1..150),
    ) {
        let mut ops = Vec::new();
        for (delay, kind, pops) in steps {
            ops.push(Op::After(delay, kind));
            ops.extend(std::iter::repeat_n(Op::Pop, pops as usize));
        }
        check_stream(&sorted(arrivals), &ops);
    }

    /// Exact ties between an arrival, a finish and a re-arrival: every
    /// arrival and push lands on one of six instants, pushed both
    /// absolutely and at the last popped time.
    #[test]
    fn ties_across_arrivals_and_pushes_match_reference(
        arrivals in prop::collection::vec((0u32..6).prop_map(|t| t as f64 * 100.0), 0..80),
        ops in prop::collection::vec(
            prop_oneof![
                ((0u32..6), kind()).prop_map(|(t, k)| Op::At(t as f64 * 100.0, k)),
                kind().prop_map(|k| Op::After(0.0, k)),
                ((0u32..3), kind()).prop_map(|(d, k)| Op::After(d as f64 * 100.0, k)),
                Just(Op::Pop),
                Just(Op::Pop),
            ],
            1..200,
        )
    ) {
        check_stream(&sorted(arrivals), &ops);
    }

    /// ±inf and NaN of both signs among the arrivals and the pushes,
    /// beside negatives, far-future spikes and pushes that go backwards
    /// in time.
    #[test]
    fn adversarial_streams_match_reference(
        arrivals in prop::collection::vec(
            prop_oneof![special(), (-8i32..8).prop_map(|t| t as f64 * 250.0)],
            0..40,
        ),
        ops in prop::collection::vec(
            prop_oneof![
                (special(), kind()).prop_map(|(t, k)| Op::At(t, k)),
                ((-8i32..8), kind()).prop_map(|(t, k)| Op::At(t as f64 * 250.0, k)),
                ((1u32..4), kind()).prop_map(|(s, k)| Op::At(4.0e12 + s as f64, k)),
                ((0u32..4), kind()).prop_map(|(d, k)| Op::After(d as f64 * 250.0, k)),
                Just(Op::Pop),
                Just(Op::Pop),
            ],
            1..120,
        )
    ) {
        check_stream(&sorted(arrivals), &ops);
    }

    /// Arrival lists in no particular order (`Trace`'s fields are
    /// public), with equal, special and negative times among them.
    #[test]
    fn unsorted_arrivals_match_reference(
        arrivals in prop::collection::vec(
            prop_oneof![
                (0u32..16).prop_map(|t| t as f64 * 100.0),
                (1u32..8).prop_map(|t| t as f64 * -50.0),
                special(),
            ],
            2..100,
        ),
        ops in prop::collection::vec(
            prop_oneof![
                ((0u32..16), kind()).prop_map(|(t, k)| Op::At(t as f64 * 100.0, k)),
                ((0u32..4), kind()).prop_map(|(d, k)| Op::After(d as f64 * 100.0, k)),
                Just(Op::Pop),
                Just(Op::Pop),
            ],
            1..150,
        )
    ) {
        check_stream(&arrivals, &ops);
    }
}

#[test]
fn equal_timestamp_floods_are_fifo() {
    // A thousand arrivals at one instant, then a thousand finishes and
    // re-arrivals pushed for that instant while the arrivals drain:
    // everything must come back in push order, arrivals first.
    let mut arrivals = vec![0.0];
    arrivals.extend(std::iter::repeat_n(42.0, 1_000));
    let mut ops = vec![Op::Pop];
    for job in 0..1_000 {
        let kind = if job % 2 == 0 {
            EventKind::Finish(job % 3, job)
        } else {
            EventKind::Arrival(job)
        };
        ops.push(Op::At(42.0, kind));
        if job % 3 == 0 {
            ops.push(Op::Pop);
        }
    }
    check_stream(&arrivals, &ops);
}

#[test]
fn reused_queue_behaves_like_a_fresh_one() {
    // Leave an unsorted run half drained, then run a sorted one and an
    // unsorted one over the same buffers: each must match a fresh
    // reference exactly (sequence numbers restart, no order or heap
    // entry leaks across runs).
    let mut buffers = EventBuffers::default();
    let unsorted: Vec<f64> = (0..500).map(|i| ((i * 37) % 97) as f64 * 511.0).collect();
    let first = jobs(&unsorted);
    let mut queue = EventQueue::new(&first, &mut buffers);
    for i in 0..300 {
        queue.push(
            TimePoint::from_secs(i as f64 * 97.0),
            EventKind::Finish(0, i),
        );
    }
    for _ in 0..400 {
        queue.pop();
    }

    let ops = [
        Op::At(9.0, EventKind::Finish(1, 1)),
        Op::At(3.0, EventKind::Finish(2, 2)),
        Op::Pop,
        Op::At(3.0, EventKind::Arrival(0)),
        Op::After(100_000.0, EventKind::Finish(3, 3)),
        Op::At(0.0, EventKind::Finish(4, 4)),
    ];
    check_stream_in(&mut buffers, &jobs(&[0.0, 3.0, 3.0, 7.0]), &ops);
    check_stream_in(&mut buffers, &jobs(&[7.0, 3.0, 0.0, 3.0]), &ops);
}
