//! Self-time arithmetic on synthetic span trees.

use green_perfbench::spans::{layer_self_ns, self_times, Span, Tracer, ROOT};

fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_string(),
        start_ns,
        end_ns,
        derived: false,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = vec![
        span(0, None, ROOT, 0, 100),
        span(1, Some(0), "runner:shard 0/2", 10, 40),
        span(2, Some(1), "batchsim", 12, 30),
        span(3, Some(1), "csv", 30, 35),
        span(4, Some(0), "merge", 50, 90),
        span(5, Some(4), "verify", 60, 70),
    ];
    assert_eq!(self_times(&spans), vec![30, 7, 18, 5, 30, 10]);

    let layers = layer_self_ns(&spans, 0);
    assert_eq!(
        layers[ROOT], 30,
        "the root's self time is the unattributed rest"
    );
    assert_eq!(layers["runner"], 7);
    assert_eq!(layers["batchsim"], 18);
    assert_eq!(layers["merge"], 30);
    assert_eq!(
        layers.values().sum::<u64>(),
        100,
        "self times add up to wall"
    );
}

#[test]
fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
    let spans = vec![
        span(0, None, "analyze:q0", 0, 100),
        span(1, Some(0), "a", 10, 50),
        span(2, Some(0), "b", 30, 60),
        // Reaches past the parent's end: only 90..100 is covered.
        span(3, Some(0), "c", 90, 120),
    ];
    // Children cover 10..60 and 90..100: 60 of the parent's 100.
    assert_eq!(self_times(&spans)[0], 40);
}

#[test]
fn spans_outside_the_root_are_not_counted() {
    let spans = vec![
        span(0, None, "setup", 0, 50),
        span(1, Some(0), "prepare", 0, 40),
        span(2, None, ROOT, 60, 100),
        span(3, Some(2), "merge", 70, 80),
    ];
    let layers = layer_self_ns(&spans, 2);
    assert_eq!(layers.len(), 2);
    assert_eq!(layers[ROOT], 30);
    assert_eq!(layers["merge"], 10);
}

#[test]
fn derived_children_lie_end_to_end_inside_their_parent() {
    let mut tracer = Tracer::new(7);
    let root = tracer.open(ROOT);
    let shard = tracer.open("runner:shard 0/1");
    std::thread::sleep(std::time::Duration::from_millis(2));
    tracer.close(shard);
    tracer.close(root);
    let parent = tracer.spans()[1].clone();
    let budget = parent.duration_ns();
    // Asks for more than the parent lasted: the last child is clipped.
    tracer.derived(shard, &[("prepare", budget / 4), ("batchsim", budget)]);

    let spans = tracer.spans();
    assert_eq!(spans.len(), 4);
    let (prepare, batchsim) = (&spans[2], &spans[3]);
    assert!(prepare.derived && batchsim.derived);
    assert_eq!(prepare.parent, Some(1));
    assert_eq!(prepare.start_ns, parent.start_ns);
    assert_eq!(batchsim.start_ns, prepare.end_ns);
    assert_eq!(batchsim.end_ns, parent.end_ns);

    let layers = layer_self_ns(spans, 0);
    assert_eq!(
        layers["runner"], 0,
        "derived children cover the whole shard"
    );
    assert_eq!(layers.values().sum::<u64>(), spans[0].duration_ns());
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut tracer = Tracer::disabled();
    let id = tracer.open(ROOT);
    tracer.derived(id, &[("prepare", 5)]);
    tracer.close(id);
    assert!(!tracer.enabled());
    assert!(tracer.spans().is_empty());
    assert!(tracer.to_jsonl().is_empty());
}
