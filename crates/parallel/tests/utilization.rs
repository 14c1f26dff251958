//! Pool utilization counts a participant parked on an empty queue as idle.
//!
//! The width pin and the pool counters are the test thread's own, so the
//! window measured here holds only this test's regions.

use std::time::Duration;

use gfl_parallel::{par_for_each_init, set_default_parallelism, stats, TaskQueue};

/// One 50 ms task and one empty task on two participants: one participant
/// works for the whole region, the other finishes at once and parks, so
/// half of the capacity is busy.
#[test]
fn a_parked_participant_is_not_busy() {
    set_default_parallelism(2);
    let work = |long: bool| {
        if long {
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let queue = TaskQueue::default();
    let before = stats::snapshot();
    queue.run([true, false], || (), |(), long, _| work(long));
    let on_queue = stats::snapshot().since(before);

    let mut items = [true, false];
    let before = stats::snapshot();
    par_for_each_init(&mut items, || (), |(), _, long| work(*long));
    let on_helper = stats::snapshot().since(before);

    for (run, delta) in [
        ("TaskQueue::run", on_queue),
        ("par_for_each_init", on_helper),
    ] {
        assert_eq!(delta.regions, 1, "{run}: one fanned-out region");
        let u = delta.utilization();
        assert!(
            (0.35..=0.65).contains(&u),
            "{run}: utilization {u:.3}, expected about 0.5 ({delta:?})"
        );
    }
}
