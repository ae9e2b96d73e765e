//! `TraceRecording::validate` over a route decision among more
//! candidates than a `TraceEvent` records costs for.
#![cfg(feature = "recorder")]

use mprec_trace::{EventRing, TraceEvent, TraceRecording, MAX_PATHS};

/// One query, one batch routed to `chosen` among `costs.len()`
/// candidates.
fn recording(chosen: i32, costs: &[f64]) -> TraceRecording {
    let mut rec = TraceRecording::new((0..costs.len()).map(|i| format!("path{i}")).collect());
    let mut ring = EventRing::with_capacity(8);
    ring.record(TraceEvent::enqueue(1.0, 7, 2));
    ring.record(TraceEvent::batch_formed(5.0, 0, 1, 2, 1.0));
    ring.record(TraceEvent::route_decision(
        5.0, 0, 2, 0, 100.0, chosen, costs,
    ));
    ring.record(TraceEvent::execute(5.0, 0, 0, 20.0));
    ring.record(TraceEvent::complete(20.0, 7, 0, 19.0));
    rec.push_ring("dispatcher", ring);
    rec
}

#[test]
fn a_choice_past_the_recorded_candidates_validates() {
    // Two platforms x three paths: six candidates, four recorded.
    let costs = [40.0, 35.0, 30.0, 25.0, 20.0, 15.0];
    assert!(costs.len() > MAX_PATHS);
    let sum = recording(5, &costs).validate().expect("valid");
    assert_eq!(sum.route_decisions, 1);
    assert_eq!(sum.completes, 1);
}

#[test]
fn a_recorded_chosen_cost_must_be_finite() {
    let mut costs = [40.0, 35.0, 30.0, 25.0, 20.0, 15.0];
    costs[1] = f64::INFINITY;
    assert!(recording(1, &costs).validate().is_err());
    assert!(recording(5, &costs).validate().is_ok());
}
