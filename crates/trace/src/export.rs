//! Trace exporter: Chrome `trace_event` JSON.
//!
//! The Chrome form loads directly in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`: wall-clock events (runtime workers) and
//! sim-clock events (the entanglement plane) are emitted as two separate
//! *processes* so the two time axes never share a track, with one named
//! thread per runtime worker, per QNIC side, per source, and per
//! governor. Timestamps are microseconds as the format requires; the
//! sub-µs detail survives because `ts` is fractional. Each pair event
//! carries its pair id and distributor lane in `args`, and
//! `otherData.dropped_events` is the count the rings overwrote.

use crate::event::{Event, EventKind, Side, Track};
use crate::TraceLog;
use obs::json::Json;

/// Wall-clock events: Chrome-trace process 1.
const PID_WALL: u64 = 1;
/// Sim-clock events: Chrome-trace process 2.
const PID_SIM: u64 = 2;

/// Stable (pid, tid) for a track. Thread-id spaces within the sim
/// process: governors low, distributor lanes (source + two QNICs) above
/// them.
fn track_ids(track: Track) -> (u64, u64) {
    match track {
        Track::Main => (PID_WALL, 0),
        Track::Worker(w) => (PID_WALL, 1 + u64::from(w)),
        Track::Governor(g) => (PID_SIM, 1 + u64::from(g)),
        Track::Source(l) => (PID_SIM, 1_000_000 + 4 * u64::from(l)),
        Track::Qnic { lane, side } => {
            let s = match side {
                Side::A => 1,
                Side::B => 2,
            };
            (PID_SIM, 1_000_000 + 4 * u64::from(lane) + s)
        }
        Track::Chain(c) => (PID_SIM, 2_000_000 + u64::from(c)),
        Track::Endpoint(e) => (PID_SIM, 3_000_000 + u64::from(e)),
    }
}

/// Human-readable track name for Perfetto's thread list.
fn track_name(track: Track) -> String {
    match track {
        Track::Main => "main".into(),
        Track::Worker(w) => format!("worker-{w}"),
        Track::Source(l) => format!("source-{l}"),
        Track::Qnic { lane, side } => format!("qnic-{lane}{}", side.name()),
        Track::Governor(g) => format!("governor-{g}"),
        Track::Chain(c) => format!("chain-{c}"),
        Track::Endpoint(e) => format!("endpoint-{e}"),
    }
}

/// The distributor lane a track belongs to, when it has one. Pair ids
/// are unique per lane, not globally, so cross-referencing lifecycle
/// events needs (lane, pair).
fn track_lane(track: Track) -> Option<u32> {
    match track {
        Track::Source(l) | Track::Qnic { lane: l, .. } => Some(l),
        // A chain's pair ids are scoped by its own track (one chain per
        // routed server pair), so it doubles as the lane.
        Track::Chain(c) => Some(c),
        Track::Main | Track::Worker(_) | Track::Governor(_) | Track::Endpoint(_) => None,
    }
}

/// Event name as shown on the timeline.
fn event_name(kind: &EventKind) -> String {
    match kind {
        EventKind::Begin(n) | EventKind::End(n) | EventKind::Instant(n) => (*n).into(),
        EventKind::Pair { stage, .. } => format!("pair.{}", stage.name()),
    }
}

/// Sorts events into export order: clock domain, then track, then time.
/// The sort is stable, so events at one instant on one track keep the
/// order they were recorded in (an `End` before the next `Begin`); ties
/// across rings sharing a track follow ring-registration order.
fn sorted(log: &TraceLog) -> Vec<Event> {
    let mut events = log.events.clone();
    events.sort_by_key(|e| {
        let (pid, tid) = track_ids(e.track);
        (pid, tid, e.t_ns)
    });
    events
}

/// Renders the log as one Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), loadable in Perfetto.
pub fn chrome_trace(log: &TraceLog) -> Json {
    let events = sorted(log);
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 16);

    // Metadata: name the two processes and every thread that appears.
    // The events are sorted by track, so a new track differs from the
    // last one named.
    let mut seen: Vec<(u64, u64, Track)> = Vec::new();
    for e in &events {
        let (pid, tid) = track_ids(e.track);
        if seen.last().is_none_or(|&(p, t, _)| (p, t) != (pid, tid)) {
            seen.push((pid, tid, e.track));
        }
    }
    for (pid, name) in [
        (PID_WALL, "runtime (wall clock)"),
        (PID_SIM, "simulation (sim ns)"),
    ] {
        if seen.iter().any(|&(p, _, _)| p == pid) {
            out.push(Json::obj([
                ("name", Json::str("process_name")),
                ("ph", Json::str("M")),
                ("pid", Json::uint(pid)),
                ("tid", Json::uint(0)),
                ("args", Json::obj([("name", Json::str(name))])),
            ]));
        }
    }
    for &(pid, tid, track) in &seen {
        out.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(pid)),
            ("tid", Json::uint(tid)),
            ("args", Json::obj([("name", Json::str(track_name(track)))])),
        ]));
    }

    for e in &events {
        let (pid, tid) = track_ids(e.track);
        let ts = Json::Num(e.t_ns as f64 / 1e3);
        let mut pairs: Vec<(String, Json)> = vec![
            ("name".into(), Json::str(event_name(&e.kind))),
            ("pid".into(), Json::uint(pid)),
            ("tid".into(), Json::uint(tid)),
            ("ts".into(), ts),
        ];
        match e.kind {
            EventKind::Begin(_) => pairs.push(("ph".into(), Json::str("B"))),
            EventKind::End(_) => pairs.push(("ph".into(), Json::str("E"))),
            EventKind::Instant(_) => {
                pairs.push(("ph".into(), Json::str("i")));
                pairs.push(("s".into(), Json::str("t")));
            }
            EventKind::Pair { id, .. } => {
                pairs.push(("ph".into(), Json::str("i")));
                pairs.push(("s".into(), Json::str("t")));
                let mut args = vec![("pair", Json::uint(id))];
                if let Some(lane) = track_lane(e.track) {
                    args.push(("lane", Json::uint(u64::from(lane))));
                }
                pairs.push(("args".into(), Json::obj(args)));
            }
        }
        out.push(Json::Obj(pairs));
    }

    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ns")),
        (
            "otherData",
            Json::obj([("dropped_events", Json::uint(log.dropped))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PairStage;

    fn sample_log() -> TraceLog {
        TraceLog {
            events: vec![
                Event {
                    t_ns: 2_500,
                    wall: false,
                    track: Track::Source(0),
                    kind: EventKind::Pair {
                        stage: PairStage::Emitted,
                        id: 9,
                    },
                },
                Event {
                    t_ns: 100,
                    wall: true,
                    track: Track::Worker(1),
                    kind: EventKind::Begin("chunk"),
                },
                Event {
                    t_ns: 900,
                    wall: true,
                    track: Track::Worker(1),
                    kind: EventKind::End("chunk"),
                },
                Event {
                    t_ns: 7_000,
                    wall: false,
                    track: Track::Qnic {
                        lane: 0,
                        side: Side::A,
                    },
                    kind: EventKind::Pair {
                        stage: PairStage::Consumed,
                        id: 9,
                    },
                },
            ],
            dropped: 3,
        }
    }

    #[test]
    fn chrome_trace_parses_and_separates_clock_domains() {
        let doc = chrome_trace(&sample_log());
        let text = doc.render();
        let parsed = Json::parse(&text).expect("exporter emits valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name + 3 thread_name + 4 events.
        assert_eq!(events.len(), 9);
        for e in events {
            assert!(e.get("ph").is_some() && e.get("pid").is_some() && e.get("tid").is_some());
        }
        let pair_events: Vec<&Json> = events
            .iter()
            .filter(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("pair."))
            })
            .collect();
        assert_eq!(pair_events.len(), 2);
        for e in &pair_events {
            assert_eq!(e.get("pid").unwrap().as_i64(), Some(PID_SIM as i64));
            assert_eq!(
                e.get("args").unwrap().get("pair").unwrap().as_i64(),
                Some(9)
            );
            assert_eq!(
                e.get("args").unwrap().get("lane").unwrap().as_i64(),
                Some(0)
            );
        }
        // Delivery latency is derivable: consumed.ts − emitted.ts.
        let ts = |name: &str| {
            pair_events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap()
                .get("ts")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!((ts("pair.consumed") - ts("pair.emitted") - 4.5).abs() < 1e-9);
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_i64(),
            Some(3)
        );
    }

    #[test]
    fn spans_meeting_at_one_instant_keep_their_recorded_order() {
        let span = |t_ns, kind| Event {
            t_ns,
            wall: true,
            track: Track::Worker(0),
            kind,
        };
        let log = TraceLog {
            events: vec![
                span(100, EventKind::Begin("chunk")),
                span(200, EventKind::End("chunk")),
                span(200, EventKind::Begin("chunk")),
                span(300, EventKind::End("chunk")),
            ],
            dropped: 0,
        };
        let parsed = Json::parse(&chrome_trace(&log).render()).unwrap();
        let phases: Vec<&str> = parsed
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .filter(|&ph| ph != "M")
            .collect();
        assert_eq!(phases, ["B", "E", "B", "E"]);
    }
}
