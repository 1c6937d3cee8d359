//! The span recorder: nesting, request ids, and the written trace.

use ninja_benchmark::trace::{chrome_json, total_seconds, Recorder};
use serde::Value;

#[test]
fn spans_nest_per_thread_and_requests_share_an_id() {
    let recorder = Recorder::new();
    {
        let _kernel = recorder.span("kernel:k");
        {
            let _cell = recorder.span("cell");
            drop(recorder.span("run"));
            drop(recorder.span("run"));
        }
        // Another thread starts its own stack: no parent.
        std::thread::scope(|s| {
            s.spawn(|| drop(recorder.span("elsewhere")));
        });
    }
    drop(recorder.request_span("submit", 128));
    drop(recorder.request_span("wait", 128));

    let spans = recorder.spans();
    let by_name = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let kernel = by_name("kernel:k")[0];
    let cell = by_name("cell")[0];
    assert_eq!(kernel.parent, 0);
    assert_eq!(cell.parent, kernel.id);
    assert!(by_name("run").iter().all(|run| run.parent == cell.id));
    let elsewhere = by_name("elsewhere")[0];
    assert_eq!(elsewhere.parent, 0);
    assert_ne!(elsewhere.tid, kernel.tid);
    assert_eq!(by_name("submit")[0].request, Some(128));
    assert_eq!(by_name("wait")[0].request, Some(128));
    assert_eq!(by_name("submit")[0].parent, 0, "the kernel span had closed");

    // A parent covers its children, so self time is never negative.
    assert!(kernel.start_ns <= cell.start_ns && cell.end_ns <= kernel.end_ns);
    assert!(total_seconds(&spans, "run") <= cell.seconds());
    let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len());
}

#[test]
fn the_trace_is_chrome_trace_event_json() {
    let recorder = Recorder::new();
    drop(recorder.span("quote\"and\\slash"));
    drop(recorder.request_span("wait", 7));
    let doc: Value = serde_json::from_str(&chrome_json(&recorder.spans())).expect("valid JSON");
    let Value::Array(events) = doc.field("traceEvents").unwrap() else {
        panic!("traceEvents is not an array");
    };
    assert_eq!(events.len(), 2);
    assert_eq!(
        events[0].field("name").unwrap(),
        &Value::Str("quote\"and\\slash".to_owned())
    );
    assert_eq!(events[0].field("ph").unwrap(), &Value::Str("X".to_owned()));
    for key in ["ts", "dur", "pid", "tid"] {
        assert!(matches!(events[1].field(key), Ok(Value::Num(_))), "{key}");
    }
    let args = events[1].field("args").unwrap();
    assert!(matches!(args.field("id"), Ok(Value::Num(_))));
    assert!(matches!(args.field("parent"), Ok(Value::Num(_))));
    assert!(matches!(args.field("request"), Ok(Value::Num(n)) if n.raw == "7"));
    assert!(serde_json::from_str::<Value>(&chrome_json(&[])).is_ok());
}
