//! Chrome trace-event export: renders a [`Recorder`]
//! as the JSON object format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). Each telemetry track becomes one
//! named thread row (`tid` = track id) under a single process, so pool
//! workers show up as parallel lanes and pipeline overlap is visible at
//! a glance. Timestamps and durations are microseconds with nanosecond
//! fractions, per the trace-event spec.

use crate::json::JsonWriter;
use crate::Recorder;

const PID: u64 = 1;

pub(crate) fn chrome_trace(rec: &Recorder) -> String {
    let (spans, tracks) = rec.snapshot();
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("displayTimeUnit");
    w.str("ms");
    w.key("traceEvents");
    w.begin_arr();

    w.begin_obj();
    w.key("ph");
    w.str("M");
    w.key("name");
    w.str("process_name");
    w.key("pid");
    w.int(PID);
    w.key("args");
    w.begin_obj();
    w.key("name");
    w.str("tcgen");
    w.end_obj();
    w.end_obj();

    for (id, name) in tracks.iter().enumerate() {
        w.begin_obj();
        w.key("ph");
        w.str("M");
        w.key("name");
        w.str("thread_name");
        w.key("pid");
        w.int(PID);
        w.key("tid");
        w.int(id as u64);
        w.key("args");
        w.begin_obj();
        w.key("name");
        w.str(name);
        w.end_obj();
        w.end_obj();
    }

    for span in &spans {
        w.begin_obj();
        w.key("ph");
        w.str("X");
        w.key("name");
        w.str(span.name);
        w.key("cat");
        w.str("tcgen");
        w.key("pid");
        w.int(PID);
        w.key("tid");
        w.int(span.track.0 as u64);
        w.key("ts");
        w.num(span.start_ns as f64 / 1e3);
        w.key("dur");
        w.num(span.dur_ns as f64 / 1e3);
        w.end_obj();
    }

    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};
    use crate::{Recorder, TrackId};

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let rec = Recorder::new();
        let worker = rec.track("pack-0");
        rec.time(TrackId::DRIVER, "compress", || {
            rec.time(worker, "pack.segment", || {});
        });
        let text = rec.chrome_trace();
        let value = parse(&text).expect("chrome trace parses");
        let events = value.get("traceEvents").unwrap().as_arr().unwrap();

        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(thread_names, vec!["driver", "pack-0"]);

        let complete: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
        assert_eq!(complete.len(), 2);
        for event in &complete {
            assert!(event.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(event.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(event.get("tid").unwrap().as_u64().is_some());
            assert_eq!(event.get("pid").unwrap(), &Value::Int(1));
        }
        let names: Vec<&str> =
            complete.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert!(names.contains(&"compress"));
        assert!(names.contains(&"pack.segment"));
    }
}
