//! Golden-file shape test for the JSONL event log: a fixed emission
//! sequence must render byte-identically (after timestamp
//! normalization) to `golden/events.jsonl`, and every line must satisfy
//! the event grammar (`ts`/`level`/`event`/`fields`, `req` only inside
//! a request scope).
//!
//! Regenerate the golden after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p encore-obs --test events`.

use encore_obs::event::{self, Level};
use encore_obs::json::{self, Json};

const GOLDEN: &str = include_str!("golden/events.jsonl");

/// Zero the monotonic `ts` field so the comparison pins shape, not
/// timing.  Everything else — key order included — must match exactly.
fn normalize(line: &str) -> String {
    let Json::Obj(pairs) = json::parse(line).expect("event line parses") else {
        panic!("event line is not an object: {line}");
    };
    let pairs = pairs
        .into_iter()
        .map(|(key, value)| {
            if key == "ts" {
                (key, Json::Num(0))
            } else {
                (key, value)
            }
        })
        .collect();
    Json::Obj(pairs).render()
}

/// The grammar every consumer may rely on: `ts` first, then `level`
/// (a known name), `event` (non-empty dotted), optional `req` (> 0),
/// `fields` object last.
fn validate_line(line: &str) {
    let Json::Obj(pairs) = json::parse(line).expect("event line parses") else {
        panic!("event line is not an object: {line}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    match keys.as_slice() {
        ["ts", "level", "event", "fields"] | ["ts", "level", "event", "req", "fields"] => {}
        other => panic!("unexpected key sequence {other:?} in {line}"),
    }
    let value = Json::Obj(pairs);
    assert!(value.get("ts").and_then(Json::as_u64).is_some(), "{line}");
    let level = value.get("level").and_then(Json::as_str).expect("level");
    assert!(
        ["debug", "info", "warn", "error"].contains(&level),
        "{line}"
    );
    let name = value.get("event").and_then(Json::as_str).expect("event");
    assert!(!name.is_empty(), "{line}");
    if let Some(req) = value.get("req") {
        assert!(req.as_u64().is_some_and(|id| id > 0), "{line}");
    }
    assert!(matches!(value.get("fields"), Some(Json::Obj(_))), "{line}");
}

#[test]
fn event_log_lines_match_the_golden_shape() {
    let path = std::env::temp_dir().join(format!("encore-events-golden-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    event::install(&path).expect("install event log");

    // One representative of each event family the stack emits:
    // `detect.fleet` (encore-core) and `request.done` (encore-serve).
    event::emit(
        Level::Debug,
        "detect.fleet",
        vec![
            ("app".to_string(), Json::Str("mysql".to_string())),
            ("systems".to_string(), Json::Num(20)),
        ],
    );
    event::with_request(1, || {
        event::emit(
            Level::Info,
            "request.done",
            vec![
                ("verb".to_string(), Json::Str("check".to_string())),
                ("status".to_string(), Json::Str("ok".to_string())),
                ("parse_us".to_string(), Json::Num(41)),
                ("queue_us".to_string(), Json::Num(12)),
                ("check_us".to_string(), Json::Num(5_230)),
                ("respond_us".to_string(), Json::Num(88)),
                ("total_us".to_string(), Json::Num(5_371)),
            ],
        );
    });
    event::shutdown();

    let text = std::fs::read_to_string(&path).expect("read event log");
    let _ = std::fs::remove_file(&path);
    for line in text.lines() {
        validate_line(line);
    }
    let normalized: String = text.lines().map(normalize).fold(String::new(), |mut s, l| {
        s.push_str(&l);
        s.push('\n');
        s
    });

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/events.jsonl");
        std::fs::write(golden, &normalized).expect("write golden");
        return;
    }
    assert_eq!(
        normalized, GOLDEN,
        "event line shape drifted; run with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn golden_file_itself_passes_the_grammar_validator() {
    for line in GOLDEN.lines() {
        validate_line(line);
    }
    // Timestamps were normalized at capture; the request ids were not —
    // the golden run's scopes are pinned too.
    let reqs: Vec<u64> = GOLDEN
        .lines()
        .filter_map(|l| json::parse(l).ok()?.get("req")?.as_u64())
        .collect();
    assert_eq!(reqs, vec![1]);
}
