//! Integration tests that drive a live `easeml-serve` server over real
//! TCP: registration, commit gating, durability across restarts, and the
//! thread-count-invariance of the journal.

use easeml_par::splitmix64;
use easeml_serve::json::Value;
use easeml_serve::server::{ServeConfig, Server, ServerHandle};
use easeml_serve::Client;
use std::path::PathBuf;

const SCRIPT: &str = "ml:\n\
    \x20 - script     : ./test_model.py\n\
    \x20 - condition  : n > 0.6 +/- 0.2\n\
    \x20 - reliability: 0.99\n\
    \x20 - mode       : fp-free\n\
    \x20 - adaptivity : full\n\
    \x20 - steps      : 3\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("easeml-serve-integration")
        .join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind + run a server on an ephemeral port; returns (addr, handle,
/// join handle).
fn start(
    data_dir: &std::path::Path,
    threads: usize,
) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    start_with(ServeConfig {
        threads,
        ..ServeConfig::new("127.0.0.1:0", data_dir)
    })
}

/// Bind + run a server from an explicit config (for tests that tune the
/// event-loop knobs); returns (addr, handle, join handle).
fn start_with(config: ServeConfig) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// The entries of the data dir's top level, sorted: the server writes
/// nothing there but `projects/`.
fn top_level_entries(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn register_body(name: &str, script: &str) -> Value {
    Value::object([("name", Value::from(name)), ("script", Value::from(script))])
}

fn commit_body(id: &str, new_correct: u64) -> Value {
    Value::object([
        ("commit_id", Value::from(id)),
        ("samples", Value::from(100u64)),
        ("new_correct", Value::from(new_correct)),
        ("old_correct", Value::from(50u64)),
        ("changed", Value::from(30u64)),
        ("labels", Value::from(100u64)),
    ])
}

#[test]
fn end_to_end_gate_then_restart_preserves_state() {
    let dir = temp_dir("e2e");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);

    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    // Register: the estimator answers testset size + label budget.
    let (status, reg) = client
        .request("POST", "/projects", Some(&register_body("vision", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201, "{reg}");
    let estimate = reg.get("estimate").expect("estimate");
    assert!(estimate.get("labeled").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(
        reg.get("budget")
            .and_then(|b| b.get("steps"))
            .and_then(Value::as_u64),
        Some(3)
    );

    // The same name with a *different* script conflicts (identical
    // script re-registration is idempotent — covered elsewhere).
    let different = SCRIPT.replace("steps      : 3", "steps      : 5");
    let (status, _) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("vision", &different)),
        )
        .unwrap();
    assert_eq!(status, 409);

    // Pass → fail → budget-exhausted.
    let (status, r1) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c1", 90)),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(r1.get("passed").and_then(Value::as_bool), Some(true));
    assert_eq!(r1.get("signal").and_then(Value::as_bool), Some(true));
    assert_eq!(r1.get("outcome").and_then(Value::as_str), Some("True"));
    assert_eq!(r1.get("alarm"), Some(&Value::Null));

    let (_, r2) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c2", 30)),
        )
        .unwrap();
    assert_eq!(r2.get("passed").and_then(Value::as_bool), Some(false));

    let (_, r3) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c3", 65)),
        )
        .unwrap();
    assert_eq!(
        r3.get("outcome").and_then(Value::as_str),
        Some("Unknown"),
        "straddling interval"
    );
    assert_eq!(
        r3.get("alarm").and_then(Value::as_str),
        Some("budget_exhausted")
    );

    // The era is spent: further commits are refused until a fresh testset.
    let (status, refused) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c4", 90)),
        )
        .unwrap();
    assert_eq!(status, 409, "{refused}");
    let (_, budget) = client
        .request("GET", "/projects/vision/budget", None)
        .unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("fresh_testset_required"))
            .and_then(Value::as_bool),
        Some(true)
    );

    // Fresh testset opens era 1 with a full budget.
    let (status, fresh) = client
        .request("POST", "/projects/vision/testset", None)
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(fresh.get("era").and_then(Value::as_u64), Some(1));
    let (_, r4) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c4", 90)),
        )
        .unwrap();
    assert_eq!(r4.get("step").and_then(Value::as_u64), Some(1));
    assert_eq!(r4.get("era").and_then(Value::as_u64), Some(1));

    let (_, history_before) = client
        .request("GET", "/projects/vision/history", None)
        .unwrap();
    assert_eq!(
        history_before
            .get("entries")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(4)
    );
    let (_, status_before) = client.request("GET", "/projects/vision", None).unwrap();

    // Graceful stop snapshots the project and writes nothing else.
    drop(client);
    handle.stop();
    join.join().unwrap();
    assert!(dir.join("projects/vision/snapshot.json").exists());
    assert_eq!(top_level_entries(&dir), ["projects"]);

    // Restart from the same data dir: identical state.
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (_, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.get("projects").and_then(Value::as_u64), Some(1));
    let (_, history_after) = client
        .request("GET", "/projects/vision/history", None)
        .unwrap();
    assert_eq!(
        history_after, history_before,
        "restart must reconstruct the exact history"
    );
    let (_, status_after) = client.request("GET", "/projects/vision", None).unwrap();
    assert_eq!(status_after, status_before);
    // And the gate picks up exactly where it left off: era 1, step 2.
    let (_, r5) = client
        .request(
            "POST",
            "/projects/vision/commits",
            Some(&commit_body("c5", 90)),
        )
        .unwrap();
    assert_eq!(r5.get("era").and_then(Value::as_u64), Some(1));
    assert_eq!(r5.get("step").and_then(Value::as_u64), Some(2));

    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// A `labels` that is no exact non-negative integer is refused with a
/// 400 and spends no budget step; absent or `null` charges no labels.
#[test]
fn malformed_labels_are_refused_not_charged_as_zero() {
    let dir = temp_dir("labels");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("lab", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    let with_labels = |id: &str, labels: Option<Value>| {
        let Value::Object(mut fields) = commit_body(id, 90) else {
            unreachable!("commit bodies are objects")
        };
        fields.retain(|(key, _)| key != "labels");
        fields.extend(labels.map(|labels| ("labels".to_owned(), labels)));
        Value::Object(fields)
    };
    for bad in [Value::from(1.5), Value::from("100"), Value::Number(-1.0)] {
        let body = with_labels("bad", Some(bad.clone()));
        let (status, reply) = client
            .request("POST", "/projects/lab/commits", Some(&body))
            .unwrap();
        assert_eq!(status, 400, "labels {bad}");
        assert_eq!(
            reply.get("error").and_then(Value::as_str),
            Some("`labels` must be a non-negative integer")
        );
    }
    let (_, budget) = client.request("GET", "/projects/lab/budget", None).unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(0)
    );
    for (id, labels) in [("null", Some(Value::Null)), ("absent", None)] {
        let (status, receipt) = client
            .request(
                "POST",
                "/projects/lab/commits",
                Some(&with_labels(id, labels)),
            )
            .unwrap();
        assert_eq!(status, 200, "{id}");
        assert_eq!(
            receipt.get("labels").and_then(Value::as_u64),
            Some(0),
            "{id}"
        );
    }
    let (_, history) = client
        .request("GET", "/projects/lab/history", None)
        .unwrap();
    let entries = history.get("entries").and_then(Value::as_array).unwrap();
    let ids: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("id").and_then(Value::as_str))
        .collect();
    assert_eq!(ids, ["null", "absent"]);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn errors_are_clean_json() {
    let dir = temp_dir("errors");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr.clone());

    let (status, body) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    assert!(body.get("error").is_some());

    let (status, _) = client
        .request("GET", "/projects/ghost/history", None)
        .unwrap();
    assert_eq!(status, 404);

    // Missing fields and malformed scripts are 400s.
    let (status, _) = client
        .request(
            "POST",
            "/projects",
            Some(&Value::object([("name", Value::from("x"))])),
        )
        .unwrap();
    assert_eq!(status, 400);
    let (status, body) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("x", "not a ci script")),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("script"));
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("../evil", SCRIPT)))
        .unwrap();
    assert_eq!(status, 400);

    // Raw protocol garbage gets a 400 and a closed connection, and the
    // server keeps serving afterwards.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(b"DELETE\r\n\r\n").unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    drop(client);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn concurrent_submissions_serialize_into_distinct_steps() {
    let dir = temp_dir("concurrent");
    let (addr, handle, join) = start(&dir, 4);
    let script = SCRIPT.replace("steps      : 3", "steps      : 64");
    let mut client = Client::new(addr.clone());
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("shared", &script)))
        .unwrap();
    assert_eq!(status, 201);

    let workers: Vec<_> = (0..8)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for i in 0..8 {
                    let (status, body) = client
                        .request(
                            "POST",
                            "/projects/shared/commits",
                            Some(&commit_body(&format!("w{w}-c{i}"), 90)),
                        )
                        .unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    let (_, history) = client
        .request("GET", "/projects/shared/history", None)
        .unwrap();
    let entries = history.get("entries").and_then(Value::as_array).unwrap();
    assert_eq!(entries.len(), 64);
    // Steps must be exactly 1..=64: concurrent gate mutations serialized
    // under the project lock, no step lost or duplicated.
    let mut steps: Vec<u64> = entries
        .iter()
        .map(|e| e.get("step").and_then(Value::as_u64).unwrap())
        .collect();
    steps.sort_unstable();
    assert_eq!(steps, (1..=64).collect::<Vec<u64>>());

    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// Drive the same deterministic multi-project schedule against a server
/// of the given width; returns each project's journal bytes, read
/// before the shutdown snapshot seals them (32 commits stay short of
/// the first cadence snapshot).
fn run_schedule(threads: usize, tag: &str) -> Vec<(String, Vec<u8>)> {
    let dir = temp_dir(tag);
    let (addr, handle, join) = start_with(ServeConfig {
        threads,
        ..ServeConfig::new("127.0.0.1:0", &dir)
    });
    let script = SCRIPT.replace("steps      : 3", "steps      : 40");

    let clients: Vec<_> = (0..4)
        .map(|p| {
            let addr = addr.clone();
            let script = script.clone();
            std::thread::spawn(move || {
                let name = format!("proj-{p}");
                let mut client = Client::new(addr);
                let (status, _) = client
                    .request("POST", "/projects", Some(&register_body(&name, &script)))
                    .unwrap();
                assert_eq!(status, 201);
                for i in 0..32u64 {
                    // Deterministic per-commit counts from the workspace
                    // seed-derivation scheme.
                    let new_correct = 20 + splitmix64(p, i) % 80;
                    let body = Value::object([
                        ("commit_id", Value::from(format!("c{i}"))),
                        ("samples", Value::from(100u64)),
                        ("new_correct", Value::from(new_correct)),
                        ("old_correct", Value::from(50u64)),
                        ("changed", Value::from(splitmix64(p, i) % 100)),
                        ("labels", Value::from(100u64)),
                    ]);
                    let (status, _) = client
                        .request("POST", &format!("/projects/{name}/commits"), Some(&body))
                        .unwrap();
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let journals = (0..4)
        .map(|p| {
            let name = format!("proj-{p}");
            let journal = dir.join("projects").join(&name).join("journal.0.log");
            (name, std::fs::read(journal).unwrap())
        })
        .collect();
    handle.stop();
    join.join().unwrap();
    journals
}

#[test]
fn request_spanning_slow_packets_still_parses() {
    use std::io::{Read, Write};
    let dir = temp_dir("slow");
    let (addr, handle, join) = start(&dir, 2);

    // Write the request in three fragments with gaps well beyond the
    // server's 50 ms stop-flag poll interval: the request must still
    // parse (the poll interval is an idle-connection concern, never a
    // mid-request deadline).
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET /heal").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    raw.write_all(b"thz HTTP/1.1\r\nhost: x\r\n").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    raw.write_all(b"connection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    handle.stop();
    join.join().unwrap();
}

#[test]
fn commit_redelivery_is_idempotent_over_http() {
    let dir = temp_dir("idempotent");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    // Re-registering the identical script is also idempotent (a client
    // retrying a lost 201 must converge, not 409).
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);

    let body = commit_body("c1", 90);
    let (_, first) = client
        .request("POST", "/projects/p/commits", Some(&body))
        .unwrap();
    let (_, again) = client
        .request("POST", "/projects/p/commits", Some(&body))
        .unwrap();
    assert_eq!(again.get("step"), first.get("step"));
    let (_, budget) = client.request("GET", "/projects/p/budget", None).unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(1),
        "redelivery must not consume budget"
    );

    drop(client);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn shutdown_endpoint_stops_server_and_flushes_state() {
    let dir = temp_dir("shutdown");
    let (addr, _handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    let (status, _) = client
        .request("POST", "/projects/p/commits", Some(&commit_body("c1", 80)))
        .unwrap();
    assert_eq!(status, 200);
    assert!(dir.join("projects/p/journal.0.log").exists());
    // The graceful-stop path reachable from plain HTTP (what the CLI
    // binary relies on): run() must return and flush durable state,
    // sealing the journal into the snapshot.
    let (status, body) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("stopping").and_then(Value::as_bool), Some(true));
    drop(client);
    join.join().unwrap();
    assert!(dir.join("projects/p/snapshot.json").exists());
    assert!(!dir.join("projects/p/journal.0.log").exists());
    assert_eq!(top_level_entries(&dir), ["projects"]);
}

/// A data dir from a version that dumped its estimator caches next to
/// `projects/` still boots: the stale dumps, well-formed or corrupt, are
/// neither read nor rewritten, and the projects serve identical state.
#[test]
fn stale_cache_dumps_in_the_data_dir_are_ignored() {
    let dir = temp_dir("stale-dumps");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, registered) = client
        .request("POST", "/projects", Some(&register_body("p", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    for (id, correct) in [("c1", 90), ("c2", 30)] {
        let (status, _) = client
            .request(
                "POST",
                "/projects/p/commits",
                Some(&commit_body(id, correct)),
            )
            .unwrap();
        assert_eq!(status, 200);
    }
    let state = |client: &mut Client| -> Vec<String> {
        ["/projects/p", "/projects/p/history", "/projects/p/budget"]
            .iter()
            .map(|path| client.request("GET", path, None).unwrap().1.encode())
            .collect()
    };
    let before = state(&mut client);
    drop(client);
    handle.stop();
    join.join().unwrap();

    // An empty dump in the old format (its checksum is the FNV-1a basis
    // of an empty body), and dumps that are corrupt.
    let stale: [(&str, &[u8]); 2] = [
        (
            "bounds_cache.v1",
            b"easeml-bounds-cache v1 count=0\nchecksum=cbf29ce484222325\n",
        ),
        (
            "plan_cache.v1",
            b"easeml-plan-cache v1 count=3\n\xff\x00garbage",
        ),
    ];
    for round in 0..2 {
        for (i, (name, bytes)) in stale.iter().enumerate() {
            // The second round swaps which dump is the corrupt one.
            let bytes: &[u8] = if (i + round) % 2 == 0 {
                bytes
            } else {
                b"\x00\x01 not a cache dump"
            };
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let written: Vec<Vec<u8>> = stale
            .iter()
            .map(|(name, _)| std::fs::read(dir.join(name)).unwrap())
            .collect();
        let (addr, handle, join) = start(&dir, 2);
        let mut client = Client::new(addr);
        assert_eq!(state(&mut client), before, "round {round}");
        let (status, again) = client
            .request(
                "POST",
                "/projects",
                Some(&register_body(&format!("q{round}"), SCRIPT)),
            )
            .unwrap();
        assert_eq!(status, 201);
        assert_eq!(
            again.get("estimate").map(Value::encode),
            registered.get("estimate").map(Value::encode)
        );
        let (status, _) = client.request("POST", "/admin/persist", None).unwrap();
        assert_eq!(status, 200);
        drop(client);
        handle.stop();
        join.join().unwrap();
        for ((name, _), bytes) in stale.iter().zip(&written) {
            assert_eq!(&std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
        }
        assert_eq!(
            top_level_entries(&dir),
            ["bounds_cache.v1", "plan_cache.v1", "projects"]
        );
    }
}

#[test]
fn concurrent_persists_never_corrupt_snapshots() {
    let dir = temp_dir("persist-race");
    let (addr, handle, join) = start(&dir, 4);
    let mut client = Client::new(addr.clone());
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    let (status, _) = client
        .request("POST", "/projects/p/commits", Some(&commit_body("c1", 80)))
        .unwrap();
    assert_eq!(status, 200);

    // Hammer /admin/persist from several connections at once: every
    // request snapshots on a pool worker and answers the same body.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for _ in 0..5 {
                    let (status, body) = client.request("POST", "/admin/persist", None).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body.encode(), r#"{"persisted":true}"#);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let (_, history_before) = client.request("GET", "/projects/p/history", None).unwrap();
    let (_, status_before) = client.request("GET", "/projects/p", None).unwrap();
    drop(client);
    handle.stop();
    join.join().unwrap();

    // The snapshots the racing persists left behind reboot to the same
    // state.
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (_, history_after) = client.request("GET", "/projects/p/history", None).unwrap();
    let (_, status_after) = client.request("GET", "/projects/p", None).unwrap();
    assert_eq!(history_after, history_before);
    assert_eq!(status_after, status_before);
    drop(client);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn cache_stats_reports_per_cache_counters() {
    // A script no other test registers, so its plan fingerprint is
    // guaranteed cold in the process-wide PlanCache when this test runs.
    const UNIQUE_SCRIPT: &str = "ml:\n\
        \x20 - condition  : n > 0.61 +/- 0.21\n\
        \x20 - reliability: 0.991\n\
        \x20 - mode       : fp-free\n\
        \x20 - adaptivity : full\n\
        \x20 - steps      : 5\n";
    let dir = temp_dir("cache-stats");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);

    let stats_of = |client: &mut Client, which: &str| -> (u64, u64, u64) {
        let (status, stats) = client.request("GET", "/cache/stats", None).unwrap();
        assert_eq!(status, 200);
        let cache = stats
            .get(which)
            .unwrap_or_else(|| panic!("/cache/stats must report a `{which}` section: {stats}"));
        let field = |name: &str| cache.get(name).and_then(Value::as_u64).unwrap();
        (field("hits"), field("misses"), field("entries"))
    };

    let (_, plan_misses_0, _) = stats_of(&mut client, "plan");
    let (status, reg_a) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("pc-a", UNIQUE_SCRIPT)),
        )
        .unwrap();
    assert_eq!(status, 201, "{reg_a}");
    let (plan_hits_1, plan_misses_1, plan_entries_1) = stats_of(&mut client, "plan");
    assert!(
        plan_misses_1 > plan_misses_0,
        "first registration of a fresh script must miss the plan cache"
    );
    assert!(plan_entries_1 >= 1);

    // Same script, different project: the whole plan search is served
    // from the cache, and the estimate is identical.
    let (status, reg_b) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("pc-b", UNIQUE_SCRIPT)),
        )
        .unwrap();
    assert_eq!(status, 201, "{reg_b}");
    let (plan_hits_2, _, _) = stats_of(&mut client, "plan");
    assert!(
        plan_hits_2 > plan_hits_1,
        "re-registering a known script must hit the plan cache"
    );
    assert_eq!(
        reg_a.get("estimate").map(Value::encode),
        reg_b.get("estimate").map(Value::encode),
        "cached and fresh plans must produce identical estimates"
    );

    // The bounds section tracks the leaf inversions independently.
    let (_, _, bounds_entries) = stats_of(&mut client, "bounds");
    assert!(bounds_entries >= 1, "registration fills the bounds cache");

    drop(client);
    handle.stop();
    join.join().unwrap();

    // A restarted process re-derives the same plan for the same script.
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, reg_c) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("pc-c", UNIQUE_SCRIPT)),
        )
        .unwrap();
    assert_eq!(status, 201);
    assert_eq!(
        reg_c.get("estimate").map(Value::encode),
        reg_a.get("estimate").map(Value::encode),
    );
    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// Deterministic prediction vectors over an all-zeros truth: correct on
/// the first `correct` items, wrong (class 1) after.
fn preds(size: usize, correct: usize) -> Vec<u32> {
    (0..size).map(|i| u32::from(i >= correct)).collect()
}

fn predictions_register_body(name: &str, script: &str, size: usize, labeling: &str) -> Value {
    Value::object([
        ("name", Value::from(name)),
        ("script", Value::from(script)),
        (
            "testset",
            Value::object([
                (
                    "labels",
                    Value::from(easeml_serve::json::encode_u32_vec(&vec![0u32; size])),
                ),
                ("labeling", Value::from(labeling)),
                ("classes", Value::from(2u64)),
            ]),
        ),
    ])
}

fn predictions_body(id: &str, size: usize, old_correct: usize, new_correct: usize) -> Value {
    Value::object([
        ("commit_id", Value::from(id)),
        (
            "old",
            Value::from(easeml_serve::json::encode_u32_vec(&preds(
                size,
                old_correct,
            ))),
        ),
        (
            "new",
            Value::from(easeml_serve::json::encode_u32_vec(&preds(
                size,
                new_correct,
            ))),
        ),
    ])
}

const DIFF_SCRIPT: &str = "ml:\n\
    \x20 - script     : ./test_model.py\n\
    \x20 - condition  : n - o > 0.0 +/- 0.2\n\
    \x20 - reliability: 0.99\n\
    \x20 - mode       : fp-free\n\
    \x20 - adaptivity : full\n\
    \x20 - steps      : 3\n";

#[test]
fn predictions_gate_end_to_end_with_restart() {
    let dir = temp_dir("pred-e2e");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);

    // Register with a lazily-labelled server-side testset.
    let (status, reg) = client
        .request(
            "POST",
            "/projects",
            Some(&predictions_register_body(
                "vision",
                DIFF_SCRIPT,
                100,
                "lazy",
            )),
        )
        .unwrap();
    assert_eq!(status, 201, "{reg}");
    let testset = reg.get("testset").expect("registration reports testset");
    assert_eq!(testset.get("size").and_then(Value::as_u64), Some(100));
    assert_eq!(testset.get("labeled").and_then(Value::as_u64), Some(0));
    assert_eq!(
        testset.get("labeling").and_then(Value::as_str),
        Some("lazy")
    );

    // Pass: n̂ − ô = 0.4; the server measured it, spending only the 40
    // disagreement labels.
    let (status, r1) = client
        .request(
            "POST",
            "/projects/vision/commits/predictions",
            Some(&predictions_body("c1", 100, 50, 90)),
        )
        .unwrap();
    assert_eq!(status, 200, "{r1}");
    assert_eq!(r1.get("passed").and_then(Value::as_bool), Some(true));
    assert_eq!(r1.get("labels").and_then(Value::as_u64), Some(40));
    let m = r1.get("measurement").expect("measurement section");
    assert_eq!(m.get("samples").and_then(Value::as_u64), Some(100));
    // Unlabelled (agreeing) items credit both models, so the per-model
    // counts sit 60 above their labelled parts — their *difference*
    // (40/100 = the exact n̂ − ô) is what the condition reads.
    assert_eq!(m.get("new_correct").and_then(Value::as_u64), Some(100));
    assert_eq!(m.get("old_correct").and_then(Value::as_u64), Some(60));
    assert_eq!(m.get("changed").and_then(Value::as_u64), Some(40));
    assert_eq!(m.get("labels_spent").and_then(Value::as_u64), Some(40));
    assert_eq!(m.get("labeled_total").and_then(Value::as_u64), Some(40));

    // Redelivery (same vectors) returns the recorded receipt: no budget
    // step, no fresh labels.
    let (status, again) = client
        .request(
            "POST",
            "/projects/vision/commits/predictions",
            Some(&predictions_body("c1", 100, 50, 90)),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(again.get("step"), r1.get("step"));
    let (_, budget) = client
        .request("GET", "/projects/vision/budget", None)
        .unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(1)
    );

    // Counts↔predictions equivalence over HTTP: a twin project gating
    // the server-derived counts produces a byte-identical receipt.
    let (status, _) = client
        .request(
            "POST",
            "/projects",
            Some(&register_body("vision-counts", DIFF_SCRIPT)),
        )
        .unwrap();
    assert_eq!(status, 201);
    let counts_body = Value::object([
        ("commit_id", Value::from("c1")),
        ("samples", Value::from(100u64)),
        ("new_correct", m.get("new_correct").unwrap().clone()),
        ("old_correct", m.get("old_correct").unwrap().clone()),
        ("changed", m.get("changed").unwrap().clone()),
        ("labels", m.get("labels_spent").unwrap().clone()),
    ]);
    let (status, twin) = client
        .request(
            "POST",
            "/projects/vision-counts/commits",
            Some(&counts_body),
        )
        .unwrap();
    assert_eq!(status, 200);
    let strip_measurement = |v: &Value| -> Value {
        let Value::Object(fields) = v.clone() else {
            panic!("not an object")
        };
        Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "measurement")
                .collect(),
        )
    };
    assert_eq!(
        twin.encode(),
        strip_measurement(&r1).encode(),
        "counts and predictions routes must produce identical receipts"
    );

    // Unknown → fail, then exhaust the budget; a fresh era needs new
    // testset *data* for a server-measured project.
    let (_, r2) = client
        .request(
            "POST",
            "/projects/vision/commits/predictions",
            Some(&predictions_body("c2", 100, 50, 55)),
        )
        .unwrap();
    assert_eq!(r2.get("outcome").and_then(Value::as_str), Some("Unknown"));
    let (_, r3) = client
        .request(
            "POST",
            "/projects/vision/commits/predictions",
            Some(&predictions_body("c3", 100, 50, 40)),
        )
        .unwrap();
    assert_eq!(
        r3.get("alarm").and_then(Value::as_str),
        Some("budget_exhausted")
    );
    let (status, refused) = client
        .request("POST", "/projects/vision/testset", None)
        .unwrap();
    assert_eq!(status, 409, "{refused}");
    let fresh_body = Value::object([(
        "testset",
        Value::object([
            (
                "labels",
                Value::from(easeml_serve::json::encode_u32_vec(&vec![0u32; 120])),
            ),
            ("labeling", Value::from("lazy")),
            ("classes", Value::from(2u64)),
        ]),
    )]);
    let (status, fresh) = client
        .request("POST", "/projects/vision/testset", Some(&fresh_body))
        .unwrap();
    assert_eq!(status, 200, "{fresh}");
    assert_eq!(fresh.get("era").and_then(Value::as_u64), Some(1));
    assert_eq!(
        fresh
            .get("testset")
            .and_then(|t| t.get("size"))
            .and_then(Value::as_u64),
        Some(120)
    );
    let (_, r4) = client
        .request(
            "POST",
            "/projects/vision/commits/predictions",
            Some(&predictions_body("c4", 120, 60, 110)),
        )
        .unwrap();
    assert_eq!(r4.get("era").and_then(Value::as_u64), Some(1));

    let (_, history_before) = client
        .request("GET", "/projects/vision/history", None)
        .unwrap();
    let (_, status_before) = client.request("GET", "/projects/vision", None).unwrap();

    // Restart: replay re-measures the stored vectors to identical state.
    drop(client);
    handle.stop();
    join.join().unwrap();
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (_, history_after) = client
        .request("GET", "/projects/vision/history", None)
        .unwrap();
    assert_eq!(history_after, history_before);
    let (_, status_after) = client.request("GET", "/projects/vision", None).unwrap();
    assert_eq!(status_after, status_before);

    drop(client);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn predictions_upload_validation_over_http() {
    let dir = temp_dir("pred-validation");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let (status, _) = client
        .request(
            "POST",
            "/projects",
            Some(&predictions_register_body("p", DIFF_SCRIPT, 50, "lazy")),
        )
        .unwrap();
    assert_eq!(status, 201);

    // Wrong vector length vs the registered testset size.
    let (status, err) = client
        .request(
            "POST",
            "/projects/p/commits/predictions",
            Some(&predictions_body("c", 49, 20, 30)),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("49"),
        "{err}"
    );
    // Prediction label out of the registered class range.
    let mut bad = preds(50, 25);
    bad[7] = 5;
    let body = Value::object([
        ("commit_id", Value::from("c")),
        (
            "old",
            Value::from(easeml_serve::json::encode_u32_vec(&preds(50, 25))),
        ),
        ("new", Value::from(easeml_serve::json::encode_u32_vec(&bad))),
    ]);
    let (status, err) = client
        .request("POST", "/projects/p/commits/predictions", Some(&body))
        .unwrap();
    assert_eq!(status, 400);
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("class range"),
        "{err}"
    );
    // Registering a testset with labels out of class range is refused.
    let mut reg = predictions_register_body("q", DIFF_SCRIPT, 10, "full");
    if let Value::Object(fields) = &mut reg {
        for (k, v) in fields.iter_mut() {
            if k == "testset" {
                *v = Value::object([
                    ("labels", Value::from("#055")),
                    ("classes", Value::from(2u64)),
                ]);
            }
        }
    }
    let (status, _) = client.request("POST", "/projects", Some(&reg)).unwrap();
    assert_eq!(status, 400);
    // Predictions against a counts-only project: conflict.
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("plain", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    let (status, err) = client
        .request(
            "POST",
            "/projects/plain/commits/predictions",
            Some(&predictions_body("c", 10, 5, 5)),
        )
        .unwrap();
    assert_eq!(status, 409, "{err}");
    // Converse trust guard: client counts against a server-measured
    // project are refused (fabricated counts must not bypass the
    // server's own scoring of the held-back testset).
    let (status, err) = client
        .request("POST", "/projects/p/commits", Some(&commit_body("c", 90)))
        .unwrap();
    assert_eq!(status, 409, "{err}");
    // Nothing was spent anywhere.
    let (_, budget) = client.request("GET", "/projects/p/budget", None).unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(0)
    );

    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// A testset's declared class count is capped: an F1 project over 80
/// items declaring `u32::MAX` classes is refused before anything reaches
/// disk, while the cap itself is accepted.
#[test]
fn testset_class_count_is_capped() {
    const F1_SCRIPT: &str = "ml:\n\
        \x20 - condition  : f1(n) > 0.6 +/- 0.2\n\
        \x20 - reliability: 0.99\n\
        \x20 - mode       : fp-free\n\
        \x20 - adaptivity : full\n\
        \x20 - steps      : 3\n";
    let dir = temp_dir("class-cap");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let body = |name: &str, classes: u64| {
        Value::object([
            ("name", Value::from(name)),
            ("script", Value::from(F1_SCRIPT)),
            (
                "testset",
                Value::object([
                    (
                        "labels",
                        Value::array((0..80u64).map(|i| Value::from(i % 2))),
                    ),
                    ("labeling", Value::from("full")),
                    ("classes", Value::from(classes)),
                ]),
            ),
        ])
    };
    let (status, err) = client
        .request(
            "POST",
            "/projects",
            Some(&body("huge", u64::from(u32::MAX))),
        )
        .unwrap();
    assert_eq!(status, 400, "{err}");
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("classes"),
        "{err}"
    );
    assert!(
        !dir.join("projects/huge").exists(),
        "refused project left a directory"
    );
    let (status, reg) = client
        .request("POST", "/projects", Some(&body("widest", 1 << 16)))
        .unwrap();
    assert_eq!(status, 201, "{reg}");
    assert_eq!(
        reg.get("testset")
            .and_then(|t| t.get("classes"))
            .and_then(Value::as_u64),
        Some(1 << 16)
    );

    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// The same prediction vectors posted as a `#` string, a JSON array and
/// a CSV string leave byte-identical receipts, journal lines and
/// snapshots (which record each entry's `pred_xxh64` key): a `#` string is
/// journalled as received, the other two are encoded to exactly it. A
/// redelivery in another encoding dedups, and a malformed `#` string is
/// a 400 that journals nothing and spends no labels.
#[test]
fn predictions_wire_encodings_are_interchangeable() {
    const SIZE: usize = 130; // crosses two 64-item mask words
    let truth: Vec<u32> = (0..SIZE as u32).map(|i| (i * 7) % 4).collect();
    let old: Vec<u32> = truth
        .iter()
        .enumerate()
        .map(|(i, &t)| if i % 5 == 0 { (t + 1) % 4 } else { t })
        .collect();
    let new_for = |shift: usize| -> Vec<u32> {
        old.iter()
            .enumerate()
            .map(|(i, &o)| {
                if (i + shift).is_multiple_of(3) {
                    (o + 2) % 4
                } else {
                    o
                }
            })
            .collect()
    };
    type Encode = fn(&[u32]) -> Value;
    let encodings: [(&str, Encode); 3] = [
        ("hash", |v| {
            Value::from(easeml_serve::json::encode_u32_vec(v))
        }),
        ("array", |v| {
            Value::array(v.iter().map(|&x| Value::from(u64::from(x))))
        }),
        ("csv", |v| {
            let items: Vec<String> = v.iter().map(u32::to_string).collect();
            Value::from(items.join(","))
        }),
    ];
    let body = |id: &str, encode: Encode, new: &[u32]| {
        Value::object([
            ("commit_id", Value::from(id)),
            ("old", encode(&old)),
            ("new", encode(new)),
        ])
    };

    let dir = temp_dir("pred-encodings");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr);
    let journal = |name: &str| std::fs::read(dir.join("projects").join(name).join("journal.0.log"));
    let mut receipts: Vec<Vec<String>> = Vec::new();
    for (name, encode) in encodings {
        let register = Value::object([
            ("name", Value::from(name)),
            ("script", Value::from(DIFF_SCRIPT)),
            (
                "testset",
                Value::object([
                    (
                        "labels",
                        Value::from(easeml_serve::json::encode_u32_vec(&truth)),
                    ),
                    ("labeling", Value::from("lazy")),
                    ("classes", Value::from(4u64)),
                ]),
            ),
        ]);
        let (status, reg) = client
            .request("POST", "/projects", Some(&register))
            .unwrap();
        assert_eq!(status, 201, "{reg}");
        let path = format!("/projects/{name}/commits/predictions");
        let mut mine = Vec::new();
        for (id, shift) in [("c1", 0), ("c2", 1)] {
            let (status, receipt) = client
                .request("POST", &path, Some(&body(id, encode, &new_for(shift))))
                .unwrap();
            assert_eq!(status, 200, "{name} {id}: {receipt}");
            mine.push(receipt.encode());
        }
        receipts.push(mine);
    }
    assert_eq!(
        receipts[0], receipts[1],
        "array receipts differ from `#` ones"
    );
    assert_eq!(
        receipts[0], receipts[2],
        "CSV receipts differ from `#` ones"
    );
    let labels_spent = |receipt: &str| {
        Value::parse(receipt)
            .unwrap()
            .get("labels")
            .and_then(Value::as_u64)
    };
    assert!(
        labels_spent(&receipts[0][0]).unwrap() > 0,
        "the pool is lazy"
    );

    // Redelivering c2 in the other two encodings dedups: the recorded
    // receipt, no second step, no labels, no journal bytes.
    let before = journal("hash").unwrap();
    for (_, encode) in &encodings[1..] {
        let (status, again) = client
            .request(
                "POST",
                "/projects/hash/commits/predictions",
                Some(&body("c2", *encode, &new_for(1))),
            )
            .unwrap();
        assert_eq!(status, 200, "{again}");
        assert_eq!(again.encode(), receipts[0][1]);
    }
    // A `#` string with a byte outside the alphabet, or with a class
    // past the testset's four, is refused before anything is spent.
    let wire = easeml_serve::json::encode_u32_vec(&new_for(2));
    for bad in [wire.replacen('1', "!", 1), wire.replacen('1', "9", 1)] {
        let bad_body = Value::object([
            ("commit_id", Value::from("c3")),
            ("old", Value::from(easeml_serve::json::encode_u32_vec(&old))),
            ("new", Value::from(bad)),
        ]);
        let (status, err) = client
            .request(
                "POST",
                "/projects/hash/commits/predictions",
                Some(&bad_body),
            )
            .unwrap();
        assert_eq!(status, 400, "{err}");
    }
    assert_eq!(journal("hash").unwrap(), before, "nothing was journalled");
    let (_, status) = client.request("GET", "/projects/hash", None).unwrap();
    let (_, twin) = client.request("GET", "/projects/csv", None).unwrap();
    for key in ["testset", "budget", "labels_total"] {
        assert!(status.get(key).is_some(), "{status}");
        assert_eq!(status.get(key), twin.get(key), "{key}: nothing spent");
    }

    drop(client);
    // The journals as written, read before the shutdown snapshot seals
    // them; that snapshot records every entry's `pred_xxh64` key.
    let journals = ["hash", "array", "csv"].map(|name| journal(name).unwrap());
    assert_eq!(journals[1], journals[0], "array journal");
    assert_eq!(journals[2], journals[0], "csv journal");
    handle.stop();
    join.join().unwrap();
    let read =
        |name: &str| std::fs::read(dir.join("projects").join(name).join("snapshot.json")).unwrap();
    assert_eq!(read("array"), read("hash"), "snapshot.json");
    assert_eq!(read("csv"), read("hash"), "snapshot.json");
    let snapshot =
        String::from_utf8(std::fs::read(dir.join("projects/hash/snapshot.json")).unwrap()).unwrap();
    assert!(snapshot.contains("\"pred_xxh64\": \""), "{snapshot}");
    assert!(!snapshot.contains("pred_digest"), "{snapshot}");
}

/// One commit sent as a `#` string, as a `#` string written entirely in
/// `\u` escapes, as a JSON array and as a CSV string: every encoding's
/// project answers byte-identical receipts and journals byte-identical
/// lines. A redelivery of the latest commit in another encoding answers
/// the recorded receipt and spends no budget step, label or journal
/// byte.
#[test]
fn predictions_commit_reads_the_same_in_every_encoding() {
    const SIZE: usize = 150;
    let truth: Vec<u32> = (0..SIZE as u32).map(|i| (i * 5) % 4).collect();
    let old: Vec<u32> = truth
        .iter()
        .enumerate()
        .map(|(i, &t)| if i % 4 == 0 { (t + 1) % 4 } else { t })
        .collect();
    let new: Vec<u32> = old
        .iter()
        .enumerate()
        .map(|(i, &o)| if i % 7 == 0 { (o + 3) % 4 } else { o })
        .collect();
    type Encode = fn(&[u32]) -> String;
    let encodings: [(&str, Encode); 4] = [
        ("hash", |v| {
            format!("\"{}\"", easeml_serve::json::encode_u32_vec(v))
        }),
        ("escaped", |v| {
            let wire = easeml_serve::json::encode_u32_vec(v);
            let escaped: String = wire
                .chars()
                .map(|c| format!("\\u{:04x}", c as u32))
                .collect();
            format!("\"{escaped}\"")
        }),
        ("array", |v| {
            format!(
                "[{}]",
                v.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
            )
        }),
        ("csv", |v| {
            format!(
                "\"{}\"",
                v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            )
        }),
    ];
    let body = |id: &str, encode: Encode, new: &[u32]| {
        format!(
            "{{\"commit_id\": \"{id}\", \"old\": {}, \"new\": {}}}",
            encode(&old),
            encode(new)
        )
    };
    let post = |addr: &str, name: &str, body: &str| {
        let path = format!("/projects/{name}/commits/predictions");
        let (status, response) = raw_round_trip(addr, "POST", &path, body);
        let receipt = response.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        assert_eq!(status, 200, "{name}: {receipt}");
        receipt
    };
    let shift = |v: &[u32]| -> Vec<u32> { v.iter().map(|&x| (x + 1) % 4).collect() };

    let dir = temp_dir("pred-every-encoding");
    let (addr, handle, join) = start(&dir, 2);
    let mut client = Client::new(addr.clone());
    let journal = |name: &str| std::fs::read(dir.join("projects").join(name).join("journal.0.log"));
    let mut receipts = Vec::new();
    for (name, encode) in encodings {
        let register = Value::object([
            ("name", Value::from(name)),
            ("script", Value::from(DIFF_SCRIPT)),
            (
                "testset",
                Value::object([
                    (
                        "labels",
                        Value::from(easeml_serve::json::encode_u32_vec(&truth)),
                    ),
                    ("labeling", Value::from("lazy")),
                    ("classes", Value::from(4u64)),
                ]),
            ),
        ]);
        let (status, reg) = client
            .request("POST", "/projects", Some(&register))
            .unwrap();
        assert_eq!(status, 201, "{reg}");
        receipts.push([
            post(&addr, name, &body("c1", encode, &new)),
            post(&addr, name, &body("c2", encode, &shift(&new))),
        ]);
    }
    for (i, (name, _)) in encodings.iter().enumerate().skip(1) {
        assert_eq!(receipts[i], receipts[0], "{name} receipts");
        assert_eq!(
            journal(name).unwrap(),
            journal("hash").unwrap(),
            "{name} journal"
        );
    }
    let labels = Value::parse(&receipts[0][0]).unwrap();
    assert!(
        labels.get("labels").and_then(Value::as_u64).unwrap() > 0,
        "{labels}"
    );

    let before = journal("hash").unwrap();
    let (_, budget) = client
        .request("GET", "/projects/hash/budget", None)
        .unwrap();
    for (_, encode) in &encodings[1..] {
        let again = post(&addr, "hash", &body("c2", *encode, &shift(&new)));
        assert_eq!(
            again, receipts[0][1],
            "redelivery answers the recorded receipt"
        );
    }
    let (_, after) = client
        .request("GET", "/projects/hash/budget", None)
        .unwrap();
    assert_eq!(after, budget, "no budget step, no label");
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(2)
    );
    assert_eq!(journal("hash").unwrap(), before, "nothing journalled");
    drop(client);
    handle.stop();
    join.join().unwrap();
}

/// Drive a deterministic predictions-mode schedule against a server of
/// the given width; returns each project's journal bytes, read before
/// the shutdown snapshot seals them.
fn run_predictions_schedule(threads: usize, tag: &str) -> Vec<(String, Vec<u8>)> {
    let dir = temp_dir(tag);
    let (addr, handle, join) = start(&dir, threads);
    let script = DIFF_SCRIPT.replace("steps      : 3", "steps      : 40");
    const SIZE: usize = 100;

    let clients: Vec<_> = (0..3)
        .map(|p| {
            let addr = addr.clone();
            let script = script.clone();
            std::thread::spawn(move || {
                let name = format!("pred-{p}");
                let mut client = Client::new(addr);
                let (status, _) = client
                    .request(
                        "POST",
                        "/projects",
                        Some(&predictions_register_body(&name, &script, SIZE, "lazy")),
                    )
                    .unwrap();
                assert_eq!(status, 201);
                for i in 0..24u64 {
                    let old_correct = (splitmix64(p, i) % SIZE as u64) as usize;
                    let new_correct = (splitmix64(p + 100, i) % SIZE as u64) as usize;
                    let (status, body) = client
                        .request(
                            "POST",
                            &format!("/projects/{name}/commits/predictions"),
                            Some(&predictions_body(
                                &format!("c{i}"),
                                SIZE,
                                old_correct,
                                new_correct,
                            )),
                        )
                        .unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let journals = (0..3)
        .map(|p| {
            let name = format!("pred-{p}");
            let journal = dir.join("projects").join(&name).join("journal.0.log");
            (name, std::fs::read(journal).unwrap())
        })
        .collect();
    handle.stop();
    join.join().unwrap();
    journals
}

#[test]
fn predictions_journal_bytes_are_thread_count_invariant() {
    // The determinism contract extends to server-side measurement: for a
    // fixed per-project schedule of prediction uploads, the journal
    // (vectors + derived counts + outcomes) is byte-identical whether
    // the server runs 1 worker or 4.
    let t1 = run_predictions_schedule(1, "pred-sched-t1");
    let t4 = run_predictions_schedule(4, "pred-sched-t4");
    assert_eq!(t1.len(), t4.len());
    for ((name1, bytes1), (name4, bytes4)) in t1.iter().zip(t4.iter()) {
        assert_eq!(name1, name4);
        assert!(
            bytes1 == bytes4,
            "journal of {name1} differs between server widths"
        );
        assert!(!bytes1.is_empty());
    }
}

#[test]
fn journal_bytes_are_thread_count_invariant() {
    // The determinism contract: for a fixed per-project client schedule,
    // the journal a project ends up with is byte-identical whether the
    // server multiplexes connections over 1 worker or 4.
    let t1 = run_schedule(1, "sched-t1");
    let t4 = run_schedule(4, "sched-t4");
    assert_eq!(t1.len(), t4.len());
    for ((name1, bytes1), (name4, bytes4)) in t1.iter().zip(t4.iter()) {
        assert_eq!(name1, name4);
        assert!(
            bytes1 == bytes4,
            "journal of {name1} differs between server widths"
        );
        assert!(!bytes1.is_empty());
    }
}

#[test]
fn five_hundred_twelve_concurrent_keep_alive_clients_complete() {
    // ≥512 keep-alive connections open at once, all of them live through
    // a synchronized burst of commit submissions. 16 OS threads each own
    // 32 connections; a barrier guarantees every connection exists
    // before any thread starts its burst.
    const THREADS: usize = 16;
    const PER_THREAD: usize = 32; // 512 connections total
    const PROJECTS: usize = 8; // 512 commits / 8 projects = 64 steps each

    let dir = temp_dir("smoke-512");
    let (addr, handle, join) = start(&dir, 4);
    let script = SCRIPT.replace("steps      : 3", "steps      : 64");
    let mut admin = Client::new(addr.clone());
    for p in 0..PROJECTS {
        let (status, body) = admin
            .request(
                "POST",
                "/projects",
                Some(&register_body(&format!("swarm-{p}"), &script)),
            )
            .unwrap();
        assert_eq!(status, 201, "{body}");
    }

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let addr = addr.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Phase 1: open all connections (healthz forces the
                // connect + a full request/response on each).
                let mut clients: Vec<Client> =
                    (0..PER_THREAD).map(|_| Client::new(addr.clone())).collect();
                for client in &mut clients {
                    let (status, _) = client.request("GET", "/healthz", None).unwrap();
                    assert_eq!(status, 200);
                }
                barrier.wait();
                // Phase 2: with all 512 connections up, every client
                // submits one commit on its own keep-alive connection.
                for (i, client) in clients.iter_mut().enumerate() {
                    let global = w * PER_THREAD + i;
                    let project = global % PROJECTS;
                    let (status, body) = client
                        .request(
                            "POST",
                            &format!("/projects/swarm-{project}/commits"),
                            Some(&commit_body(&format!("c-{global}"), 90)),
                        )
                        .unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // Every project's history is exact: steps 1..=64, all commit ids
    // present exactly once.
    for p in 0..PROJECTS {
        let (_, history) = admin
            .request("GET", &format!("/projects/swarm-{p}/history"), None)
            .unwrap();
        let entries = history.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 64, "project swarm-{p}");
        let mut steps: Vec<u64> = entries
            .iter()
            .map(|e| e.get("step").and_then(Value::as_u64).unwrap())
            .collect();
        steps.sort_unstable();
        assert_eq!(steps, (1..=64).collect::<Vec<u64>>());
        let mut ids: Vec<&str> = entries
            .iter()
            .map(|e| e.get("id").and_then(Value::as_str).unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64, "duplicate or lost commit in swarm-{p}");
    }

    drop(admin);
    handle.stop();
    join.join().unwrap();
}

#[test]
fn stop_with_hundred_idle_clients_completes_quickly() {
    // A graceful stop must not wait out idle keep-alive timeouts: the
    // drain closes idle connections immediately. 100 connected-but-idle
    // clients, stop() to fully-joined in well under 100 ms.
    let dir = temp_dir("fast-stop");
    let (addr, handle, join) = start_with(ServeConfig {
        threads: 2,
        idle_timeout_ms: 60_000,
        ..ServeConfig::new("127.0.0.1:0", &dir)
    });

    let mut idle: Vec<Client> = (0..100).map(|_| Client::new(addr.clone())).collect();
    for client in &mut idle {
        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }

    let t = std::time::Instant::now();
    handle.stop();
    join.join().unwrap();
    let elapsed = t.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "stop with 100 idle clients took {elapsed:?}"
    );
}

#[test]
fn idle_connections_are_closed_after_idle_timeout() {
    use std::io::{Read, Write};
    let dir = temp_dir("idle-close");
    let (addr, handle, join) = start_with(ServeConfig {
        threads: 1,
        idle_timeout_ms: 100,
        ..ServeConfig::new("127.0.0.1:0", &dir)
    });

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap();
    assert!(n > 0, "healthz response expected");

    // Sit idle past the timeout: the server closes the connection (a
    // clean EOF, not a 400 — nothing of a request has arrived).
    let t = std::time::Instant::now();
    let mut total = 0;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) => panic!("expected EOF after idle timeout, got {e}"),
        }
    }
    assert_eq!(total, 0, "no bytes expected after the healthz response");
    assert!(
        t.elapsed() < std::time::Duration::from_secs(3),
        "idle close took {:?}",
        t.elapsed()
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn slow_header_trickle_does_not_stall_fast_clients() {
    use std::io::{Read, Write};
    // Slowloris: a client feeding its request one byte at a time holds
    // only its own connection — the event loop keeps serving everyone
    // else, and the request-timeout wheel eventually 400s the trickler.
    let dir = temp_dir("slowloris");
    let (addr, handle, join) = start_with(ServeConfig {
        threads: 2,
        request_timeout_ms: 300,
        ..ServeConfig::new("127.0.0.1:0", &dir)
    });

    let tricklers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = std::net::TcpStream::connect(&addr).unwrap();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
                let request = b"GET /healthz HTTP/1.1\r\n\r\n";
                let mut response = Vec::new();
                'trickle: for byte in request {
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        break 'trickle; // server already gave up on us
                    }
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                let _ = stream.read_to_end(&mut response);
                response
            })
        })
        .collect();

    // While the tricklers dribble (~1 s each at 40 ms/byte against a
    // 300 ms request budget), a normal client gets normal service.
    let mut fast = Client::new(addr.clone());
    let t = std::time::Instant::now();
    for _ in 0..50 {
        let (status, _) = fast.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "50 fast requests took {elapsed:?} behind 8 tricklers"
    );

    for trickler in tricklers {
        let response = trickler.join().unwrap();
        // The trickler was cut off mid-request: either a 400 with the
        // timeout message or (if the reset won the race) nothing.
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with("HTTP/1.1 400"),
                "unexpected trickler response: {text}"
            );
        }
    }

    handle.stop();
    join.join().unwrap();
}

/// Resize the socket's receive buffer (on Linux; a no-op elsewhere —
/// the test still checks behavior, just with more kernel slack). A tiny
/// buffer makes the peer's kernel run out of room after a few megabytes
/// in flight; restoring a large one lets the transfer finish fast.
fn set_rcvbuf(stream: &std::net::TcpStream, bytes: i32) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                fd: std::ffi::c_int,
                level: std::ffi::c_int,
                name: std::ffi::c_int,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> std::ffi::c_int;
        }
        const SOL_SOCKET: std::ffi::c_int = 1;
        const SO_RCVBUF: std::ffi::c_int = 8;
        let val: std::ffi::c_int = bytes;
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                std::ptr::addr_of!(val).cast(),
                std::mem::size_of::<std::ffi::c_int>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (stream, bytes);
}

/// Read exactly one HTTP/1.1 response off `stream`, returning
/// (status, body). Content-length framing only — which is all the
/// server emits.
fn read_one_response(stream: &mut std::net::TcpStream, scratch: &mut Vec<u8>) -> (u16, Vec<u8>) {
    use std::io::Read;
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("response read");
        assert!(n > 0, "EOF mid-response");
        scratch.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(scratch[..head_end].to_vec()).expect("ascii head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    scratch.drain(..head_end);
    while scratch.len() < content_length {
        let mut chunk = [0u8; 16384];
        let n = stream.read(&mut chunk).expect("body read");
        assert!(n > 0, "EOF mid-body");
        scratch.extend_from_slice(&chunk[..n]);
    }
    let mut body: Vec<u8> = scratch.split_off(content_length);
    std::mem::swap(&mut body, scratch);
    (status, body)
}

#[test]
fn slow_reader_stalls_only_itself_and_loses_no_bytes() {
    use std::io::Write;
    // One client pipelines hundreds of history requests and then drains
    // the responses slowly through a shrunken receive buffer. The total
    // response volume (≥ 8 MiB) far exceeds what the kernel will buffer
    // toward a non-reading peer (~4 MiB here), so the server is forced
    // through its partial-write path: the connection parks in `Writing`
    // on writability events while everyone else gets normal service.
    let dir = temp_dir("slow-reader");
    let (addr, handle, join) = start(&dir, 2);
    let script = SCRIPT.replace("steps      : 3", "steps      : 64");
    let mut admin = Client::new(addr.clone());
    let (status, _) = admin
        .request("POST", "/projects", Some(&register_body("bulk", &script)))
        .unwrap();
    assert_eq!(status, 201);
    for i in 0..64 {
        let (status, _) = admin
            .request(
                "POST",
                "/projects/bulk/commits",
                Some(&commit_body(&format!("c{i}"), 90)),
            )
            .unwrap();
        assert_eq!(status, 200);
    }
    let (_, reference) = admin
        .request("GET", "/projects/bulk/history", None)
        .unwrap();
    let reference_body = reference.to_string();

    // Enough pipelined copies to overflow kernel buffering ~3x over.
    // 64 KiB caps what the kernel will buffer toward a non-reading peer
    // at ~4 MiB (measured) while still streaming at full speed once the
    // reader drains — a smaller buffer collapses the TCP window to
    // delayed-ACK pace for the rest of the connection.
    let pipelined = (12 << 20) / reference_body.len() + 1;
    let mut slow = std::net::TcpStream::connect(&addr).unwrap();
    set_rcvbuf(&slow, 64 << 10);
    slow.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for _ in 0..pipelined {
        burst.extend_from_slice(b"GET /projects/bulk/history HTTP/1.1\r\n\r\n");
    }
    slow.write_all(&burst).unwrap();

    // Sit wedged: the server fills the kernel buffers (~4 MiB) and then
    // parks the connection in `Writing`, waiting on writability.
    std::thread::sleep(std::time::Duration::from_millis(500));

    // While the slow reader dawdles, a fast client gets fast answers.
    let fast = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::new(addr);
            let t = std::time::Instant::now();
            for _ in 0..100 {
                let (status, _) = client
                    .request("GET", "/projects/bulk/history", None)
                    .unwrap();
                assert_eq!(status, 200);
            }
            t.elapsed()
        })
    };

    // Drain and verify every byte of every response.
    let mut scratch = Vec::new();
    for i in 0..pipelined {
        if i % 100 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let (status, body) = read_one_response(&mut slow, &mut scratch);
        assert_eq!(status, 200, "pipelined response {i}");
        assert_eq!(
            body.len(),
            reference_body.len(),
            "pipelined response {i} truncated or padded"
        );
        assert_eq!(
            String::from_utf8_lossy(&body),
            reference_body,
            "pipelined response {i} corrupted"
        );
    }

    let fast_elapsed = fast.join().unwrap();
    assert!(
        fast_elapsed < std::time::Duration::from_secs(5),
        "100 fast requests took {fast_elapsed:?} behind a wedged writer"
    );

    drop(slow);
    drop(admin);
    handle.stop();
    join.join().unwrap();
}

// ---------------------------------------------------------------------
// Robustness: liveness/readiness, degraded mode, overload shedding
// ---------------------------------------------------------------------

/// A registration request that is genuinely *heavy* on the pool thread:
/// a predictions-mode project with a large server-side testset, so the
/// handler decodes, validates, digests, and journals ~a megabyte per
/// request. The admission gate exists to protect exactly this class of
/// work.
const HEAVY_TESTSET: usize = 400_000;

fn heavy_register_body(name: &str) -> Value {
    predictions_register_body(name, DIFF_SCRIPT, HEAVY_TESTSET, "lazy")
}

/// One raw HTTP round trip with `connection: close`, returning the
/// status and the full response text (the `Client` hides headers; the
/// shed test must see `retry-after`).
fn raw_round_trip(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, text)
}

/// `/healthz` readiness plus the degraded-mode contract, driven over
/// real HTTP against a server running on an injected fault filesystem:
/// persistent journal-append failure trips sticky read-only mode that
/// sheds writes with 503 (no `Retry-After` — the condition is not
/// transient) while reads and `/healthz` keep answering.
#[test]
fn persistent_journal_failure_degrades_to_read_only_over_http() {
    use easeml_serve::vfs::{FaultPlan, FaultVfs, Vfs};
    use std::sync::Arc;

    let fvfs = FaultVfs::new(std::path::Path::new("/degraded-http"), FaultPlan::new());
    let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
    let (addr, _handle, join) = start_with(ServeConfig {
        threads: 2,
        vfs: Some(vfs),
        ..ServeConfig::new("127.0.0.1:0", "/degraded-http")
    });
    let mut client = Client::with_policy(addr.clone(), easeml_serve::RetryPolicy::none());

    // Healthy liveness+readiness report.
    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
    assert_eq!(
        health.get("read_only").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(health.get("shed_total").and_then(Value::as_u64), Some(0));
    assert!(health.get("max_inflight").and_then(Value::as_u64).unwrap() >= 1);

    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("delta", SCRIPT)))
        .unwrap();
    assert_eq!(status, 201);
    let (status, _) = client
        .request(
            "POST",
            "/projects/delta/commits",
            Some(&commit_body("c1", 90)),
        )
        .unwrap();
    assert_eq!(status, 200);

    // The disk turns hostile: every write now fails (EIO).
    fvfs.set_deny_writes(true);
    for id in ["c2", "c3", "c4"] {
        let (status, body) = client
            .request(
                "POST",
                "/projects/delta/commits",
                Some(&commit_body(id, 80)),
            )
            .unwrap();
        assert_eq!(status, 500, "journal failure must fail the request: {body}");
    }

    // Three consecutive durable failures: the write path is now shed...
    let (status, body) = client
        .request(
            "POST",
            "/projects/delta/commits",
            Some(&commit_body("c5", 80)),
        )
        .unwrap();
    assert_eq!(status, 503, "{body}");
    assert_eq!(
        body.get("reason").and_then(Value::as_str),
        Some("degraded_read_only"),
        "degraded 503 must carry a machine-readable reason: {body}"
    );
    assert!(
        body.get("error")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .contains("read-only"),
        "degraded 503 should say read-only: {body}"
    );
    // ...with no Retry-After: a dying disk is not a transient queue.
    let (status, text) = raw_round_trip(
        &addr,
        "POST",
        "/projects/delta/commits",
        &commit_body("c6", 80).encode(),
    );
    assert_eq!(status, 503);
    assert!(
        !text.to_ascii_lowercase().contains("retry-after"),
        "degraded shed must not advertise a retry window: {text}"
    );

    // Reads keep working: history still serves the one durable commit.
    let (status, history) = client
        .request("GET", "/projects/delta/history", None)
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        history
            .get("entries")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1),
        "{history}"
    );

    // /healthz reports the degradation (liveness stays 200 so probes
    // can distinguish sick from dead).
    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(false));
    let failures = health
        .get("journal_append_failures")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(failures >= 3);

    // /metrics reports the same degradation from the same counters:
    // the degraded gauge flips and the failure count matches /healthz.
    let (status, text) = raw_round_trip(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = text.split("\r\n\r\n").nth(1).expect("metrics body");
    let expo = easeml_serve::obs::expo::parse(exposition).expect("parseable exposition");
    assert_eq!(expo.value("easeml_degraded", &[]), Some(1.0));
    assert_eq!(
        expo.value("easeml_journal_append_failures_total", &[]),
        Some(failures as f64),
        "healthz and /metrics must report one failure counter"
    );

    // Sticky: the disk recovering does not silently resume writes (an
    // operator restarts after investigating).
    fvfs.set_deny_writes(false);
    let (status, _) = client
        .request(
            "POST",
            "/projects/delta/commits",
            Some(&commit_body("c7", 80)),
        )
        .unwrap();
    assert_eq!(status, 503, "read-only mode must be sticky");

    let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200);
    drop(client);
    join.join().unwrap();
}

/// Overload shedding and client backoff: with one admission slot, a
/// burst of cold registrations gets 503 + `retry-after: 1` for the
/// overflow, and retrying clients all converge to success.
#[test]
fn overload_sheds_with_retry_after_and_backoff_clients_converge() {
    use std::sync::{Arc, Barrier};

    let dir = temp_dir("shed");
    // threads: 2 so pool spawns are genuinely asynchronous (a width-1
    // pool runs spawns inline on the event thread, releasing the
    // admission slot before the next dispatch could ever contend).
    let (addr, _handle, join) = start_with(ServeConfig {
        threads: 2,
        max_inflight: 1,
        ..ServeConfig::new("127.0.0.1:0", &dir)
    });

    // Phase 1: six simultaneous cold registrations into one slot.
    let barrier = Arc::new(Barrier::new(6));
    let outcomes: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let body = heavy_register_body(&format!("flood-{i}"));
                    barrier.wait();
                    raw_round_trip(&addr, "POST", "/projects", &body.encode())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let created = outcomes.iter().filter(|(s, _)| *s == 201).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 503).count();
    assert!(created >= 1, "someone must win the slot: {outcomes:?}");
    assert!(
        shed >= 1,
        "a six-deep burst into one slot must shed: {outcomes:?}"
    );
    for (status, text) in &outcomes {
        if *status == 503 {
            assert!(
                text.contains("retry-after: 1\r\n"),
                "shed response must carry Retry-After: {text}"
            );
            assert!(
                text.contains("\"reason\":\"shed\""),
                "shed 503 must carry a machine-readable reason: {text}"
            );
        }
    }

    // Phase 2: the same burst shape, but through retrying clients —
    // every one must converge to 201 without manual pacing.
    let barrier = Arc::new(Barrier::new(4));
    let results: Vec<(u16, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let policy = easeml_serve::RetryPolicy {
                        attempts: 8,
                        seed: 0x5eed_0000 + i,
                        ..easeml_serve::RetryPolicy::default()
                    };
                    let mut client = Client::with_policy(addr, policy);
                    let body = heavy_register_body(&format!("conv-{i}"));
                    barrier.wait();
                    let (status, _) = client.request("POST", "/projects", Some(&body)).unwrap();
                    (status, client.retries())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, _) in &results {
        assert_eq!(
            *status, 201,
            "backoff client failed to converge: {results:?}"
        );
    }
    let total_retries: u64 = results.iter().map(|(_, r)| r).sum();
    assert!(
        total_retries >= 1,
        "four simultaneous cold registrations into one slot should retry at least once"
    );

    // The shed counter made it into /healthz, and /metrics reports the
    // same number (one registry counter feeds both).
    let mut client = Client::new(addr.clone());
    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let shed_total = health.get("shed_total").and_then(Value::as_u64).unwrap();
    assert!(shed_total >= shed as u64);
    let (status, text) = raw_round_trip(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = text.split("\r\n\r\n").nth(1).expect("metrics body");
    let expo = easeml_serve::obs::expo::parse(exposition).expect("parseable exposition");
    assert_eq!(
        expo.value("easeml_shed_total", &[]),
        Some(shed_total as f64),
        "healthz and /metrics must report one shed counter"
    );

    let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200);
    drop(client);
    join.join().unwrap();
}

/// The boot-recovery figures of an exposition: `easeml_boot_replay_ops_total`,
/// `easeml_boot_replay_seconds`, `easeml_boot_snapshot_bytes_total` and
/// `easeml_boot_journal_bytes_total`, in that order.
fn boot_replay(addr: &str) -> [f64; 4] {
    let (status, text) = raw_round_trip(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = text.split("\r\n\r\n").nth(1).expect("metrics body");
    let expo = easeml_serve::obs::expo::parse(exposition).expect("parseable exposition");
    [
        "easeml_boot_replay_ops_total",
        "easeml_boot_replay_seconds",
        "easeml_boot_snapshot_bytes_total",
        "easeml_boot_journal_bytes_total",
    ]
    .map(|name| expo.value(name, &[]).unwrap())
}

/// A server killed mid-run (its disk image taken before any shutdown
/// snapshot) reboots by replaying the journal ops past each project's
/// last snapshot, and `/metrics` says how many, and how many bytes: the
/// snapshot and exactly the live segment. After a graceful stop there
/// is nothing left to replay, and no journal byte left to read.
#[test]
fn boot_replay_metrics_count_the_ops_past_the_last_snapshot() {
    use easeml_serve::vfs::{MemVfs, Vfs};
    use std::sync::Arc;
    let data_dir = PathBuf::from("/boot-replay");
    let config = |disk: &MemVfs| ServeConfig {
        threads: 2,
        vfs: Some(Arc::new(disk.clone()) as Arc<dyn Vfs>),
        ..ServeConfig::new("127.0.0.1:0", &data_dir)
    };
    let disk = MemVfs::new();
    let (addr, handle, join) = start_with(config(&disk));
    let [ops, _, snapshot_bytes, journal_bytes] = boot_replay(&addr);
    assert_eq!(
        [ops, snapshot_bytes, journal_bytes],
        [0.0; 3],
        "a fresh data dir replays and reads nothing"
    );
    let mut client = Client::new(&addr);
    let script = SCRIPT.replace("steps      : 3", "steps      : 1000");
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", &script)))
        .unwrap();
    assert_eq!(status, 201);
    // The first cadence snapshot lands at op 64; the next is due only
    // once the journal past it outgrows it, well after op 100.
    for i in 0..100u64 {
        let (status, _) = client
            .request(
                "POST",
                "/projects/p/commits",
                Some(&commit_body(&format!("c{i}"), (i * 37 + 11) % 101)),
            )
            .unwrap();
        assert_eq!(status, 200);
    }
    let killed = disk.kill_view();
    drop(client);
    handle.stop();
    join.join().unwrap();

    let size = |file: &str| {
        let path = data_dir.join("projects/p").join(file);
        killed.file_bytes(&path).map(|bytes| bytes.len() as f64)
    };
    let (addr, handle, join) = start_with(config(&killed));
    let [ops, seconds, snapshot_bytes, journal_bytes] = boot_replay(&addr);
    assert_eq!(ops, 36.0, "ops 65..=100 lie past the op-64 snapshot");
    assert!(seconds > 0.0);
    assert_eq!(Some(snapshot_bytes), size("snapshot.json"));
    assert_eq!(Some(journal_bytes), size("journal.64.log"));
    assert_eq!(size("journal.0.log"), None, "the op-64 seal unlinked it");
    let (_, budget) = Client::new(&addr)
        .request("GET", "/projects/p/budget", None)
        .unwrap();
    assert_eq!(
        budget
            .get("budget")
            .and_then(|b| b.get("used"))
            .and_then(Value::as_u64),
        Some(100)
    );
    handle.stop();
    join.join().unwrap();

    let (addr, handle, join) = start_with(config(&killed));
    let [ops, _, snapshot_bytes, journal_bytes] = boot_replay(&addr);
    assert_eq!(ops, 0.0, "the shutdown snapshot covers all");
    assert_eq!(Some(snapshot_bytes), size("snapshot.json"));
    assert_eq!(
        journal_bytes, 0.0,
        "the shutdown snapshot sealed the journal"
    );
    assert_eq!(size("journal.64.log"), None);
    handle.stop();
    join.join().unwrap();
}

/// A [`MemVfs`] whose journal segments take `delay` to `sync_data`: a
/// response released before its group-commit round would reach the
/// client while the round still sleeps, with its journal bytes unsynced.
#[derive(Debug)]
struct SlowJournalSync {
    disk: easeml_serve::vfs::MemVfs,
    delay: std::time::Duration,
}

#[derive(Debug)]
struct SlowSyncFile {
    inner: Box<dyn easeml_serve::vfs::VfsFile>,
    delay: std::time::Duration,
}

impl easeml_serve::vfs::VfsFile for SlowSyncFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(buf)
    }
    fn sync_data(&self) -> std::io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync_data()
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

impl easeml_serve::vfs::Vfs for SlowJournalSync {
    fn create_dir_all(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.disk.create_dir_all(path)
    }
    fn read_to_string(&self, path: &std::path::Path) -> std::io::Result<String> {
        self.disk.read_to_string(path)
    }
    fn list_dir(&self, path: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
        self.disk.list_dir(path)
    }
    fn is_dir(&self, path: &std::path::Path) -> bool {
        self.disk.is_dir(path)
    }
    fn exists(&self, path: &std::path::Path) -> bool {
        self.disk.exists(path)
    }
    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.disk.remove_file(path)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        self.disk.rename(from, to)
    }
    fn create(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<Box<dyn easeml_serve::vfs::VfsFile>> {
        self.disk.create(path)
    }
    fn open_append(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<Box<dyn easeml_serve::vfs::VfsFile>> {
        Ok(Box::new(SlowSyncFile {
            inner: self.disk.open_append(path)?,
            delay: self.delay,
        }))
    }
    fn sync_dir(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.disk.sync_dir(path)
    }
}

/// A server over a fresh in-memory disk whose journal syncs take
/// `delay`; returns the disk with the server.
fn start_on_slow_journal(
    data_dir: &str,
    delay_ms: u64,
    durability: easeml_serve::Durability,
) -> (
    easeml_serve::vfs::MemVfs,
    String,
    std::thread::JoinHandle<()>,
) {
    let disk = easeml_serve::vfs::MemVfs::new();
    let vfs = SlowJournalSync {
        disk: disk.clone(),
        delay: std::time::Duration::from_millis(delay_ms),
    };
    let (addr, _handle, join) = start_with(ServeConfig {
        threads: 2,
        slow_request_ms: 0,
        durability,
        vfs: Some(std::sync::Arc::new(vfs)),
        ..ServeConfig::new("127.0.0.1:0", data_dir)
    });
    (disk, addr, join)
}

/// The raw bytes of one `POST /projects/{project}/commits` request.
fn raw_commit(project: &str, id: &str, new_correct: u64) -> Vec<u8> {
    let body = commit_body(id, new_correct).encode();
    format!(
        "POST /projects/{project}/commits HTTP/1.1\r\nhost: test\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Byte length of the first `lines` lines of `bytes`.
fn prefix_of_lines(bytes: &[u8], lines: usize) -> usize {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(lines - 1)
        .map_or(usize::MAX, |(at, _)| at + 1)
}

/// Pipelined commits do not strand behind the round that released the
/// commit before them: one `write` carries two, then eight, commits;
/// every response arrives, in order, and each only once the journal
/// bytes of its commit are synced.
#[test]
fn pipelined_commits_each_answer_after_their_own_sync() {
    use std::io::Write;
    let root = "/pipelined";
    let (disk, addr, join) = start_on_slow_journal(root, 20, easeml_serve::Durability::Group);
    let mut client = Client::new(addr.clone());
    let script = SCRIPT.replace("steps      : 3", "steps      : 16");
    let (status, _) = client
        .request("POST", "/projects", Some(&register_body("p", &script)))
        .unwrap();
    assert_eq!(status, 201);
    let segment = std::path::Path::new(root).join("projects/p/journal.0.log");
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut scratch = Vec::new();
    let mut done = 0;
    for burst in [2usize, 8] {
        let ids: Vec<String> = (done + 1..=done + burst).map(|i| format!("c{i}")).collect();
        let wire: Vec<u8> = ids
            .iter()
            .enumerate()
            .flat_map(|(i, id)| raw_commit("p", id, 40 + i as u64))
            .collect();
        stream.write_all(&wire).unwrap();
        for id in &ids {
            let (status, body) = read_one_response(&mut stream, &mut scratch);
            done += 1;
            let receipt = Value::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert_eq!(status, 200, "{receipt}");
            assert_eq!(
                receipt.get("commit_id").and_then(Value::as_str),
                Some(id.as_str())
            );
            assert_eq!(
                receipt.get("step").and_then(Value::as_u64),
                Some(done as u64)
            );
            let synced = disk.synced_len(&segment).unwrap();
            let written = disk.file_bytes(&segment).unwrap();
            assert!(
                synced >= prefix_of_lines(&written, done),
                "{id} answered before its journal line was synced \
                 ({synced} of {} bytes durable)",
                written.len()
            );
        }
    }
    assert!(scratch.is_empty(), "no stray response bytes");
    drop(stream);
    let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200);
    drop(client);
    join.join().unwrap();
}

/// A failed group-commit round, end to end: the commit whose journal
/// sync fails (its write succeeded) answers 500 `durable_write_failed`;
/// the project's journal is poisoned, so its next commit answers 503;
/// another project still commits.
#[test]
fn failed_round_answers_500_then_poisons_only_its_project() {
    use easeml_serve::vfs::{Fault, FaultKind, FaultPlan, FaultVfs, Vfs};
    use std::sync::Arc;

    let root = std::path::Path::new("/failed-round");
    // Returns the disk, the three commit answers and what the server's
    // run returned.
    type Run = (FaultVfs, Vec<(u16, Value)>, Result<(), String>);
    let drive = |plan: FaultPlan| -> Run {
        let fvfs = FaultVfs::new(root, plan);
        fvfs.start_recording();
        let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
        let server = Server::bind(&ServeConfig {
            threads: 2,
            vfs: Some(vfs),
            ..ServeConfig::new("127.0.0.1:0", root)
        })
        .expect("bind");
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        let mut client = Client::with_policy(addr, easeml_serve::RetryPolicy::none());
        let mut answers = Vec::new();
        for name in ["alpha", "beta"] {
            let (status, _) = client
                .request("POST", "/projects", Some(&register_body(name, SCRIPT)))
                .unwrap();
            assert_eq!(status, 201);
        }
        for (name, id) in [("alpha", "a1"), ("alpha", "a2"), ("beta", "b1")] {
            answers.push(
                client
                    .request(
                        "POST",
                        &format!("/projects/{name}/commits"),
                        Some(&commit_body(id, 90)),
                    )
                    .unwrap(),
            );
        }
        let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
        assert_eq!(status, 200);
        drop(client);
        let ran = join.join().unwrap();
        (fvfs, answers, ran)
    };

    // A fault-free run finds the address of alpha's first journal sync.
    let (clean, answers, ran) = drive(FaultPlan::new());
    assert!(answers.iter().all(|(status, _)| *status == 200));
    assert_eq!(ran, Ok(()));
    let log = clean.take_oplog();
    let is_journal = |path: &std::path::Path| {
        path.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("journal."))
    };
    let write = log
        .iter()
        .position(|op| op.scope == "alpha" && op.kind == "write" && is_journal(&op.path))
        .expect("alpha journals its commit");
    let sync = log[write..]
        .iter()
        .find(|op| op.scope == "alpha" && op.kind == "sync" && is_journal(&op.path))
        .expect("a round syncs alpha's journal");

    let plan = FaultPlan::new().at("alpha", sync.index, Fault::Fail(FaultKind::Eio));
    let (faulty, answers, ran) = drive(plan);
    assert!(!faulty.halted());
    let (status, body) = &answers[0];
    assert_eq!(*status, 500, "{body}");
    assert_eq!(
        body.get("reason").and_then(Value::as_str),
        Some("durable_write_failed"),
        "{body}"
    );
    let (status, body) = &answers[1];
    assert_eq!(*status, 503, "poisoned journal: {body}");
    assert!(
        body.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("poisoned")),
        "{body}"
    );
    let (status, body) = &answers[2];
    assert_eq!(*status, 200, "another project still commits: {body}");
    // The shutdown snapshot cannot seal the poisoned journal either.
    assert!(ran.is_err_and(|e| e.contains("poisoned")));
}

/// A graceful stop snapshots every project although one journal is
/// poisoned: the healthy project's journal is sealed, whether it comes
/// before or after the poisoned one, and the run still returns the
/// poisoned project's error.
#[test]
fn shutdown_snapshots_every_project_past_a_poisoned_one() {
    use easeml_serve::vfs::{Fault, FaultKind, FaultPlan, FaultVfs, Vfs};
    use std::sync::Arc;

    let root = std::path::Path::new("/poisoned-shutdown");
    let is_journal = |path: &std::path::Path| {
        path.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("journal."))
    };
    // Register both, commit once to each, stop; returns the disk and
    // what the server's run returned.
    let drive = |plan: FaultPlan, first: &str, second: &str| {
        let fvfs = FaultVfs::new(root, plan);
        fvfs.start_recording();
        let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
        let server = Server::bind(&ServeConfig {
            threads: 2,
            vfs: Some(vfs),
            ..ServeConfig::new("127.0.0.1:0", root)
        })
        .expect("bind");
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        let mut client = Client::with_policy(addr, easeml_serve::RetryPolicy::none());
        for name in [first, second] {
            let (status, _) = client
                .request("POST", "/projects", Some(&register_body(name, SCRIPT)))
                .unwrap();
            assert_eq!(status, 201);
        }
        for name in [first, second] {
            client
                .request(
                    "POST",
                    &format!("/projects/{name}/commits"),
                    Some(&commit_body("c1", 90)),
                )
                .unwrap();
        }
        let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
        assert_eq!(status, 200);
        drop(client);
        let ran = join.join().unwrap();
        (fvfs, ran)
    };
    for (poisoned, healthy) in [("alpha", "beta"), ("beta", "alpha")] {
        let (clean, ran) = drive(FaultPlan::new(), poisoned, healthy);
        assert_eq!(ran, Ok(()));
        let log = clean.take_oplog();
        let sync = log
            .iter()
            .find(|op| op.scope == poisoned && op.kind == "sync" && is_journal(&op.path))
            .expect("a round syncs the journal");
        let plan = FaultPlan::new().at(poisoned, sync.index, Fault::Fail(FaultKind::Eio));
        let (faulty, ran) = drive(plan, poisoned, healthy);
        assert!(
            ran.as_ref().is_err_and(|e| e.contains("poisoned")),
            "{poisoned} poisoned: {ran:?}"
        );
        let dir = root.join("projects").join(healthy);
        let files = faulty.list_dir(&dir).unwrap();
        assert!(
            !files.iter().any(|path| is_journal(path)),
            "{healthy}'s journal is sealed: {files:?}"
        );
        assert!(faulty.exists(&dir.join("snapshot.json")), "{files:?}");
    }
}

/// Under `group` the loop credits a commit the wait from its handler's
/// end to the end of the round that released it, inside the trace
/// total; under `relaxed` no round holds a response and the stage is 0.
#[test]
fn durable_wait_stage_is_traced_only_under_group() {
    for durability in [
        easeml_serve::Durability::Group,
        easeml_serve::Durability::Relaxed,
    ] {
        let root = format!("/durable-wait-{durability}");
        let (_disk, addr, join) = start_on_slow_journal(&root, 2, durability);
        let mut client = Client::new(addr);
        let (status, _) = client
            .request("POST", "/projects", Some(&register_body("w", SCRIPT)))
            .unwrap();
        assert_eq!(status, 201);
        let (status, _) = client
            .request("POST", "/projects/w/commits", Some(&commit_body("c1", 90)))
            .unwrap();
        assert_eq!(status, 200);
        let (status, trace) = client.request("GET", "/admin/trace", None).unwrap();
        assert_eq!(status, 200);
        let entries = trace.get("entries").and_then(Value::as_array).unwrap();
        let commit = entries
            .iter()
            .find(|e| e.get("route").and_then(Value::as_str) == Some("commit"))
            .expect("the commit was traced");
        let total = commit.get("total_us").and_then(Value::as_u64).unwrap();
        let wait = commit
            .get("durable_wait_us")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        match durability {
            easeml_serve::Durability::Group => {
                assert!(wait > 0 && wait <= total, "{durability}: {commit}");
            }
            easeml_serve::Durability::Relaxed => assert_eq!(wait, 0, "{commit}"),
        }
        let (status, _) = client.request("POST", "/admin/shutdown", None).unwrap();
        assert_eq!(status, 200);
        drop(client);
        join.join().unwrap();
    }
}
