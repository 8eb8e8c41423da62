//! Integration tests that drive the compiled `easeml-ci` binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_easeml-ci"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_script(name: &str, condition: &str, adaptivity: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("easeml-ci-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!(
            "ml:\n\
             \x20 - condition  : {condition}\n\
             \x20 - reliability: 0.999\n\
             \x20 - mode       : fp-free\n\
             \x20 - adaptivity : {adaptivity}\n\
             \x20 - steps      : 8\n"
        ),
    )
    .unwrap();
    path
}

#[test]
fn help_prints_usage() {
    for args in [&["help"][..], &[][..]] {
        let out = run(args);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"));
        assert!(text.contains("estimate"));
    }
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_documents_threads_flag() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--threads"));
    assert!(text.contains("EASEML_THREADS"));
}

#[test]
fn threads_flag_is_accepted_anywhere_and_validated() {
    let out = run(&["--threads", "2", "table"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["table", "--threads=1"]);
    assert!(out.status.success());
    // Malformed values fail loudly.
    let out = run(&["--threads", "lots", "table"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
    let out = run(&["table", "--threads"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn validate_accepts_good_script() {
    let path = write_script("good.yml", "n > 0.8 +/- 0.05", "full");
    let out = run(&["validate", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("script OK"));
}

#[test]
fn validate_rejects_bad_script() {
    let dir = std::env::temp_dir().join("easeml-ci-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.yml");
    std::fs::write(&path, "ml:\n  - condition : n / o > 1 +/- 0.1\n").unwrap();
    let out = run(&["validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn estimate_reports_sections_and_savings() {
    let path = write_script(
        "pattern1.yml",
        "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01",
        "none",
    );
    let out = run(&["estimate", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("labelled"));
    assert!(text.contains("optimized"));
    assert!(text.contains("saving"));
}

#[test]
fn table_matches_known_cell() {
    let out = run(&["table"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The famous top-left and bottom-right cells of Figure 2.
    assert!(text.contains("404"));
    assert!(text.contains("687736"));
}

#[test]
fn simulate_runs_a_process() {
    let path = write_script("sim.yml", "n - o > 0.02 +/- 0.08", "full");
    let out = run(&[
        "simulate",
        path.to_str().unwrap(),
        "--commits",
        "3",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("commits evaluated"));
    assert!(text.contains("labels requested"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["estimate", "/nonexistent/definitely-missing.yml"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_documents_serve() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve"));
    assert!(text.contains("--addr"));
    assert!(text.contains("--data-dir"));
}

#[test]
fn serve_rejects_bad_arguments() {
    // Missing values and unknown flags fail before binding anything.
    let out = run(&["serve", "--addr"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
    let out = run(&["serve", "--data-dir"]);
    assert!(!out.status.success());
    let out = run(&["serve", "--bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
    // `strict` is not a durability mode: the error names the ones that are.
    let out = run(&["serve", "--durability", "strict"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("group|relaxed"));
    // An unbindable address is a clean error, not a panic.
    let out = run(&["serve", "--addr", "definitely-not-an-address"]);
    assert!(!out.status.success());
}

#[test]
fn serve_binds_ephemeral_port_and_answers_http() {
    use std::io::{BufRead, BufReader, Read, Write};

    let data_dir = std::env::temp_dir()
        .join("easeml-ci-cli-tests")
        .join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_easeml-ci"))
        .args([
            "serve",
            "--threads",
            "2",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // First stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read banner");
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_owned();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");

    child.kill().expect("kill serve");
    let _ = child.wait();
    // The service created its durable layout before serving.
    assert!(data_dir.join("projects").is_dir());
}
