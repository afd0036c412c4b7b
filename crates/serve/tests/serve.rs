//! End-to-end tests of the aderdg-serve TCP server: the full `--smoke`
//! self-test (≥ 8 concurrent jobs + pause/checkpoint/resume equality)
//! plus targeted protocol checks over a real socket.

use aderdg_core::jobs::JobQueue;
use aderdg_serve::{smoke, Client, Server, MAX_LINE};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bare socket client, as `nc` or a script would be: no
/// `TCP_NODELAY`, each request line sent in one write.
struct RawClient {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let out = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(out.try_clone().expect("clone"));
        RawClient { out, reader }
    }

    /// The next reply line without its newline; `None` at EOF.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("read reply") {
            0 => None,
            _ => Some(line.trim_end_matches('\n').to_string()),
        }
    }

    fn cmd(&mut self, line: &str) -> String {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.line().expect("reply")
    }
}

#[test]
fn a_client_without_nodelay_is_not_stalled_by_the_server() {
    let queue = Arc::new(JobQueue::new(1));
    let mut server = Server::start("127.0.0.1:0", Arc::clone(&queue)).expect("bind");
    let mut client = RawClient::connect(server.addr());
    assert_eq!(client.cmd("PING"), "OK pong");
    let id = client.cmd("SUBMIT acoustic_wave smoke=true");
    let id = id.strip_prefix("OK id=").expect("id=<n>").to_string();
    let status = client.cmd(&format!("WAIT {id}"));
    assert!(status.contains("status=done"), "{status}");

    // A reply split over several writes waits ≈ 40 ms on this client's
    // delayed ACK, so 21 stalled replies would take ≈ 0.9 s.
    let t0 = Instant::now();
    for _ in 0..20 {
        assert_eq!(client.cmd("PING"), "OK pong");
    }
    assert_eq!(client.cmd(&format!("SERIES {id}")), "OK");
    let mut rows = 0;
    while client.line().expect("series payload") != "." {
        rows += 1;
    }
    let elapsed = t0.elapsed();
    assert!(rows > 1, "{rows} series rows");
    assert!(
        elapsed < Duration::from_millis(300),
        "20 PINGs + SERIES took {elapsed:?}"
    );

    server.stop();
    queue.shutdown();
}

#[test]
fn hostile_request_lines_get_an_err_and_the_server_lives_on() {
    let queue = Arc::new(JobQueue::new(1));
    let mut server = Server::start("127.0.0.1:0", Arc::clone(&queue)).expect("bind");
    let mut client = RawClient::connect(server.addr());
    // Bytes that are not UTF-8: an ERR, and the connection stays open.
    client.out.write_all(b"PING \xff\n").expect("send");
    assert_eq!(
        client.line().as_deref(),
        Some("ERR request line is not UTF-8")
    );
    assert_eq!(client.cmd("PING"), "OK pong");

    // 1 MiB and no newline; the server stops reading at MAX_LINE, so the
    // rest of the write may fail once it closes.
    let mut out = client.out.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let _ = out.write_all(&vec![b'a'; 1 << 20]);
    });
    assert_eq!(
        client.line().as_deref(),
        Some(format!("ERR line too long (max {MAX_LINE} bytes)").as_str())
    );
    assert_eq!(client.line(), None);
    writer.join().expect("writer thread");

    let mut fresh = RawClient::connect(server.addr());
    assert_eq!(fresh.cmd("PING"), "OK pong");

    server.stop();
    queue.shutdown();
}

#[test]
fn smoke_self_test_passes() {
    let mut log = Vec::new();
    if let Err(e) = smoke(&mut log) {
        panic!(
            "serve smoke failed: {e}\nlog:\n{}",
            String::from_utf8_lossy(&log)
        );
    }
    let log = String::from_utf8_lossy(&log);
    assert!(log.contains("PING round trip median"), "{log}");
    assert!(log.contains("concurrent jobs done"), "{log}");
    assert!(log.contains("series matches"), "{log}");
}

#[test]
fn protocol_over_a_real_socket() {
    let queue = Arc::new(JobQueue::new(2));
    let mut server = Server::start("127.0.0.1:0", Arc::clone(&queue)).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    assert_eq!(client.cmd("PING").unwrap(), Ok("pong".into()));
    let help = client.cmd_data("HELP").unwrap().expect("HELP payload");
    assert!(help.iter().any(|l| l.contains("SUBMIT")), "{help:?}");

    // Errors come back as ERR lines, not dropped connections.
    let err = client.cmd("SUBMIT nope").unwrap().unwrap_err();
    assert!(err.contains("unknown scenario"), "{err}");
    let err = client.cmd_data("SERIES 99").unwrap().unwrap_err();
    assert!(err.contains("no such job"), "{err}");

    // A second client sees the same queue.
    let reply = client
        .cmd("SUBMIT acoustic_wave smoke=true")
        .unwrap()
        .expect("submit");
    let id = reply.strip_prefix("id=").expect("id=<n>").to_string();
    let mut other = Client::connect(server.addr()).expect("second connect");
    let status = other.cmd(&format!("WAIT {id}")).unwrap().expect("wait");
    assert!(status.contains("status=done"), "{status}");
    let list = other.cmd_data("LIST").unwrap().expect("list");
    assert_eq!(list.len(), 1, "{list:?}");
    let summary = other.cmd_data(&format!("SUMMARY {id}")).unwrap().unwrap();
    assert!(
        summary[0].starts_with("scenario acoustic_wave"),
        "{summary:?}"
    );

    server.stop();
    queue.shutdown();
}

#[test]
fn cancel_over_the_wire() {
    let queue = Arc::new(JobQueue::new(1));
    let mut server = Server::start("127.0.0.1:0", Arc::clone(&queue)).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Occupy the single runner with a long run, cancel a queued job
    // before it ever starts, then cancel the blocker mid-run.
    let first = client
        .cmd("SUBMIT acoustic_wave cells=4 t_end=1000 tuning=static")
        .unwrap()
        .expect("submit");
    let second = client
        .cmd("SUBMIT acoustic_wave smoke=true")
        .unwrap()
        .expect("submit");
    let second_id = second.strip_prefix("id=").unwrap().to_string();
    client
        .cmd(&format!("CANCEL {second_id}"))
        .unwrap()
        .expect("cancel queued");
    let status = client
        .cmd(&format!("WAIT {second_id}"))
        .unwrap()
        .expect("wait queued victim");
    assert!(status.contains("status=cancelled"), "{status}");
    let first_id = first.strip_prefix("id=").unwrap().to_string();
    client
        .cmd(&format!("CANCEL {first_id}"))
        .unwrap()
        .expect("cancel running");
    let status = client
        .cmd(&format!("WAIT {first_id}"))
        .unwrap()
        .expect("wait blocker");
    assert!(status.contains("status=cancelled"), "{status}");

    server.stop();
    queue.shutdown();
}
