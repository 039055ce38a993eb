//! An in-flight `run` holds exactly one OS thread: its pool worker.
//!
//! The deadline check lives in the run driver and the reply is settled
//! on the worker, so dispatching a run spawns nothing. This lives in
//! its own test binary so no other test's threads are counted.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use powerchop_suite::serve::{Server, ServerConfig};

/// Threads in this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("read timeout sets");
    (
        BufReader::new(stream.try_clone().expect("stream clones")),
        stream,
    )
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply reads");
    line
}

#[test]
fn an_inflight_run_holds_only_its_worker_thread() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("daemon binds");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let (mut status_reader, mut status) = connect(addr);
    // One round trip: the event loop is up and serving.
    writeln!(status, r#"{{"op":"status"}}"#).expect("status writes");
    read_reply(&mut status_reader);
    let baseline = threads();

    // Two runs of minutes each, cut by a 3 s deadline, written from
    // this thread: no client threads join the count.
    let mut runs: Vec<_> = (0..2).map(|_| connect(addr)).collect();
    for (i, (_, writer)) in runs.iter_mut().enumerate() {
        writeln!(
            writer,
            r#"{{"op":"run","bench":"gobmk","budget":{},"scale":100,"deadline_ms":3000}}"#,
            1_000_000_000 - i
        )
        .expect("run writes");
    }
    let started = Instant::now();
    loop {
        writeln!(status, r#"{{"op":"status"}}"#).expect("status writes");
        if read_reply(&mut status_reader).contains("\"inflight\":2,") {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_millis(2_500),
            "both runs must be on the pool before their deadline"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        threads(),
        baseline,
        "dispatching two runs must spawn no thread"
    );

    for (reader, _) in &mut runs {
        let reply = read_reply(reader);
        assert!(reply.contains("\"code\":408"), "reply: {reply}");
        assert!(reply.contains("\"error\":\"deadline\""), "reply: {reply}");
    }
    writeln!(status, r#"{{"op":"shutdown"}}"#).expect("shutdown writes");
    read_reply(&mut status_reader);
    drop(runs);
    drop((status_reader, status));
    daemon
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
}
