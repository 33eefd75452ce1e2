//! The `server` daemon outlives a failed `accept`. Under a descriptor
//! limit too small for the connections waiting on it, `accept` fails
//! with `EMFILE` until sessions end; the daemon must keep listening and
//! answer the next client once descriptors free up, not exit.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use eh_srv::Client;

/// The spawned daemon, killed however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn descriptor_exhaustion_does_not_stop_the_server() {
    let data = std::env::temp_dir().join(format!("eh-srv-accept-{}.nt", std::process::id()));
    std::fs::write(
        &data,
        "<http://x/a> <http://x/p> <http://x/b> .\n<http://x/b> <http://x/p> <http://x/c> .\n",
    )
    .expect("write the data file");
    // 24 descriptors load the data and listen, but cannot hold 30
    // sessions: each accepted one takes two (the stream and the clone
    // kept for the shutdown wake-up).
    let mut daemon = Daemon(
        Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 24; exec "$0" --data "$1" --port 0 --sessions 2"#)
            .arg(env!("CARGO_BIN_EXE_server"))
            .arg(&data)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn the server"),
    );
    // Kept open to the end: the daemon must never write to a closed pipe.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let addr: SocketAddr = loop {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).expect("read stdout") > 0, "server exited early");
        // "serving <n> triples / <n> predicates on <addr> (...)"
        if let Some(rest) = line.strip_prefix("serving ") {
            let addr = rest.split(" on ").nth(1).and_then(|r| r.split(' ').next());
            break addr.expect("address in the banner").parse().expect("socket address");
        }
    };

    let flood: Vec<TcpStream> = (0..30)
        .map(|_| TcpStream::connect(addr).expect("the listen backlog takes the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    drop(flood);
    std::thread::sleep(Duration::from_millis(300));
    assert!(daemon.0.try_wait().expect("poll the server").is_none(), "server exited");

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Client::connect(addr).and_then(|mut client| client.send("STATS")));
    });
    let reply = rx.recv_timeout(Duration::from_secs(30)).expect("STATS answered within 30 s");
    let reply = reply.expect("a fresh client is served after the flood");
    assert!(reply.starts_with("OK "), "{reply}");
    std::fs::remove_file(&data).ok();
}
