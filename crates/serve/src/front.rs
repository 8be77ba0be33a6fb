//! Daemon front-ends: NDJSON over stdio and over a TCP listener, plus
//! SIGTERM/SIGINT-triggered graceful drain.
//!
//! Both transports share the line discipline: one request object per
//! line in, one response object per line out, multiplexed by `id` —
//! responses may be reordered relative to requests (a cheap `ping`
//! overtakes a queued `submit`), so clients must correlate by `id`.

use crate::proto::Response;
use crate::server::{Server, MAX_LINE_BYTES};
use std::borrow::Cow;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Set by the signal handler; polled by the drain watcher.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that request a graceful drain. Uses
/// raw `signal(2)` through the libc already linked by std — the handler
/// only stores to an atomic, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Spawn the watcher that turns a signal into `server.drain()` and a
/// clean exit. Runs for the life of the process.
fn spawn_signal_watcher(server: &Arc<Server>) {
    let server = Arc::clone(server);
    std::thread::Builder::new()
        .name("serve-signal-watcher".to_string())
        .spawn(move || loop {
            if SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
                server.drain();
                // Drain flushed the cache and answered everything that
                // was admitted; responses already handed to transport
                // writers flush on their own threads.
                std::thread::sleep(Duration::from_millis(100));
                std::process::exit(0);
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}

/// Serve NDJSON over stdin/stdout until EOF, a `shutdown` op, or a
/// signal. Returns after the drain completes.
pub fn serve_stdio(server: Arc<Server>) {
    install_signal_handlers();
    spawn_signal_watcher(&server);
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::Builder::new()
        .name("serve-stdout".to_string())
        .spawn(move || {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for resp in rx {
                let _ = writeln!(out, "{}", resp.render());
                let _ = out.flush();
            }
        })
        .expect("spawn stdout writer");
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf) {
        if !server.handle_line(&line, &tx) {
            // `shutdown` op: drain already ran inside handle_line.
            drop(tx);
            let _ = writer.join();
            return;
        }
    }
    // EOF: drain, then let the writer finish the backlog.
    server.drain();
    drop(tx);
    let _ = writer.join();
}

/// `catt serve --tcp <addr>`: bind, arm the signal-triggered drain, and
/// serve until a `shutdown` op or a signal ([`serve_listener`]).
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> std::io::Result<()> {
    install_signal_handlers();
    spawn_signal_watcher(&server);
    let listener = TcpListener::bind(addr)?;
    eprintln!("[serve] listening on {}", listener.local_addr()?);
    serve_listener(server, listener)
}

/// Serve NDJSON over `listener`. Each connection gets a reader and a
/// writer thread; a `shutdown` op on any of them drains the daemon and
/// stops accepting. Returns after the drain completes and every
/// connection has been closed — clients that are merely connected cannot
/// keep the daemon alive.
pub fn serve_listener(server: Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
    loop {
        if server.is_draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Our handle on the socket, to end the handler's blocking
                // read after the drain; a connection we could not close
                // later is not served.
                let Ok(closer) = stream.try_clone() else {
                    continue;
                };
                let server = Arc::clone(&server);
                let handler = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_conn(server, stream))
                    .expect("spawn connection handler");
                conns.push((closer, handler));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
        conns.retain(|(_, handler)| !handler.is_finished());
    }
    server.drain();
    // Every admitted request has its response queued on its connection's
    // writer. Closing only the read half ends each handler's `lines()`
    // loop while its writer still flushes that backlog.
    for (closer, handler) in conns {
        let _ = closer.shutdown(Shutdown::Read);
        let _ = handler.join();
    }
    Ok(())
}

fn handle_conn(server: Arc<Server>, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for resp in rx {
            if writeln!(out, "{}", resp.render()).is_err() {
                break;
            }
            let _ = out.flush();
        }
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut reader, &mut buf) {
        if !server.handle_line(&line, &tx) {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Read the next `\n`-terminated line into `buf`, keeping at most
/// [`MAX_LINE_BYTES`] + 1 bytes of it: the rest of a longer line is read
/// and dropped, and [`Server::handle_line`] answers the kept prefix as
/// `bad-request`, so the connection carries on. `None` ends the stream:
/// end of input, a read error, or a line that is not UTF-8.
fn read_line<'b>(input: &mut impl BufRead, buf: &'b mut Vec<u8>) -> Option<Cow<'b, str>> {
    buf.clear();
    let mut read_any = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let (line_end, consumed) = match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => (at, at + 1),
            None => (chunk.len(), chunk.len()),
        };
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len());
        buf.extend_from_slice(&chunk[..line_end.min(room)]);
        input.consume(consumed);
        if consumed > line_end {
            break;
        }
    }
    if !read_any {
        return None;
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Some(Cow::Borrowed(line)),
        // Cut at the cap, possibly inside a character: it is answered
        // for its length alone.
        Err(_) if buf.len() > MAX_LINE_BYTES => Some(String::from_utf8_lossy(buf)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_split_and_capped() {
        let long = "x".repeat(MAX_LINE_BYTES + 10);
        let text = format!("a\r\n{long}\nb\nlast");
        let mut input = std::io::Cursor::new(text.into_bytes());
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_line(&mut input, &mut buf) {
            lines.push(line.into_owned());
        }
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "a\r");
        assert_eq!(lines[1].len(), MAX_LINE_BYTES + 1);
        assert_eq!(lines[2], "b");
        assert_eq!(lines[3], "last");
    }

    #[test]
    fn a_line_that_is_not_utf8_ends_the_stream() {
        let mut input = std::io::Cursor::new(b"ok\n\xff\xfe\nnever\n".to_vec());
        let mut buf = Vec::new();
        assert_eq!(read_line(&mut input, &mut buf).as_deref(), Some("ok"));
        assert!(read_line(&mut input, &mut buf).is_none());
    }
}
