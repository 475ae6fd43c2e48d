//! Sweep-worker processes for the store-sweep workload: this binary, run
//! with [`WORKER_FLAG`], listens on a loopback port and serves dispatcher
//! sessions with `mfa_dispatch::serve`, as the `sweep-worker` binary does.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, ExitCode, Stdio};

use mfa_dispatch::FaultPlan;

pub const WORKER_FLAG: &str = "--sweep-worker";

/// Worker process entry point: bind a loopback port, print it, then serve
/// one dispatcher session per connection until killed or the parent exits.
pub fn main() -> ExitCode {
    // The parent holds this process's stdin open; end-of-file means the
    // parent is gone, whether it stopped or was killed, so exit with it.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("perfbench worker: cannot bind: {err}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => {
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(err) => {
            eprintln!("perfbench worker: {err}");
            return ExitCode::FAILURE;
        }
    }
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(reader) = stream.try_clone() else {
            continue;
        };
        if let Err(err) = mfa_dispatch::serve(BufReader::new(reader), stream, &FaultPlan::default())
        {
            eprintln!("perfbench worker: session ended: {err}");
        }
    }
    ExitCode::SUCCESS
}

/// A spawned worker process; killed and reaped on drop.
pub struct WorkerProcess {
    child: Child,
    pub addr: String,
}

impl WorkerProcess {
    pub fn spawn() -> Result<WorkerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(WORKER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn a sweep worker: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(WorkerProcess { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("sweep worker did not report its address: {line:?}"))
            }
        }
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
