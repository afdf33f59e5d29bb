//! The daemon's view of a workload: an in-process `gpsched-serve` on a
//! disk cache, one client submitting job bodies in turn, and a results
//! reader that timestamps the streamed lines.

use crate::util::ms;
use gpsched_engine::serve::client;
use gpsched_engine::{serve, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One job as the client saw it.
pub struct JobRun {
    pub submit: Duration,
    /// Submit start → first result line (queue wait plus the first unit).
    pub first_line: Duration,
    /// Submit start → last result line.
    pub total: Duration,
    pub lines: Vec<String>,
}

/// Submits `body` and reads its result stream to the end.
fn run_job(addr: &str, body: &str) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let id = client::submit(addr, body)?;
    let submit = t0.elapsed();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET /jobs/{id}/results HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut status = String::new();
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?
            == 0
        {
            return Err("stream closed inside the response head".to_string());
        }
        if status.is_empty() {
            status = line.trim().to_string();
        }
        if line == "\r\n" {
            break;
        }
    }
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("results request answered `{status}`"));
    }
    let mut lines = Vec::new();
    let mut stamps = Vec::new();
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?
            == 0
        {
            break;
        }
        stamps.push(t0.elapsed());
        lines.push(line.trim_end().to_string());
    }
    let (Some(&first_line), Some(&total)) = (stamps.first(), stamps.last()) else {
        return Err(format!("job {id} streamed no results"));
    };
    Ok(JobRun {
        submit,
        first_line,
        total,
        lines,
    })
}

/// The jobs the daemon served, and the errors of those it did not.
pub struct Episode {
    pub runs: Vec<JobRun>,
    pub errors: Vec<String>,
}

/// Starts a daemon (port 0, one sweep worker) on the disk cache at
/// `cache`, submits `bodies` one after the other, each once the previous
/// one's results have finished streaming, and stops the daemon.
pub fn serve_jobs(cache: &Path, bodies: &[String]) -> Episode {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path: Some(cache.to_path_buf()),
        ..ServeOptions::default()
    };
    let mut server = serve(&opts).expect("daemon starts");
    let addr = server.addr().to_string();
    let (mut runs, mut errors) = (Vec::new(), Vec::new());
    for body in bodies {
        match run_job(&addr, body) {
            Ok(run) => runs.push(run),
            Err(e) => errors.push(e),
        }
    }
    server.shutdown();
    server.join();
    Episode { runs, errors }
}

/// Latency breakdown of an episode's jobs, in ms.
pub struct Latency {
    pub submit: Vec<f64>,
    pub first_line: Vec<f64>,
    pub stream: Vec<f64>,
}

pub fn latency(ep: &Episode) -> Latency {
    Latency {
        submit: ep.runs.iter().map(|r| ms(r.submit)).collect(),
        first_line: ep.runs.iter().map(|r| ms(r.first_line)).collect(),
        stream: ep.runs.iter().map(|r| ms(r.total - r.first_line)).collect(),
    }
}
