//! `ceci-client` — protocol client.
//!
//! ```text
//! ceci-client --addr HOST:PORT [--retries N] CMD ARGS...  # one request
//! ceci-client --addr HOST:PORT [--retries N]              # pipe stdin lines
//! ```
//!
//! `--retries N` retries BUSY rejections and transient transport failures
//! (connection reset / EOF mid-response) up to N times with exponential
//! backoff plus deterministic jitter, reconnecting as needed.
//!
//! The exit code mirrors the terminal line: 0 for `OK`, 3 for `BUSY`, 1 for
//! `ERR`.

use std::io::BufRead;
use std::process::exit;

use ceci_service::{Client, RetryPolicy};

fn usage() -> ! {
    eprintln!("usage: ceci-client --addr HOST:PORT [--retries N] [CMD ARGS...]");
    exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::new();
    let mut retries: u32 = 0;
    let mut command: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--addr" => {
                i += 1;
                addr = raw.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--retries" => {
                i += 1;
                retries = raw
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => command.push(raw[i].clone()),
        }
        i += 1;
    }
    if addr.is_empty() {
        usage();
    }
    let retry = (retries > 0).then(|| RetryPolicy {
        max_retries: retries,
        ..RetryPolicy::default()
    });
    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("error: connect {addr}: {e}");
        exit(1);
    });
    if command.is_empty() {
        // Interactive / piped mode: forward stdin lines, print responses.
        let stdin = std::io::stdin();
        let mut status = 0;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            match send_and_print(&mut client, &line, retry.as_ref()) {
                Ok(s) => status = s,
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
        exit(status);
    }
    let line = command.join(" ");
    match send_and_print(&mut client, &line, retry.as_ref()) {
        Ok(status) => exit(status),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

/// Sends one request (retrying under `retry` when given), prints the full
/// response, returns the exit status for its terminal line.
fn send_and_print(
    client: &mut Client,
    line: &str,
    retry: Option<&RetryPolicy>,
) -> std::io::Result<i32> {
    let resp = match retry {
        Some(policy) => {
            let outcome = client.request_with_retry(line, policy)?;
            if outcome.attempts > 1 {
                eprintln!(
                    "({} attempts, {} reconnects)",
                    outcome.attempts, outcome.reconnects
                );
            }
            outcome.response
        }
        None => client.request(line)?,
    };
    for l in &resp.payload {
        println!("{l}");
    }
    println!("{}", resp.terminal);
    Ok(if resp.is_ok() {
        0
    } else if resp.is_busy() {
        3
    } else {
        1
    })
}
