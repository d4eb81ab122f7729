//! `ceci-shard` — a data-fragment process for multi-process sharded serving.
//!
//! ```text
//! ceci-shard --graph FILE [options]
//!
//!   --graph FILE         the data graph this shard serves (required)
//!   --addr HOST:PORT     bind address (default 127.0.0.1:0 = ephemeral); a
//!                        restarted shard can reclaim its port through
//!                        TIME_WAIT (the listener sets SO_REUSEADDR)
//!   --heap               load the graph fully into memory; the default for
//!                        CECIGRF1 files is a zero-copy mmap view, so shards
//!                        can serve fragments larger than RAM
//!   --labeled            FILE is a labeled edge-list (implies --heap)
//!   --io-timeout-ms N    per-connection socket read/write timeout
//!                        (default 5000; 0 disables)
//!   --chaos              enable the CHAOS fault-injection verb (EXIT,
//!                        STALL, PANIC, ...; testing only)
//! ```
//!
//! A shard is the `ceci-serve` server core started over state that holds a
//! fragment plane: on top of everything that core answers (`PING`, `STATS`,
//! `QUIT`, `CHAOS`, ...) it serves the coordinator-facing verbs `PREPARE`
//! (pin a query plan) and `EXEC` (count one pivot's embeddings), which a
//! `ceci-serve` refuses with `ERR E_SHARD`. It prints one `listening on
//! <addr>` line to stdout once live — scripts wait for it — and serves
//! until killed.

use std::process::exit;
use std::sync::Arc;

use ceci_graph::io;
use ceci_graph::io::MappedCsr;
use ceci_service::{start_with_state, GraphStore, ServeConfig, ServerState};

fn usage() -> ! {
    eprintln!(
        "usage: ceci-shard --graph FILE [--addr HOST:PORT] [--heap] [--labeled] \
         [--io-timeout-ms N] [--chaos]"
    );
    exit(2)
}

fn main() {
    let mut config = ServeConfig {
        io_timeout_ms: 5_000,
        ..ServeConfig::default()
    };
    let mut graph_path: Option<String> = None;
    let mut heap = false;
    let mut labeled = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        raw.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--graph" => graph_path = Some(value(&mut i)),
            "--addr" => config.addr = value(&mut i),
            "--heap" => heap = true,
            "--labeled" => labeled = true,
            "--io-timeout-ms" => {
                config.io_timeout_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos" => config.chaos = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(path) = graph_path else { usage() };

    // Three loading modes: labeled edge-list (heap), CECIGRF1 heap copy,
    // and the default CECIGRF1 mmap view (fragments larger than RAM).
    let store = if labeled {
        match io::load_labeled(&path) {
            Ok(g) => GraphStore::Heap(g),
            Err(e) => {
                eprintln!("error loading labeled graph {path}: {e}");
                exit(1);
            }
        }
    } else if heap {
        match io::load_binary(&path) {
            Ok(g) => GraphStore::Heap(g),
            Err(e) => {
                eprintln!("error loading binary graph {path}: {e}");
                exit(1);
            }
        }
    } else {
        match MappedCsr::open(&path) {
            Ok(m) => GraphStore::Mapped(m),
            Err(e) => {
                eprintln!("error mapping binary graph {path}: {e}");
                exit(1);
            }
        }
    };
    let vertices = store.source().num_vertices();
    let state = ServerState::new(config).with_fragments(store);

    let handle = match start_with_state(Arc::new(state)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            exit(1);
        }
    };
    eprintln!("shard serving {vertices} vertices from {path}");
    println!("listening on {}", handle.addr());
    if handle.state().config().chaos {
        eprintln!("warning: CHAOS fault injection is enabled; do not expose this shard");
    }
    // Serve until killed: the loop thread owns the listener; parking the
    // main thread keeps the handle (and the pool) alive.
    loop {
        std::thread::park();
    }
}
