//! `ceci-serve` — the subgraph-query daemon.
//!
//! ```text
//! ceci-serve [options]
//!
//!   --addr HOST:PORT     bind address (default 127.0.0.1:7439; port 0 = ephemeral)
//!   --pool-workers N     data-plane pool threads (default 2)
//!   --queue-cap N        pending-request cap before BUSY (default 64)
//!   --cache-mb N         index-cache budget in MiB (default 64; 0 disables)
//!   --max-match-workers N  cap on per-request WORKERS (default 8); a MATCH
//!                        without WORKERS runs one worker
//!   --compact-threshold N  net mutations since the last compaction that
//!                        trigger the next exact label-pair rebuild
//!                        (default 32768)
//!   --dirty-log-cap N    mutation batches of dirty endpoints kept per graph
//!                        for index repair (default 64; an older entry's
//!                        repair scans for its candidate sets)
//!   --preload NAME=FILE  LOAD a labeled graph before accepting connections
//!                        (repeatable; numbered as LOAD numbers)
//!   --max-conns N        concurrent-connection cap; connections beyond it
//!                        are answered BUSY and closed (default 10000)
//!   --io-timeout-ms N    per-connection socket read/write timeout
//!                        (default 30000; 0 disables); connections idle
//!                        past it close with ERR E_TIMEOUT unless they
//!                        hold a REGISTERed continuous query
//!   --shard ADDR         coordinator mode: scatter plain MATCH requests
//!                        across this ceci-shard process (repeatable);
//!                        all shards are probed at startup and the server
//!                        refuses to start (typed E_SHARD error, exit 1)
//!                        if any stays unreachable past the retry budget
//!   --shard-timeout-ms N per-RPC socket timeout toward shards (default 5000)
//!   --shard-retries N    reconnect attempts before a shard is declared
//!                        dead and its pivots re-scatter (default 3)
//!   --chaos              enable the CHAOS fault-injection verb (testing
//!                        only; without it CHAOS answers E_CHAOS_DISABLED)
//!   --trace              record service.request stage spans (queue wait /
//!                        cache probe / build / enumerate / serialize) into
//!                        the in-process tracer; surfaced via STATS PROM
//!                        (ceci_trace_spans gauge) and EXPLAIN ANALYZE
//! ```
//!
//! One epoll readiness thread owns every connection; data-plane work runs
//! on the bounded pool. The server prints one `listening on <addr>` line to
//! stdout once live — scripts wait for it — and serves until killed.

use std::process::exit;
use std::sync::Arc;

use ceci_graph::{io, rank_by_label_and_degree};
use ceci_service::{start_with_state, ServeConfig, ServerState};

fn usage() -> ! {
    eprintln!(
        "usage: ceci-serve [--addr HOST:PORT] [--pool-workers N] [--queue-cap N] \
         [--cache-mb N] [--max-match-workers N] \
         [--compact-threshold N] [--dirty-log-cap N] \
         [--preload NAME=FILE]... \
         [--max-conns N] [--io-timeout-ms N] [--shard ADDR]... \
         [--shard-timeout-ms N] [--shard-retries N] [--chaos] [--trace]"
    );
    exit(2)
}

/// `--cache-mb`'s MiB as bytes; `None` when the product overflows `usize`.
fn mib_to_bytes(mib: usize) -> Option<usize> {
    mib.checked_mul(1 << 20)
}

fn main() {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7439".to_string(),
        ..ServeConfig::default()
    };
    let mut preloads: Vec<(String, String)> = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        raw.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let num = |i: &mut usize| -> usize { value(i).parse().unwrap_or_else(|_| usage()) };
    while i < raw.len() {
        match raw[i].as_str() {
            "--addr" => config.addr = value(&mut i),
            "--pool-workers" => config.pool_workers = num(&mut i).max(1),
            "--queue-cap" => config.queue_cap = num(&mut i),
            "--cache-mb" => {
                config.cache_budget_bytes = mib_to_bytes(num(&mut i)).unwrap_or_else(|| usage())
            }
            "--max-match-workers" => config.max_match_workers = num(&mut i).max(1),
            "--compact-threshold" => config.compact_threshold = num(&mut i).max(1),
            "--dirty-log-cap" => config.dirty_log_cap = num(&mut i).max(1),
            "--max-conns" => config.max_conns = num(&mut i).max(1),
            "--io-timeout-ms" => {
                config.io_timeout_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--shard" => config.shards.push(value(&mut i)),
            "--shard-timeout-ms" => {
                config.shard_io_timeout_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--shard-retries" => {
                config.shard_retries = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos" => config.chaos = true,
            "--trace" => config.trace = true,
            "--preload" => {
                let spec = value(&mut i);
                let Some((name, file)) = spec.split_once('=') else {
                    usage()
                };
                preloads.push((name.to_string(), file.to_string()));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let state = Arc::new(ServerState::new(config));
    for (name, file) in &preloads {
        match io::load_labeled(file) {
            Ok(file) => {
                let (graph, ids) = rank_by_label_and_degree(&file);
                drop(file);
                let (entry, _) = state.registry.insert_ranked(name, graph, ids);
                eprintln!(
                    "preloaded {name} ({} vertices, {} edges, epoch {})",
                    entry.graph().num_vertices(),
                    entry.graph().num_edges(),
                    entry.epoch
                );
            }
            Err(e) => {
                eprintln!("error preloading {name} from {file}: {e}");
                exit(1);
            }
        }
    }

    // Coordinator mode: refuse to serve behind an unreachable shard. Each
    // configured address is probed with the full retry budget; a shard that
    // never answers produces a typed E_SHARD error and exit 1 — not a panic.
    if let Some(shards) = state.shards() {
        if let Err(e) = ceci_service::validate_shards(shards, &state.coord_config()) {
            eprintln!("error: {e}");
            exit(1);
        }
        eprintln!("coordinator mode: {} shard(s) reachable", shards.len());
    }

    let handle = match start_with_state(state) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    if handle.state().config().chaos {
        eprintln!("warning: CHAOS fault injection is enabled; do not expose this server");
    }
    // Serve until killed: the loop thread owns the listener; parking the
    // main thread keeps the handle (and the pool) alive.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::mib_to_bytes;

    #[test]
    fn cache_mb_refuses_an_overflowing_budget() {
        assert_eq!(mib_to_bytes(64), Some(64 << 20));
        assert_eq!(mib_to_bytes(0), Some(0));
        // 2^44 MiB is 2^64 bytes: a shift would wrap it to a zero budget.
        assert_eq!(mib_to_bytes(1 << 44), None);
        assert_eq!(mib_to_bytes(usize::MAX), None);
    }
}
