//! Graph loaders and writers.

pub mod binary;
pub mod edge_list;
pub mod temporal;

pub use binary::{load_binary, read_binary, save_binary, write_binary, MappedCsr, Mmap};
pub use edge_list::{load_edge_list, load_labeled, read_edge_list, read_labeled, write_labeled};
pub use temporal::{batch_by_timestamp, load_temporal, read_temporal, TemporalEdge};
