//! Compact binary graph format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8  b"CECIGRF1"
//! flags    u32   bit 0 = directed provenance
//! n        u64   vertex count
//! m2       u64   adjacency entries (2 × edges)
//! offsets  (n+1) × u64
//! nbrs     m2 × u32
//! nlabels  u64   total label entries
//! lsizes   n × u32   labels per vertex
//! labels   nlabels × u32
//! ```
//!
//! This is the on-disk format the simulated shared store (§5) maps, so the
//! reader exposes both a full [`read_binary`]/[`load_binary`] path and the
//! raw section offsets used by `ceci-distributed` for partial loads.

use std::io::{Read, Write};
use std::path::Path;

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::{LabelId, VertexId};
use crate::labels::LabelSet;

const MAGIC: &[u8; 8] = b"CECIGRF1";

fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Serializes a graph into the binary format.
pub fn write_binary<W: Write>(graph: &Graph, mut w: W) -> Result<()> {
    w.write_all(MAGIC)?;
    write_u32(&mut w, graph.is_directed_input() as u32)?;
    let n = graph.num_vertices();
    write_u64(&mut w, n as u64)?;
    let csr = graph.csr();
    write_u64(&mut w, csr.num_adjacency_entries() as u64)?;
    for &off in csr.offsets() {
        write_u64(&mut w, off as u64)?;
    }
    for &nb in csr.raw_neighbors() {
        write_u32(&mut w, nb.0)?;
    }
    let total_labels: u64 = graph.vertices().map(|v| graph.labels(v).len() as u64).sum();
    write_u64(&mut w, total_labels)?;
    for v in graph.vertices() {
        write_u32(&mut w, graph.labels(v).len() as u32)?;
    }
    for v in graph.vertices() {
        for l in graph.labels(v).iter() {
            write_u32(&mut w, l.0)?;
        }
    }
    Ok(())
}

/// Deserializes a graph from the binary format. The whole image is read
/// first and its layout validated against the bytes present
/// ([`MappedCsr::open`] runs the same checks), so a malformed file answers
/// [`GraphError::Format`] and nothing is allocated from its header alone.
pub fn read_binary<R: Read>(mut r: R) -> Result<Graph> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let layout = Layout::of(&bytes)?;
    Ok(layout.to_graph(&bytes))
}

/// Writes the binary format to a file.
pub fn save_binary(graph: &Graph, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_binary(graph, std::io::BufWriter::new(file))
}

/// Reads the binary format from a file. Errors are wrapped with the file
/// path (see [`crate::error::GraphError::File`]).
pub fn load_binary(path: impl AsRef<Path>) -> Result<Graph> {
    let path = path.as_ref();
    let attempt = || -> Result<Graph> {
        let file = std::fs::File::open(path)?;
        read_binary(std::io::BufReader::new(file))
    };
    attempt().map_err(|e| e.in_file(path))
}

/// A read-only `mmap(2)` of a whole file, unmapped on drop.
///
/// The mapping is `MAP_PRIVATE` + `PROT_READ`: the kernel pages bytes in on
/// demand and evicts them under memory pressure, so a [`MappedCsr`] view
/// over this serves graph files larger than RAM.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut libc::c_void,
    len: usize,
}

// SAFETY: the mapping is `PROT_READ` + `MAP_PRIVATE` and `Mmap` hands out
// only shared `&[u8]` views of it, so no thread can write through the
// pointer, and `munmap` runs once, in `Drop`, when no view is left. This
// assumes the file is not truncated while it is mapped: pages past a new
// end of file fault with `SIGBUS` on access, which no safe wrapper over
// `mmap(2)` can rule out for a file another process may shrink.
unsafe impl Send for Mmap {}
// SAFETY: as for `Send`: shared reads of read-only pages need no
// synchronization.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only in its entirety. Zero-length files cannot be
    /// mapped on Linux and are rejected with a format error (the graph
    /// format always has at least a header).
    pub fn map(path: impl AsRef<Path>) -> Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path.as_ref())?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(GraphError::Format("cannot mmap an empty file".into()));
        }
        // SAFETY: a fresh mapping (null hint) of `len > 0` bytes of an open
        // file, read-only; the result is checked against `MAP_FAILED`.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ,
                libc::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(GraphError::Format(format!(
                "mmap failed: {}",
                std::io::Error::last_os_error()
            )));
        }
        // The fd can close now; the mapping keeps the pages alive.
        Ok(Mmap { ptr, len })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live mapping of `len` readable bytes until
        // `Drop`, which cannot run while this borrow of `self` lives.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mapping is empty (never constructed; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what `mmap` returned, unmapped
        // once; no `as_bytes` borrow outlives `self`.
        unsafe {
            libc::munmap(self.ptr, self.len);
        }
    }
}

/// The validated layout of a `CECIGRF1` image: header fields and section
/// offsets in bytes from the start.
///
/// [`Layout::of`] checks every count against the bytes present, in checked
/// arithmetic, before anything is sized from it; then that offsets never
/// decrease and end at `m2`, that every neighbour id is `< n`, and that every
/// vertex has at least one label. After that, every slice a reader takes
/// is in range and every id a `Graph` is built from is valid.
///
/// The header is 28 bytes (magic 8 + flags 4 + n 8 + m2 8), so the offsets
/// section is 4-aligned but *not* 8-aligned — `u64` reads there go through
/// [`u64::from_le_bytes`] on byte slices instead of casting to `&[u64]`.
/// Every later section stays 4-aligned, so `&[u32]` views of a page-aligned
/// mapping are zero-copy.
#[derive(Debug)]
struct Layout {
    directed: bool,
    n: usize,
    m2: usize,
    offsets_at: usize,
    nbrs_at: usize,
    labels_at: usize,
    /// Prefix sums of per-vertex label counts (`n + 1` entries).
    label_offsets: Vec<usize>,
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

impl Layout {
    fn of(bytes: &[u8]) -> Result<Layout> {
        // The end of a `len`-byte section at `at`, if the image holds it;
        // `len` is `None` when computing it overflowed.
        let need = |at: usize, len: Option<usize>| -> Result<usize> {
            let end = len.and_then(|len| at.checked_add(len));
            end.filter(|&end| end <= bytes.len()).ok_or_else(|| {
                GraphError::Format(format!(
                    "file truncated: a section at offset {at} needs {} bytes, have {}",
                    len.map_or("too many".to_string(), |len| len.to_string()),
                    bytes.len()
                ))
            })
        };
        need(0, Some(MAGIC.len()))?;
        if &bytes[..8] != MAGIC {
            return Err(GraphError::Format(format!(
                "bad magic {:?}, expected {:?}",
                &bytes[..8],
                MAGIC
            )));
        }
        need(0, Some(28))?;
        let size = |count: u64, width: usize| {
            usize::try_from(count)
                .ok()
                .and_then(|c| c.checked_mul(width))
        };
        let (n, m2) = (u64_at(bytes, 12), u64_at(bytes, 20));
        let offsets_at = 28;
        let nbrs_at = need(offsets_at, n.checked_add(1).and_then(|k| size(k, 8)))?;
        let nlabels_at = need(nbrs_at, size(m2, 4))?;
        let lsizes_at = need(nlabels_at, Some(8))?;
        let total_labels = u64_at(bytes, nlabels_at);
        let labels_at = need(lsizes_at, size(n, 4))?;
        need(labels_at, size(total_labels, 4))?;
        // Both sections fit in the image, so both counts fit in a usize.
        let (n, m2) = (n as usize, m2 as usize);
        let offset = |v: usize| u64_at(bytes, offsets_at + v * 8);
        if offset(0) != 0 || offset(n) != m2 as u64 {
            return Err(GraphError::Format(
                "offset array inconsistent with adjacency length".into(),
            ));
        }
        if let Some(v) = (1..=n).find(|&v| offset(v) < offset(v - 1)) {
            return Err(GraphError::Format(format!(
                "offsets decrease at vertex {v}"
            )));
        }
        let nbr = |i: usize| u32_at(bytes, nbrs_at + i * 4);
        if let Some(id) = (0..m2).map(nbr).find(|&id| id as usize >= n) {
            return Err(GraphError::Format(format!(
                "neighbour id {id} out of range for {n} vertices"
            )));
        }
        let mut label_offsets = Vec::with_capacity(n + 1);
        label_offsets.push(0);
        let mut acc = 0u64;
        for v in 0..n {
            let labels = u32_at(bytes, lsizes_at + v * 4);
            if labels == 0 {
                return Err(GraphError::Format(format!("vertex {v} has no label")));
            }
            acc += labels as u64;
            label_offsets.push(acc as usize);
        }
        if acc != total_labels {
            return Err(GraphError::Format("label counts inconsistent".into()));
        }
        Ok(Layout {
            directed: u32_at(bytes, 8) & 1 != 0,
            n,
            m2,
            offsets_at,
            nbrs_at,
            labels_at,
            label_offsets,
        })
    }

    /// Adjacency offset of vertex `v` (valid for `v <= n`).
    fn offset(&self, bytes: &[u8], v: usize) -> usize {
        u64_at(bytes, self.offsets_at + v * 8) as usize
    }

    /// Byte range of `v`'s neighbour ids.
    fn neighbors(&self, bytes: &[u8], v: usize) -> std::ops::Range<usize> {
        let at = |i: usize| self.nbrs_at + i * 4;
        at(self.offset(bytes, v))..at(self.offset(bytes, v + 1))
    }

    /// Byte range of `v`'s label ids.
    fn labels(&self, v: usize) -> std::ops::Range<usize> {
        let at = |i: usize| self.labels_at + i * 4;
        at(self.label_offsets[v])..at(self.label_offsets[v + 1])
    }

    /// The image as a heap [`Graph`]: its edges (`v < nb`, once each)
    /// rebuilt through the normal constructor, so all indexes come out
    /// consistent.
    fn to_graph(&self, bytes: &[u8]) -> Graph {
        let ids = |range: std::ops::Range<usize>| {
            let words = bytes[range].chunks_exact(4);
            words.map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        };
        let mut edges = Vec::with_capacity(self.m2 / 2);
        for v in 0..self.n {
            let later = ids(self.neighbors(bytes, v)).filter(|&nb| v < nb as usize);
            edges.extend(later.map(|nb| (VertexId(v as u32), VertexId(nb))));
        }
        let labels = (0..self.n)
            .map(|v| LabelSet::from_labels(ids(self.labels(v)).map(LabelId)))
            .collect();
        Graph::new(labels, &edges, self.directed)
    }
}

/// `bytes` of a mapped section as the `u32`s they encode, without a copy.
/// Every section after the offsets starts at `28 + (n+1)*8 + 4k` bytes into
/// a page-aligned mapping, so its slices are 4-aligned.
#[inline]
fn words(bytes: &[u8]) -> &[u32] {
    assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<u32>(), 0);
    // SAFETY: the pointer is 4-aligned (asserted above), the length is the
    // number of whole `u32`s in `bytes`, any bit pattern is a valid `u32`
    // (native order equals the file's little-endian order on the targets
    // `mmap` is used on), and the result borrows `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

/// A zero-copy CSR view over a memory-mapped `CECIGRF1` file.
///
/// The layout is validated once at open, by the checks [`read_binary`]
/// runs too; neighbor lists and per-vertex label slices read straight out
/// of the mapping. This is the
/// out-of-core substrate for `ceci-shard`: a shard extracts per-pivot
/// fragments from this view without ever materializing the full graph in
/// heap memory.
#[derive(Debug)]
pub struct MappedCsr {
    map: Mmap,
    /// Its label prefix sums are the only heap the view owns: O(n) `usize`s.
    layout: Layout,
}

impl MappedCsr {
    /// Maps and validates a binary graph file.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedCsr> {
        let path = path.as_ref();
        let open = || {
            let map = Mmap::map(path)?;
            let layout = Layout::of(map.as_bytes())?;
            Ok(MappedCsr { map, layout })
        };
        open().map_err(|e: GraphError| e.in_file(path))
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.layout.n
    }

    /// Undirected edge count (adjacency entries / 2).
    pub fn num_edges(&self) -> usize {
        self.layout.m2 / 2
    }

    /// Directed-provenance flag.
    pub fn is_directed_input(&self) -> bool {
        self.layout.directed
    }

    /// Adjacency offset of vertex `v` (valid for `v <= n`). The offsets
    /// section starts 28 bytes in — 4-aligned, not 8-aligned — so this is a
    /// byte-slice decode, never an aligned `u64` load.
    #[inline]
    pub fn offset(&self, v: usize) -> usize {
        self.layout.offset(self.map.as_bytes(), v)
    }

    /// Zero-copy neighbor slice of vertex `v`, straight out of the mapping.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let bytes = self.map.as_bytes();
        words(&bytes[self.layout.neighbors(bytes, v as usize)])
    }

    /// Raw label ids of vertex `v` (sorted as written).
    #[inline]
    pub fn label_ids(&self, v: u32) -> &[u32] {
        words(&self.map.as_bytes()[self.layout.labels(v as usize)])
    }

    /// The label set of vertex `v` (materialized).
    pub fn label_set(&self, v: u32) -> LabelSet {
        LabelSet::from_labels(self.label_ids(v).iter().map(|&l| LabelId(l)))
    }

    /// Materializes the whole view into a heap [`Graph`] — identical to
    /// [`read_binary`] on the same file (the mmap-vs-heap differential).
    pub fn to_graph(&self) -> Graph {
        self.layout.to_graph(self.map.as_bytes())
    }
}

/// Loads a binary graph file through `mmap` and materializes it. Exists
/// mainly as the differential lever for [`MappedCsr`]; callers that want
/// out-of-core access keep the [`MappedCsr`] instead.
pub fn load_binary_mmap(path: impl AsRef<Path>) -> Result<Graph> {
    Ok(MappedCsr::open(path)?.to_graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::{lid, vid};

    fn sample() -> Graph {
        let mut b = GraphBuilder::new().directed();
        let v0 = b.add_vertex(lid(2));
        let v1 = b.add_vertex_with_labels(LabelSet::from_labels([lid(0), lid(3)]));
        let v2 = b.add_vertex(lid(1));
        b.add_edge(v0, v1);
        b.add_edge(v1, v2);
        b.add_edge(v2, v0);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.is_directed_input(), g.is_directed_input());
        for v in g.vertices() {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
            assert_eq!(g2.labels(v), g.labels(v));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC________________".to_vec();
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncated_input_errors() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("ceci_graph_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ceci");
        save_binary(&g, &path).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(g2.has_edge(vid(0), vid(1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::unlabeled(0, &[]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ceci_graph_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mmap_view_matches_heap_reader() {
        let core = crate::generators::kronecker_default(7, 5, 11);
        let g = crate::generators::attach_pendants(&core, 40, 12);
        let path = scratch("diff.ceci");
        save_binary(&g, &path).unwrap();
        let heap = load_binary(&path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.num_vertices(), heap.num_vertices());
        assert_eq!(mapped.num_edges(), heap.num_edges());
        assert_eq!(mapped.is_directed_input(), heap.is_directed_input());
        for v in heap.vertices() {
            let nbrs: Vec<u32> = heap.neighbors(v).iter().map(|n| n.0).collect();
            assert_eq!(mapped.neighbors(v.0), &nbrs[..], "neighbors of {v:?}");
            assert_eq!(mapped.label_set(v.0), *heap.labels(v), "labels of {v:?}");
        }
        // Full materialization path too.
        let g2 = load_binary_mmap(&path).unwrap();
        assert_eq!(g2.num_edges(), heap.num_edges());
        for v in heap.vertices() {
            assert_eq!(g2.neighbors(v), heap.neighbors(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_rejects_corrupt_files() {
        let g = sample();
        let path = scratch("bad.ceci");

        // Truncated mid-section.
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        assert!(MappedCsr::open(&path).is_err());

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = MappedCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        // Empty file (unmappable).
        std::fs::write(&path, b"").unwrap();
        assert!(MappedCsr::open(&path).is_err());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_directed_flag_roundtrips() {
        let g = sample(); // built with .directed()
        let path = scratch("directed.ceci");
        save_binary(&g, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert!(mapped.is_directed_input());
        assert!(mapped.to_graph().is_directed_input());
        std::fs::remove_file(&path).ok();
    }
}
