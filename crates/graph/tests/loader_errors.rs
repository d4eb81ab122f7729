//! Loader failures must carry file *and* line context — a server loading
//! operator-supplied graph files needs actionable parse diagnostics, not a
//! bare "invalid digit".

use ceci_graph::{io, lid, vid, Graph, GraphError, LabelSet};

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn malformed_fixture_reports_file_and_line() {
    let path = fixture("malformed.graph");
    let err = io::load_labeled(&path).unwrap_err();
    let msg = err.to_string();
    // File context...
    assert!(
        msg.contains("malformed.graph"),
        "missing file context: {msg}"
    );
    // ...and the offending line (line 4 holds the bad label).
    assert!(msg.contains("line 4"), "missing line context: {msg}");
    assert!(msg.contains("label"), "missing cause: {msg}");
    // The error chain exposes the underlying parse error.
    match err {
        GraphError::File { path: p, source } => {
            assert!(p.ends_with("malformed.graph"));
            assert!(matches!(*source, GraphError::Parse { line: 4, .. }));
        }
        other => panic!("expected GraphError::File, got {other:?}"),
    }
}

#[test]
fn missing_file_reports_path() {
    let path = fixture("does_not_exist.graph");
    let err = io::load_labeled(&path).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("does_not_exist.graph"),
        "missing file context: {msg}"
    );
    assert!(matches!(err, GraphError::File { .. }));
}

#[test]
fn malformed_edge_list_reports_file_and_line() {
    // Reuse the labeled fixture as an edge list: line 3 (`t 3 2`) parses but
    // line 4 (`v 0 oops 1`) has a non-numeric second column.
    let path = fixture("malformed.graph");
    let err = io::load_edge_list(&path, false).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("malformed.graph") && msg.contains("line"),
        "missing context: {msg}"
    );
}

/// Crafted binary files: a header claiming more than the file holds, in
/// arithmetic that would wrap; offsets that decrease; a neighbour id past
/// `n`; a vertex without a label. The heap
/// reader and the mmap view each answer `GraphError::Format`, never a panic
/// or an allocation sized from the header alone.
#[test]
fn crafted_binary_files_fail_typed_in_both_readers() {
    // The path 0 - 1 - 2, one label a vertex. Its sections: n at 12, m2 at
    // 20, offsets at 28, neighbours at 60, the label total at 76, label
    // counts at 84, labels at 96.
    let labels = (0..3).map(|l| LabelSet::single(lid(l))).collect();
    let path = Graph::new(labels, &[(vid(0), vid(1)), (vid(1), vid(2))], false);
    let mut valid = Vec::new();
    io::write_binary(&path, &mut valid).unwrap();
    let patched = |words: &[(usize, u64)], width: usize| {
        let mut bytes = valid.clone();
        for &(at, word) in words {
            bytes[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
        }
        bytes
    };
    let mut huge_n = patched(&[(12, 1 << 62)], 8);
    huge_n.truncate(44);
    let cases = [
        ("n = 2^62 in 44 bytes", huge_n, "truncated"),
        ("n = u64::MAX", patched(&[(12, u64::MAX)], 8), "truncated"),
        ("m2 = 2^62", patched(&[(20, 1 << 62)], 8), "truncated"),
        ("2^62 labels", patched(&[(76, 1 << 62)], 8), "truncated"),
        ("0 1 0 4", patched(&[(44, 0)], 8), "offsets decrease"),
        ("nbr 7 of 3", patched(&[(72, 7)], 4), "id 7 out of range"),
        ("0 2 1", patched(&[(84, 0), (88, 2)], 4), "no label"),
    ];
    let dir = std::env::temp_dir().join(format!("ceci-crafted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("crafted.ceci");
    std::fs::write(&file, &valid).unwrap();
    let mapped = io::MappedCsr::open(&file).unwrap();
    assert_eq!(mapped.to_graph().num_edges(), 2);
    for (case, bytes, cause) in cases {
        std::fs::write(&file, &bytes).unwrap();
        let mapped = io::MappedCsr::open(&file).map(|m| m.to_graph());
        for answer in [io::read_binary(&bytes[..]), mapped] {
            // The mmap view names the file around the cause.
            let err = match answer {
                Err(GraphError::File { source, .. }) => Err(*source),
                other => other,
            };
            match err {
                Err(GraphError::Format(msg)) => assert!(msg.contains(cause), "{case}: {msg}"),
                other => panic!("{case}: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
