//! Failure injection: corrupted or adversarial byte streams must surface
//! as errors, never as panics, hangs, or silently-wrong data.

use proptest::prelude::*;
use simrank_search::graph::{gen, io};
use simrank_search::search::{
    load_chain, persist, snapshot, Diagonal, LoadOptions, SimRankParams, TopKIndex,
};
use srs_serve::{HttpClient, Server, ServerConfig};
use std::path::{Path, PathBuf};

fn sample_index_bytes() -> Vec<u8> {
    let g = gen::copying_web(60, 3, 0.8, 4);
    let params = SimRankParams { r_gamma: 10, r_bounds: 50, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 1, 1);
    let mut buf = Vec::new();
    persist::save(&idx, &mut buf).unwrap();
    buf
}

fn sample_graph_bytes() -> Vec<u8> {
    let g = gen::erdos_renyi(40, 160, 9);
    let mut buf = Vec::new();
    io::write_binary(&g, &mut buf).unwrap();
    buf
}

#[test]
fn index_every_truncation_point_errors() {
    let buf = sample_index_bytes();
    // Exhaustive truncation: every prefix must either load the full data
    // (only the complete buffer) or error gracefully.
    for cut in 0..buf.len() {
        assert!(persist::load(&buf[..cut]).is_err(), "truncated prefix of {cut} bytes decoded successfully");
    }
    assert!(persist::load(&buf[..]).is_ok());
}

#[test]
fn graph_every_truncation_point_errors() {
    let buf = sample_graph_bytes();
    for cut in 0..buf.len() {
        // Cuts landing exactly on a whole number of edges are
        // indistinguishable only if the header length matched — it won't,
        // because the header records the true edge count.
        assert!(io::read_binary(&buf[..cut]).is_err(), "cut={cut}");
    }
    assert!(io::read_binary(&buf[..]).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_random_single_byte_flips_never_panic(pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = sample_index_bytes();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        // Either rejected, or decoded into something structurally valid —
        // must not panic. (A flip in a float payload is undetectable and
        // legitimately loads.)
        let _ = persist::load(&buf[..]);
    }

    #[test]
    fn graph_random_single_byte_flips_never_panic(pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = sample_graph_bytes();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let _ = io::read_binary(&buf[..]);
    }

    #[test]
    fn arbitrary_bytes_never_panic_loaders(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = persist::load(&data[..]);
        let _ = io::read_binary(&data[..]);
        let _ = io::read_edge_list(&data[..]);
    }

    #[test]
    fn edge_list_with_arbitrary_text_never_panics(s in "\\PC{0,200}") {
        let _ = io::read_edge_list(s.as_bytes());
    }
}

/// Starts a server on `snapshot` replaying `deltas`, posts `edits` to
/// `/admin/ingest`, checks the reply names chain depth `depth`, and
/// shuts the server down.
fn serve_and_ingest(snapshot: &Path, deltas: &[PathBuf], edits: &str, depth: usize) {
    let config = ServerConfig {
        snapshot: snapshot.to_path_buf(),
        deltas: deltas.to_vec(),
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("the server starts on its chain");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = HttpClient::connect(addr).unwrap();
    let info = c.get("/info").unwrap();
    assert!(info.body_str().contains(&format!("\"chain_depth\":{}", deltas.len())), "{}", info.body_str());
    let resp = c.post_body("/admin/ingest", edits.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(resp.body_str().contains(&format!("\"chain_depth\":{depth}")), "{}", resp.body_str());
    assert_eq!(c.post("/admin/quit").unwrap().status, 200);
    handle.join().unwrap().unwrap();
}

/// A crash while `/admin/ingest` persists a chain link can leave only a
/// truncated `<link>.tmp` beside the chain, never a torn link at the
/// final path: the server restarts on its chain with the stray temp file
/// present, and the next ingest overwrites it with a complete link.
#[test]
fn torn_temp_file_beside_the_chain_does_not_block_restart() {
    let dir = std::env::temp_dir().join(format!("srs-torn-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.srs");
    let g = gen::copying_web(200, 4, 0.8, 3);
    let params = SimRankParams { r_bounds: 200, r_gamma: 25, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 1);
    io::write_atomic(&base, &snapshot::pack_to_bytes(&g, &idx)).unwrap();
    let link = |k: u32| dir.join(format!("base.srs.d{k:04}"));

    serve_and_ingest(&base, &[], "grow 201\n+ 200 3\n+ 5 200\n- 1 0\n", 1);
    let link1 = std::fs::read(link(1)).unwrap();

    // The crash: link 2's bytes only partly reached its temp file.
    let tmp2 = dir.join("base.srs.d0002.tmp");
    std::fs::write(&tmp2, &link1[..link1.len() / 3]).unwrap();
    assert!(!link(2).exists(), "a crash before the rename leaves no link 2");

    serve_and_ingest(&base, &[link(1)], "+ 7 200\n- 200 3\n", 2);
    assert!(!tmp2.exists(), "the stale temp file is overwritten and renamed away");
    let (_, _, chain, _) = load_chain(&base, &[link(1), link(2)], &LoadOptions::default()).unwrap();
    assert_eq!(chain.depth, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
