//! The correctness gate and the recall reference.
//!
//! Served `/query` hits must be byte-identical to the same query made
//! directly on an `EngineHandle` over the state the server should be
//! serving (the base snapshot plus the delta files its ingests wrote),
//! and every ingest reply must advance `generation` and `chain_depth` by
//! exactly one. Recall is measured against the linearized exact solver.

use srs_exact::{linearized, ExactParams};
use srs_graph::{Graph, VertexId};
use srs_search::{Hit, SimRankParams};

/// The hits array exactly as the server renders it inside `"hits":[…]`.
pub fn hits_json(hits: &[Hit]) -> String {
    let parts: Vec<String> =
        hits.iter().map(|h| format!("{{\"vertex\":{},\"score\":{}}}", h.vertex, h.score)).collect();
    parts.join(",")
}

/// The bytes inside `"hits":[…]` of a `/query` answer.
pub fn served_hits(body: &[u8]) -> Option<&[u8]> {
    const OPEN: &[u8] = b"\"hits\":[";
    let start = body.windows(OPEN.len()).position(|w| w == OPEN)? + OPEN.len();
    let rest = &body[start..];
    rest.strip_suffix(b"]}")
}

/// Compares one served answer against the direct engine's hits.
pub fn compare_hits(vertex: VertexId, served_body: &[u8], direct: &[Hit]) -> Result<(), String> {
    let expected = hits_json(direct);
    match served_hits(served_body) {
        Some(got) if got == expected.as_bytes() => Ok(()),
        Some(got) => Err(format!(
            "query {vertex}: served hits [{}] differ from direct engine hits [{expected}]",
            String::from_utf8_lossy(got)
        )),
        None => Err(format!("query {vertex}: no hits array in {}", String::from_utf8_lossy(served_body))),
    }
}

/// The vertex ids of a served hits array, in order.
pub fn hit_vertices(hits: &[u8]) -> Vec<VertexId> {
    let text = String::from_utf8_lossy(hits);
    text.split("\"vertex\":").skip(1).filter_map(|s| s.split(',').next()?.parse().ok()).collect()
}

/// An unsigned integer field of a flat JSON object.
pub fn json_u64(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &body[body.find(&key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A string field of a flat JSON object (paths carry no escapes here).
pub fn json_str(body: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\":\"");
    let rest = &body[body.find(&key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Checks that the ingest replies, in order, each advanced `generation`
/// and `chain_depth` by one from the given starting point. Returns the
/// delta file each reply names.
pub fn check_ingest_replies(
    replies: &[&str],
    mut generation: u64,
    mut depth: u64,
) -> Result<Vec<String>, String> {
    let mut deltas = Vec::with_capacity(replies.len());
    for (j, body) in replies.iter().enumerate() {
        let (Some(g), Some(d), Some(path)) =
            (json_u64(body, "generation"), json_u64(body, "chain_depth"), json_str(body, "delta"))
        else {
            return Err(format!("ingest {j}: malformed reply {body}"));
        };
        if g != generation + 1 || d != depth + 1 {
            return Err(format!(
                "ingest {j}: generation {generation}→{g}, chain_depth {depth}→{d}; each must advance by one"
            ));
        }
        (generation, depth) = (g, d);
        deltas.push(path);
    }
    Ok(deltas)
}

/// The exact reference set of query `u`: its top-`k` vertices with score
/// at least θ under the linearized solver with the uniform `(1 − c)`
/// diagonal.
pub fn reference_topk(g: &Graph, u: VertexId, params: &SimRankParams, k: usize) -> Vec<VertexId> {
    let ep = ExactParams::new(params.c, params.t);
    let diag = vec![1.0 - params.c; g.num_vertices() as usize];
    let scores = linearized::single_source(g, u, &ep, &diag);
    let mut top: Vec<(f64, VertexId)> = scores
        .iter()
        .enumerate()
        .filter(|&(v, &s)| v as VertexId != u && s >= params.theta)
        .map(|(v, &s)| (s, v as VertexId))
        .collect();
    top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    top.truncate(k);
    top.into_iter().map(|(_, v)| v).collect()
}

/// Share of `reference` found in `served`; `None` for an empty reference.
pub fn recall(served: &[VertexId], reference: &[VertexId]) -> Option<f64> {
    if reference.is_empty() {
        return None;
    }
    let found = reference.iter().filter(|v| served.contains(v)).count();
    Some(found as f64 / reference.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits() -> Vec<Hit> {
        vec![Hit { vertex: 3, score: 0.5 }, Hit { vertex: 9, score: 0.125 }, Hit { vertex: 4, score: 0.1 }]
    }

    fn body(hits: &str) -> Vec<u8> {
        format!("{{\"vertex\":7,\"k\":20,\"generation\":1,\"hits\":[{hits}]}}").into_bytes()
    }

    #[test]
    fn identical_hits_pass() {
        let served = body(&hits_json(&hits()));
        assert_eq!(compare_hits(7, &served, &hits()), Ok(()));
        assert_eq!(hit_vertices(served_hits(&served).unwrap()), vec![3, 9, 4]);
        assert_eq!(compare_hits(7, &body(""), &[]), Ok(()));
    }

    #[test]
    fn gate_trips_on_a_perturbed_hit_list() {
        let served = body(&hits_json(&hits()));
        let mut score = hits();
        score[1].score = f64::from_bits(score[1].score.to_bits() + 1);
        let mut order = hits();
        order.swap(0, 1);
        let mut missing = hits();
        missing.pop();
        let mut vertex = hits();
        vertex[2].vertex = 5;
        for perturbed in [score, order, missing, vertex] {
            assert!(compare_hits(7, &served, &perturbed).is_err(), "{perturbed:?} passed the gate");
        }
        assert!(compare_hits(7, b"{\"error\":\"x\"}", &hits()).is_err());
    }

    #[test]
    fn ingest_replies_must_advance_by_one() {
        let reply = |g: u64, d: u64| {
            format!(
                "{{\"generation\":{g},\"chain_depth\":{d},\"dirty\":3,\"delta\":\"/w/base.srs.d{d:04}\"}}"
            )
        };
        let (a, b, c) = (reply(2, 1), reply(3, 2), reply(5, 3));
        assert_eq!(
            check_ingest_replies(&[&a, &b], 1, 0),
            Ok(vec!["/w/base.srs.d0001".to_string(), "/w/base.srs.d0002".to_string()])
        );
        assert!(check_ingest_replies(&[&a, &c], 1, 0).is_err(), "generation skipped");
        assert!(check_ingest_replies(&[&b], 1, 0).is_err(), "depth skipped");
        assert!(check_ingest_replies(&["{}"], 1, 0).is_err());
    }

    #[test]
    fn recall_against_the_exact_reference() {
        let g = srs_graph::gen::copying_web(300, 4, 0.8, 3);
        let params = SimRankParams::default();
        let (u, reference) = (0..300)
            .map(|u| (u, reference_topk(&g, u, &params, 20)))
            .find(|(_, r)| r.len() >= 2)
            .expect("some vertex has similar vertices");
        assert!(reference.len() <= 20 && !reference.contains(&u));
        assert_eq!(recall(&reference, &reference), Some(1.0));
        assert_eq!(recall(&reference[..1], &reference), Some(1.0 / reference.len() as f64));
        assert_eq!(recall(&[], &[]), None);
    }
}
