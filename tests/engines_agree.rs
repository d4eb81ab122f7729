//! Cross-engine agreement: CECI (all modes), the bare/PsgL/TurboIso/CFL/
//! DualSim baselines, and the brute-force reference must produce identical
//! result sets on a spread of deterministic random graphs and queries.

use ceci::baselines::*;
use ceci::prelude::*;
use ceci_graph::generators::{
    barabasi_albert, erdos_renyi, inject_random_labels, kronecker_default, watts_strogatz,
};

fn graphs() -> Vec<(String, Graph)> {
    vec![
        ("er_sparse".into(), erdos_renyi(60, 120, 11)),
        ("er_dense".into(), erdos_renyi(40, 240, 22)),
        ("rmat".into(), kronecker_default(7, 6, 33)),
        (
            "er_labeled".into(),
            inject_random_labels(&erdos_renyi(60, 180, 44), 3, 5),
        ),
        ("ba".into(), barabasi_albert(70, 2, 55)),
        ("ws".into(), watts_strogatz(60, 4, 0.2, 66)),
    ]
}

fn queries() -> Vec<(String, QueryGraph)> {
    let mut out: Vec<(String, QueryGraph)> = PaperQuery::ALL
        .iter()
        .map(|q| (q.name().to_string(), q.build()))
        .collect();
    out.push(("path3".into(), ceci_query::catalog::path(3)));
    out.push(("star3".into(), ceci_query::catalog::star(3)));
    out.push((
        "labeled_tri".into(),
        QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (1, 2), (2, 0)]).unwrap(),
    ));
    out
}

#[test]
fn all_engines_agree_on_random_graphs() {
    for (gname, graph) in graphs() {
        for (qname, query) in queries() {
            let plan = QueryPlan::new(query.clone(), &graph);
            let expected = enumerate_all(&graph, plan.query(), plan.symmetry_constraints());
            let ctx = format!("{gname}/{qname}");

            // CECI, intersection mode, sequential.
            let ceci = Ceci::build(&graph, &plan);
            let got = ceci::core::collect_embeddings(&graph, &plan, &ceci);
            assert_eq!(got, expected, "ceci-intersect on {ctx}");

            // CECI, edge-verification mode.
            let mut sink = CollectSink::unbounded();
            enumerate_sequential(
                &graph,
                &plan,
                &ceci,
                EnumOptions {
                    verify: VerifyMode::EdgeVerification,
                    ..Default::default()
                },
                &mut sink,
            );
            assert_eq!(
                ceci::core::canonicalize(sink.into_embeddings()),
                expected,
                "ceci-everify on {ctx}"
            );

            // CECI parallel FGD.
            let par = enumerate_parallel(
                &graph,
                &plan,
                &ceci,
                &ParallelOptions {
                    workers: 4,
                    strategy: Strategy::FineDynamic { beta: 0.3 },
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(par.embeddings.unwrap(), expected, "ceci-parallel on {ctx}");

            // Baselines.
            let bare = enumerate_bare(
                &graph,
                &plan,
                &BareOptions {
                    workers: 2,
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(bare.embeddings.unwrap(), expected, "bare on {ctx}");

            let psgl = enumerate_psgl(
                &graph,
                &plan,
                &PsglOptions {
                    workers: 2,
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(psgl.embeddings.unwrap(), expected, "psgl on {ctx}");

            let turbo = enumerate_turboiso(
                &graph,
                &plan,
                &TurboOptions {
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(turbo.embeddings.unwrap(), expected, "turboiso on {ctx}");

            let cfl = enumerate_cfl(
                &graph,
                &plan,
                &CflOptions {
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(cfl.embeddings.unwrap(), expected, "cfl on {ctx}");

            let dual = enumerate_dualsim(&graph, &plan, &DualSimOptions::default());
            assert_eq!(
                dual.total_embeddings,
                expected.len() as u64,
                "dualsim on {ctx}"
            );

            let boosted = enumerate_boosted(
                &graph,
                &plan,
                &BoostOptions {
                    collect: true,
                    ..Default::default()
                },
            );
            assert_eq!(boosted.embeddings.unwrap(), expected, "boosted on {ctx}");
        }
    }
}

#[test]
fn first_k_prefixes_are_valid_everywhere() {
    let graph = kronecker_default(7, 6, 77);
    for (qname, query) in queries() {
        let plan = QueryPlan::new(query, &graph);
        let all = enumerate_all(&graph, plan.query(), plan.symmetry_constraints());
        if all.len() < 3 {
            continue;
        }
        let k = (all.len() / 2).max(1) as u64;
        let ceci = Ceci::build(&graph, &plan);
        let par = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 3,
                limit: Some(k),
                collect: true,
                ..Default::default()
            },
        );
        let got = par.embeddings.unwrap();
        assert_eq!(got.len(), k as usize, "{qname}");
        for emb in &got {
            assert!(
                all.binary_search(emb).is_ok(),
                "{qname}: reported embedding {emb:?} is not in the reference set"
            );
        }
    }
}

#[test]
fn ablation_variants_agree() {
    // Fig 19's cumulative variants all count the same embeddings.
    let graph = inject_random_labels(&erdos_renyi(80, 320, 3), 2, 9);
    let query = PaperQuery::Qg3.build();
    let plan = QueryPlan::new(query, &graph);
    let expected = enumerate_all(&graph, plan.query(), plan.symmetry_constraints()).len() as u64;
    for (build_nte, refine, verify) in [
        (false, false, VerifyMode::EdgeVerification),
        (false, true, VerifyMode::EdgeVerification),
        (true, true, VerifyMode::Intersection),
        (true, false, VerifyMode::Intersection),
    ] {
        let ceci = Ceci::build_with(&graph, &plan, BuildOptions { build_nte, refine });
        let mut sink = CountSink::unbounded();
        enumerate_sequential(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                verify,
                ..Default::default()
            },
            &mut sink,
        );
        assert_eq!(
            sink.count(),
            expected,
            "variant nte={build_nte} refine={refine} verify={verify:?}"
        );
    }
}
