//! The seed changes a workload's inputs, never its checked outputs: figure
//! digests are identical across seeds, and the serve mix keeps its stated
//! class shares and cold/repeat split under every seed.

use perfbench::figure::{self, Suite};
use perfbench::serve::{self, Class, Item, Oracle, CLIENTS, COLD_PER_CLIENT, PER_CLIENT};
use std::collections::BTreeMap;
use workloads::Scale;

fn digests(suite: Suite, seed: u64) -> BTreeMap<String, u64> {
    let pass = figure::run_pass(suite, Scale::Tiny, seed, None, false);
    pass.cells
        .into_iter()
        .map(|c| {
            assert!(c.verified.is_ok(), "{}: {:?}", c.name, c.verified);
            (c.name, c.digest)
        })
        .collect()
}

#[test]
fn figure_digests_do_not_depend_on_the_seed() {
    assert_ne!(perfbench::permutation(28, 1), perfbench::permutation(28, 2));
    for suite in [Suite::Sync, Suite::SyncFree] {
        let a = digests(suite, 1);
        assert_eq!(a.len(), 2 * suite.build(Scale::Tiny).len());
        assert_eq!(a, digests(suite, 2), "{suite:?}: seed changed a digest");
    }
}

#[test]
fn serve_streams_keep_their_stated_class_shares() {
    let catalog = serve::catalog();
    for seed in [0, 1, 2, 42, 1 << 40] {
        for pass in 0..3 {
            let streams = serve::streams(seed, pass);
            assert_eq!(streams.len(), CLIENTS);
            for (c, stream) in streams.iter().enumerate() {
                for &(class, n) in PER_CLIENT {
                    let got = stream.iter().filter(|i| i.class == class).count();
                    assert_eq!(got, n, "seed {seed} pass {pass} client {c}: {class:?}");
                }
                // Of each simulation class, the cold requests are exactly
                // this client's half of the catalog, the first request is
                // cold, and every repeat follows the request it repeats.
                for &(class, n_cold) in COLD_PER_CLIENT {
                    let of_class: Vec<&Item> =
                        stream.iter().filter(|i| i.class == class).collect();
                    assert!(!of_class[0].repeat);
                    let mut cold: Vec<&str> = Vec::new();
                    for item in of_class {
                        if item.repeat {
                            assert!(cold.contains(&item.body.as_str()));
                        } else {
                            assert!(item.is_cold());
                            cold.push(&item.body);
                        }
                    }
                    assert_eq!(cold.len(), n_cold, "seed {seed} pass {pass}: {class:?}");
                    let mut mine: Vec<&str> = catalog
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .filter(|s| s.class == class)
                        .map(|s| s.body.as_str())
                        .collect();
                    cold.sort_unstable();
                    mine.sort_unstable();
                    assert_eq!(cold, mine);
                }
                assert!(stream
                    .iter()
                    .all(|i| !i.repeat || matches!(i.class, Class::Vector | Class::Lock)));
            }
        }
    }
    assert_ne!(serve::streams(1, 0), serve::streams(2, 0));
    assert_ne!(serve::streams(1, 0), serve::streams(1, 1));
    assert_eq!(serve::streams(1, 0), serve::streams(1, 0));
}

#[test]
fn serve_oracle_names_a_wrong_answer() {
    let cold = Item {
        class: Class::Vector,
        repeat: false,
        body: serve::catalog()[0].body.clone(),
    };
    let lint = serve::streams(5, 0)
        .into_iter()
        .flatten()
        .find(|i| i.class == Class::LintReject)
        .expect("a lint-rejected request");
    let bad = Item {
        class: Class::Malformed,
        repeat: false,
        body: "{\"kernel\": 1,".into(),
    };
    let oracle = Oracle::build(&[vec![cold.clone(), lint.clone(), bad.clone()]]);
    let req = simt_serve::SimRequest::from_json(&cold.body).unwrap();
    let simt_serve::RunOutcome::Ok(body) = simt_serve::run_request(&req, None) else {
        panic!("catalog entry simulates");
    };
    assert!(oracle.check(&cold, 200, &body).is_ok());
    let perturbed = body.replacen("\"cycles\":", "\"cycles\":1", 1);
    assert!(oracle
        .check(&cold, 200, &perturbed)
        .unwrap_err()
        .contains("body differs"));
    assert!(oracle.check(&cold, 503, &body).is_err());
    assert!(oracle.check(&bad, 400, "{}").is_ok());
    assert!(oracle.check(&bad, 200, "{}").is_err());
    assert!(oracle
        .check(&lint, 422, "{\"error\":{\"kind\":\"lint_rejected\"}}")
        .is_err());
}
