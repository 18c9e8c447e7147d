//! Hot-swap correctness under load, and server/CLI output equivalence.
//!
//! The load test is the PR's central claim: reader connections keep
//! issuing requests while an admin publishes successive bundles, and
//! **every** response must be wholly consistent with exactly one
//! published bundle version — the payload a response carries always
//! matches the `bundle=<epoch>` its header claims, with epochs moving
//! monotonically.  Torn reads are impossible by construction (epoch and
//! bundle travel in one `Arc` allocation); this test would catch a
//! regression that reintroduced them.
//!
//! The property test pins the other API-surface claim: a served
//! `validate`/`shred` response body is byte-identical to the one-shot
//! CLI output for the same inputs, across randomly generated workloads.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xmlprop::pipeline::{parse_keys_text, parse_rules_text, CorpusBundle, Jobs, RequestScratch};
use xmlprop::prelude::Document;
use xmlprop::server::{render, Client, Request, Server};
use xmlprop::workload::{generate, generate_corpus, CorpusConfig, DocConfig, WorkloadConfig};
use xmlprop::xmltree::to_xml;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(name)
}

fn read(name: &str) -> String {
    fs::read_to_string(data(name)).unwrap()
}

/// The validate payload the shared renderer produces for `keys` over the
/// book rules — the oracle each response is checked against, keyed by the
/// epoch its header claims.
fn validate_payload(keys_text: &str, rules_text: &str, doc_text: &str) -> String {
    let bundle = CorpusBundle::prepare(
        parse_keys_text(keys_text, "keys").unwrap(),
        parse_rules_text(rules_text, "rules").unwrap(),
    );
    let doc = Document::parse_str(doc_text).unwrap();
    let mut scratch = RequestScratch::for_bundle(&bundle);
    render::validate_report(&bundle, &doc, &mut scratch).1
}

#[test]
fn readers_never_block_or_observe_torn_bundles_across_live_reloads() {
    const READERS: usize = 4;
    const RELOADS: u64 = 3;
    let rules_text = read("book_rules.txt");
    let keys_a = read("book_keys.txt");
    // A deliberately different key set so the two payloads differ: a torn
    // publication (new epoch, old bundle or vice versa) becomes a payload
    // mismatch.
    let keys_b = "K1: (\u{3b5}, (//book, {@isbn}))\n".to_string();
    let doc_text = read("fig1.xml");

    let payload_a = validate_payload(&keys_a, &rules_text, &doc_text);
    let payload_b = validate_payload(&keys_b, &rules_text, &doc_text);
    assert_ne!(payload_a, payload_b, "the two bundles must be observable");

    // Epoch 1 serves keys_a; each reload alternates: even epochs keys_b,
    // odd epochs keys_a.
    let final_epoch = 1 + RELOADS;
    let payload_for = |epoch: u64| {
        if epoch % 2 == 1 {
            payload_a.clone()
        } else {
            payload_b.clone()
        }
    };

    let bundle = CorpusBundle::prepare(
        parse_keys_text(&keys_a, "keys").unwrap(),
        parse_rules_text(&rules_text, "rules").unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", bundle, Jobs::new(8).unwrap()).unwrap();
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs(60);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for reader in 0..READERS {
            let doc_text = &doc_text;
            let payload_for = &payload_for;
            readers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last_epoch = 0;
                let mut responses = 0u64;
                loop {
                    let resp = client
                        .send(&Request::Validate {
                            document: doc_text.clone(),
                        })
                        .unwrap();
                    let epoch = resp.epoch().expect("ok responses carry bundle=<epoch>");
                    assert!(
                        epoch >= last_epoch,
                        "reader {reader}: epoch went backwards ({last_epoch} -> {epoch})"
                    );
                    assert_eq!(
                        resp.payload,
                        payload_for(epoch),
                        "reader {reader}: payload inconsistent with claimed epoch {epoch}"
                    );
                    last_epoch = epoch;
                    responses += 1;
                    if epoch == final_epoch {
                        return responses;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "reader {reader}: final epoch {final_epoch} never observed \
                         ({responses} responses) — are readers blocked on the swap?"
                    );
                }
            }));
        }

        // The admin publishes while the readers are mid-flight.  Each
        // reload parses and prepares a full bundle, so readers get real
        // work to overlap with.
        let mut admin = Client::connect(addr).unwrap();
        for i in 0..RELOADS {
            let target_epoch = 2 + i;
            let keys = if target_epoch % 2 == 1 {
                &keys_a
            } else {
                &keys_b
            };
            let resp = admin
                .send(&Request::Reload {
                    keys: keys.clone(),
                    rules: rules_text.clone(),
                })
                .unwrap();
            assert_eq!(
                resp.epoch(),
                Some(target_epoch),
                "reloads publish sequential epochs: {}",
                resp.header
            );
            // Let readers serve a few requests against this epoch before
            // the next swap lands.
            std::thread::sleep(Duration::from_millis(25));
        }

        for (reader, handle) in readers.into_iter().enumerate() {
            let responses = handle.join().expect("reader panicked");
            assert!(responses > 0, "reader {reader} never got a response");
        }
    });
    server.shutdown();
}

#[test]
fn stale_connections_rederive_scratch_after_a_swap() {
    // One client connects, works against epoch 1, then the bundle is
    // swapped for a *different schema* (different labels, different
    // rules).  The same connection must answer correctly against epoch 2
    // — its cached scratch may not leak epoch-1 state.
    let rules_text = read("book_rules.txt");
    let keys_text = read("book_keys.txt");
    let doc_text = read("fig1.xml");
    let keys2 = "Q1: (\u{3b5}, (//thing, {@id}))\n";
    let rules2 = "rule thing(id) { xt := xr//thing; xi := xt/@id; id := value(xi); }\n";
    let doc2 = "<r><thing id='1'/><thing id='1'/></r>";

    let bundle = CorpusBundle::prepare(
        parse_keys_text(&keys_text, "keys").unwrap(),
        parse_rules_text(&rules_text, "rules").unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", bundle, Jobs::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = client
        .send(&Request::Validate {
            document: doc_text.clone(),
        })
        .unwrap();
    assert_eq!(before.epoch(), Some(1));
    assert!(before.header.contains("verdict=ok"));

    let reload = client
        .send(&Request::Reload {
            keys: keys2.into(),
            rules: rules2.into(),
        })
        .unwrap();
    assert_eq!(reload.epoch(), Some(2));

    let after = client
        .send(&Request::Validate {
            document: doc2.into(),
        })
        .unwrap();
    assert_eq!(after.epoch(), Some(2));
    assert!(
        after.header.contains("verdict=fail"),
        "duplicate @id must violate the swapped-in key: {}",
        after.header
    );
    assert_eq!(
        after.payload,
        validate_payload(keys2, rules2, doc2),
        "post-swap payload comes wholly from the new bundle"
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// For random workloads and documents, a served validate/shred
    /// response body equals the one-shot CLI stdout for the same inputs.
    #[test]
    fn served_responses_byte_match_one_shot_cli_output(
        fields in 8usize..12,
        depth in 2usize..4,
        keys in 6usize..9,
        seed in 0u64..1000,
        branching in 1usize..4,
    ) {
        let w = generate(&WorkloadConfig::new(fields, depth, keys).with_seed(seed));
        let (docs, _) = generate_corpus(&w, &CorpusConfig {
            documents: 1,
            base: DocConfig {
                branching,
                omission_probability: 0.25,
                seed: seed ^ 0xc0ffee,
                depth: None,
            },
        });
        let doc_text = to_xml(&docs[0]);
        let keys_text: String = w.sigma.iter().map(|k| format!("{k}\n")).collect();
        let rules_text = format!("{}", w.universal);

        // Round-trip sanity: the serialized fixtures parse back.
        let sigma = parse_keys_text(&keys_text, "keys").unwrap();
        let transformation = parse_rules_text(&rules_text, "rules").unwrap();
        prop_assert_eq!(sigma.len(), w.sigma.len());

        let dir = std::env::temp_dir().join(format!(
            "xmlprop-swap-prop-{}-{seed}-{fields}-{depth}-{keys}-{branching}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let doc_path = dir.join("doc.xml");
        let keys_path = dir.join("keys.txt");
        let rules_path = dir.join("rules.txt");
        fs::write(&doc_path, &doc_text).unwrap();
        fs::write(&keys_path, &keys_text).unwrap();
        fs::write(&rules_path, &rules_text).unwrap();

        let bundle = CorpusBundle::prepare(sigma, transformation);
        let server = Server::bind("127.0.0.1:0", bundle, Jobs::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let cli = |args: &[&str]| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_xmlprop-cli"))
                .args(args)
                .output()
                .expect("failed to launch xmlprop-cli");
            String::from_utf8(out.stdout).expect("CLI output is UTF-8")
        };

        let served = client
            .send(&Request::Validate { document: doc_text.clone() })
            .unwrap();
        let one_shot = cli(&[
            "validate",
            doc_path.to_str().unwrap(),
            keys_path.to_str().unwrap(),
        ]);
        prop_assert_eq!(&served.payload, &one_shot, "validate payload == CLI stdout");

        let served = client
            .send(&Request::Shred { document: doc_text.clone(), relation: None })
            .unwrap();
        let one_shot = cli(&[
            "shred",
            doc_path.to_str().unwrap(),
            rules_path.to_str().unwrap(),
        ]);
        prop_assert_eq!(&served.payload, &one_shot, "shred payload == CLI stdout");

        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
