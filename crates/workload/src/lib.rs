//! Synthetic workloads reproducing the experimental setup of Section 6.
//!
//! The paper evaluates its algorithms on synthetic inputs parameterised by
//! three quantities:
//!
//! * **fields** — the number of attributes of the universal relation
//!   (5–500 in Fig. 7(a), up to 1000 in the in-text Oracle-limit check);
//! * **depth** — the depth of the table tree (2–20 in Fig. 7(b), values
//!   chosen "based on the average tree depth found in real XML data");
//! * **keys** — the number of XML keys (10–100 in Fig. 7(c)).
//!
//! The authors' generator is not published, so this crate provides the
//! closest synthetic equivalent: a hierarchy of `depth` nested entity levels, each identified
//! within its parent by an `@id…` attribute, with the remaining fields
//! spread over the levels as attribute or element children, and a key set
//! consisting of the transitive chain of identifying keys plus additional
//! alternative keys up to the requested count.
//!
//! It also provides a document generator ([`generate_document`]) that
//! produces XML trees *satisfying* the generated key set, which the property
//! tests use to check soundness of the propagation algorithms end to end,
//! a corpus generator ([`generate_corpus`]) materializing many such
//! documents with per-document seeds (the input of the parallel corpus
//! pipeline and its benches).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod docs;
mod synth;

pub use corpus::{corpus_doc_config, generate_corpus, CorpusConfig, CorpusReport};
pub use docs::{generate_document, generate_document_with_report, DocConfig, DocReport};
pub use synth::{generate, random_fd, target_fd, Workload, WorkloadConfig};
