//! The shared-state / per-request boundary: [`RequestScratch`].
//!
//! Every consumer of prepared state — the corpus runner's worker threads,
//! the resident server's connection handlers, a caller embedding the
//! library in its own service — has the same two-part shape:
//!
//! * **immutable shared state**, prepared once and read by many threads:
//!   the [`crate::CorpusBundle`] with its key index, shred plans,
//!   propagation engines and label universe;
//! * **per-request scratch**, owned by one thread and reused across its
//!   requests: a private [`LabelUniverse`] clone to intern novel document
//!   labels into, and a [`ShredScratch`] holding evaluation frontiers and
//!   the per-document `value()` memo.
//!
//! [`RequestScratch`] is the scratch type for a bundle, made by
//! [`RequestScratch::for_bundle`].  A scratch is *derived from* a
//! particular bundle (its universe clone must agree with the bundle's
//! compiled ids), so holders of hot-swapped bundles re-derive their
//! scratch when the published epoch moves — see [`crate::SwapCell`] and
//! the server crate.

use crate::bundle::CorpusBundle;
use xmlprop_xmltransform::ShredScratch;
use xmlprop_xmltree::{DocIndex, Document, LabelUniverse};

/// One thread's mutable state for processing documents against a
/// [`CorpusBundle`], reused across all that thread's requests.
#[derive(Debug)]
pub struct RequestScratch {
    pub(crate) universe: LabelUniverse,
    pub(crate) shred: ShredScratch,
}

impl RequestScratch {
    /// A fresh scratch for `bundle`: a private clone of its label universe
    /// (ids are append-only; labels only a document uses never influence
    /// any output) plus empty shred buffers.
    pub fn for_bundle(bundle: &CorpusBundle) -> Self {
        RequestScratch {
            universe: bundle.worker_universe(),
            shred: ShredScratch::new(),
        }
    }

    /// Builds a [`DocIndex`] for `doc` against this scratch's private
    /// universe — the per-document preparation both shredding and key
    /// validation run on.
    pub fn index_document(&mut self, doc: &Document) -> DocIndex {
        DocIndex::build(doc, &mut self.universe)
    }

    /// The shred scratch, for callers driving
    /// [`xmlprop_xmltransform::ShredPlan::shred_with`] directly.
    pub fn shred_scratch(&mut self) -> &mut ShredScratch {
        &mut self.shred
    }
}
