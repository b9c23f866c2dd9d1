//! The report payload broadcast by the server each period.
//!
//! The adaptive schemes choose among report kinds period by period (§3),
//! so the downlink carries a sum type. Size dispatch lives here so the
//! simulator charges every kind through one call.

use crate::at::{AtIndex, AtReport};
use crate::bitseq::{BitSequences, BsIndex};
use crate::sig::{SigReport, Signer};
use crate::window::{WindowIndex, WindowReport};
use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_sim::SimTime;

/// One invalidation report, of whichever kind the scheme broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportPayload {
    /// A `TS` window report (plain or AAW-enlarged — distinguished by the
    /// dummy record inside).
    Window(WindowReport),
    /// A bit-sequences report.
    BitSeq(BitSequences),
    /// An amnesic-terminals report.
    At(AtReport),
    /// A signatures report (carries its signer parameters for size
    /// accounting).
    Sig(SigReport, Signer),
}

impl ReportPayload {
    /// Broadcast timestamp of the report.
    pub fn broadcast_at(&self) -> SimTime {
        match self {
            ReportPayload::Window(r) => r.broadcast_at,
            ReportPayload::BitSeq(r) => r.broadcast_at,
            ReportPayload::At(r) => r.broadcast_at,
            ReportPayload::Sig(r, _) => r.broadcast_at,
        }
    }

    /// Body size in bits (header added by the message layer).
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        match self {
            ReportPayload::Window(r) => r.size_bits(p),
            ReportPayload::BitSeq(r) => r.size_bits(p),
            ReportPayload::At(r) => r.size_bits(p),
            ReportPayload::Sig(r, signer) => r.size_bits(signer, p),
        }
    }

    /// `true` for a bit-sequences report (the adaptive-decision metric
    /// "how often did the server fall back to BS" keys off this).
    pub fn is_bitseq(&self) -> bool {
        matches!(self, ReportPayload::BitSeq(_))
    }

    /// `true` for an AAW-enlarged window report.
    pub fn is_enlarged_window(&self) -> bool {
        matches!(self, ReportPayload::Window(w) if w.dummy.is_some())
    }

    /// Builds the per-kind shared lookup index for this report —
    /// [`PreparedReport::new`] in method form.
    pub fn prepare(&self) -> PreparedReport<'_> {
        PreparedReport::new(self)
    }
}

/// The per-kind shared lookup index of one broadcast report.
enum PreparedIndex {
    Window(WindowIndex),
    BitSeq(BsIndex),
    At(AtIndex),
    /// Signature reports are applied via the signer directly; there is
    /// nothing to pre-index.
    Sig,
}

/// A [`ReportPayload`] paired with its build-once lookup index.
///
/// One prepared report can be applied by many clients: each client's
/// pass is then `O(|cache| · log |report|)` with no per-client sorting,
/// hashing or allocation. This is the plan-less reference path
/// (`Client::on_report_into`); the engine's broadcast fan-out decodes
/// each report once into a `PlanCache` instead and builds no index.
pub struct PreparedReport<'a> {
    payload: &'a ReportPayload,
    index: PreparedIndex,
}

impl<'a> PreparedReport<'a> {
    /// Indexes `payload` — `O(|report| · log |report|)`, once per
    /// report.
    pub fn new(payload: &'a ReportPayload) -> Self {
        let index = match payload {
            ReportPayload::Window(w) => PreparedIndex::Window(w.index()),
            ReportPayload::BitSeq(bs) => PreparedIndex::BitSeq(bs.index()),
            ReportPayload::At(at) => PreparedIndex::At(at.index()),
            ReportPayload::Sig(..) => PreparedIndex::Sig,
        };
        PreparedReport { payload, index }
    }

    /// The underlying report.
    pub fn payload(&self) -> &'a ReportPayload {
        self.payload
    }

    /// The shared window index ([`ReportPayload::Window`] only).
    pub fn window_index(&self) -> Option<&WindowIndex> {
        match &self.index {
            PreparedIndex::Window(idx) => Some(idx),
            _ => None,
        }
    }

    /// The shared bit-sequences index ([`ReportPayload::BitSeq`] only).
    pub fn bs_index(&self) -> Option<&BsIndex> {
        match &self.index {
            PreparedIndex::BitSeq(idx) => Some(idx),
            _ => None,
        }
    }

    /// The shared AT membership index ([`ReportPayload::At`] only).
    pub fn at_index(&self) -> Option<&AtIndex> {
        match &self.index {
            PreparedIndex::At(idx) => Some(idx),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_model::ItemId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn p() -> SizeParams {
        SizeParams {
            db_size: 1024,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        }
    }

    #[test]
    fn dispatch_matches_inner_types() {
        let w = WindowReport {
            broadcast_at: t(100.0),
            window_start: t(0.0),
            records: vec![(ItemId(1), t(50.0))],
            dummy: None,
        };
        let payload = ReportPayload::Window(w.clone());
        assert_eq!(payload.broadcast_at(), t(100.0));
        assert_eq!(payload.size_bits(&p()), w.size_bits(&p()));
        assert!(!payload.is_bitseq());
        assert!(!payload.is_enlarged_window());
    }

    #[test]
    fn enlarged_window_detection() {
        let w = WindowReport {
            broadcast_at: t(100.0),
            window_start: t(0.0),
            records: vec![],
            dummy: Some(t(10.0)),
        };
        assert!(ReportPayload::Window(w).is_enlarged_window());
    }

    #[test]
    fn bitseq_detection() {
        let bs = BitSequences::from_recency(t(100.0), 16, vec![]);
        let payload = ReportPayload::BitSeq(bs);
        assert!(payload.is_bitseq());
        assert_eq!(payload.broadcast_at(), t(100.0));
    }
}
