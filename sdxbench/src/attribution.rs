//! Update → batch attribution for the BGP stream, done entirely from
//! outside the daemon.
//!
//! Every fast-path compile gives each (affected viewer, changed prefix)
//! pair a fresh VMAC and installs its overlay rules at or above
//! `reconcile::DELTA_BASE`, all matching `dl_dst` = that VMAC. The stream
//! comes from one BGP session, so the daemon handles its updates in send
//! order, and every update changes exactly one pool prefix with the same
//! number `v` of affected viewers. A frame whose overlay adds carry `k·v`
//! distinct `dl_dst` values therefore carries the next `k` updates of the
//! stream. Sync frames and re-optimization waves install base-table rules
//! only (below `DELTA_BASE`) and carry no update.

use std::collections::BTreeSet;

use sdx_core::reconcile::DELTA_BASE;
use sdx_net::MacAddr;
use sdx_openflow::flowmod::{FlowMod, FlowModBatch};
use sdx_runtime::ChannelFrame;

/// Distinct `dl_dst` values among the overlay adds of one frame.
pub fn fresh_tags(frame: &ChannelFrame) -> usize {
    match frame {
        ChannelFrame::Apply { batch, .. } => overlay_tags(batch),
        ChannelFrame::Sync { .. } => 0,
    }
}

/// Distinct `dl_dst` values among the adds at or above `DELTA_BASE`.
pub fn overlay_tags(batch: &FlowModBatch) -> usize {
    batch
        .mods
        .iter()
        .filter_map(|m| match m {
            FlowMod::Add(e) if e.priority >= DELTA_BASE => e.pattern.dl_dst,
            _ => None,
        })
        .collect::<BTreeSet<MacAddr>>()
        .len()
}

/// Assigns received frames to the updates of the stream, in order.
#[derive(Debug)]
pub struct Attributor {
    per_update: usize,
    next: usize,
}

impl Attributor {
    /// `per_update` is the fresh tags one update produces (≥ 1).
    pub fn new(per_update: usize) -> Self {
        assert!(per_update >= 1, "an update must produce a fresh tag");
        Attributor {
            per_update,
            next: 0,
        }
    }

    /// The updates (by stream index) carried by a frame with `tags`
    /// fresh tags, or an error when the count is not a whole number of
    /// updates — the stream or the daemon broke the attribution
    /// premise.
    pub fn on_frame(&mut self, tags: usize) -> Result<std::ops::Range<usize>, String> {
        if !tags.is_multiple_of(self.per_update) {
            return Err(format!(
                "frame carries {tags} fresh tags, not a multiple of {} per update",
                self.per_update
            ));
        }
        let start = self.next;
        self.next += tags / self.per_update;
        Ok(start..self.next)
    }

    /// Updates attributed so far.
    pub fn attributed(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, HeaderMatch};
    use sdx_openflow::table::FlowEntry;

    fn add(priority: u32, mac: u64) -> FlowMod {
        FlowMod::Add(FlowEntry::new(
            priority,
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(mac as u32))),
            vec![vec![]],
        ))
    }

    fn apply(seq: u64, mods: Vec<FlowMod>) -> ChannelFrame {
        ChannelFrame::Apply {
            seq,
            batch: FlowModBatch { epoch: seq, mods },
        }
    }

    /// A fast-path frame for `updates` updates with `v` viewers each:
    /// several rules per fresh tag, as the overlay installs them.
    fn fastpath(seq: u64, first_tag: u64, updates: u64, v: u64) -> ChannelFrame {
        let mut mods = Vec::new();
        for t in first_tag..first_tag + updates * v {
            for r in 0..3 {
                mods.push(add(DELTA_BASE + (t * 4 + r) as u32, t));
            }
        }
        apply(seq, mods)
    }

    #[test]
    fn coalesced_batches_sync_frames_and_waves_interleave() {
        let v = 2;
        let mut a = Attributor::new(v as usize);
        let frames = [
            // Agent sync on connect: the whole base table, no overlays.
            ChannelFrame::Sync {
                seq: 0,
                batch: FlowModBatch {
                    epoch: 0,
                    mods: vec![add(100, 1), add(50, 2)],
                },
            },
            fastpath(1, 10, 1, v), // a lone update
            fastpath(2, 20, 3, v), // a coalesced burst of three
            // Re-optimization: overlay retirement as a sync frame, then
            // dependency-ordered waves of base-table mods.
            ChannelFrame::Sync {
                seq: 3,
                batch: FlowModBatch {
                    epoch: 5,
                    mods: vec![add(100, 1)],
                },
            },
            apply(4, vec![add(90, 30), add(80, 31)]),
            apply(
                5,
                vec![FlowMod::Delete {
                    priority: 50,
                    pattern: HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(2))),
                }],
            ),
            fastpath(6, 40, 2, v), // overlays restart at DELTA_BASE
        ];
        let got: Vec<_> = frames
            .iter()
            .map(|f| a.on_frame(fresh_tags(f)).expect("whole updates"))
            .collect();
        assert_eq!(got, vec![0..0, 0..1, 1..4, 4..4, 4..4, 4..4, 4..6]);
        assert_eq!(a.attributed(), 6);
    }

    #[test]
    fn repeated_tags_within_a_frame_count_once() {
        let mut mods = vec![add(DELTA_BASE + 1, 7), add(DELTA_BASE + 2, 7)];
        mods.push(add(DELTA_BASE - 1, 8)); // base rule: ignored
        assert_eq!(overlay_tags(&FlowModBatch { epoch: 1, mods }), 1);
    }

    #[test]
    fn partial_updates_are_an_error() {
        let mut a = Attributor::new(2);
        assert!(a.on_frame(fresh_tags(&fastpath(1, 0, 1, 3))).is_err());
        assert_eq!(a.attributed(), 0);
    }
}
