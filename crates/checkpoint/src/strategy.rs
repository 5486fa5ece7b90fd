//! Capture engines: full, incremental, and forked/COW checkpointing.
//!
//! Section II-B2 describes the three Plank variants and their memory
//! economics: *normal* needs three images' worth of memory (process +
//! current + previous checkpoint), *incremental* ships only dirtied pages,
//! and *forked* copy-on-write needs 2I during checkpointing but lets
//! execution continue immediately, trading overhead for latency.

use std::sync::Arc;

use crate::payload::{Checkpoint, CheckpointPayload, PageDelta};
use dvdc_vcluster::ids::VmId;
use dvdc_vcluster::memory::MemoryImage;

/// Which capture variant to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Whole-image snapshot every epoch (Plank's "normal").
    Full,
    /// Dirty pages only, after an initial full image.
    Incremental,
    /// Copy-on-write fork: payload equals the incremental one, but the
    /// guest resumes immediately — capture overhead is near zero while
    /// latency still covers the full transfer (Section II-B2's fork
    /// variant).
    Forked,
}

impl Mode {
    /// The steady-state memory multiple this mode needs, in units of the
    /// image size I, per the paper's discussion: normal keeps process +
    /// current + previous = 3I; forked needs 2I during checkpointing;
    /// incremental needs I plus the dirtied fraction `delta` twice
    /// (old-page buffer + checkpoint buffer).
    pub fn memory_multiple(self, delta: f64) -> f64 {
        match self {
            Mode::Full => 3.0,
            Mode::Forked => 2.0,
            Mode::Incremental => 1.0 + 2.0 * delta.clamp(0.0, 1.0),
        }
    }

    /// True if the guest is paused for the whole capture (contributes to
    /// overhead); forked captures copy lazily and only pause for the fork
    /// itself.
    pub fn pauses_guest(self) -> bool {
        !matches!(self, Mode::Forked)
    }
}

/// Stateful per-cluster capture engine. Tracks, per VM, whether a full
/// base image has been shipped yet (incremental modes fall back to a full
/// capture on first contact — and after a rollback).
#[derive(Debug, Clone)]
pub struct Checkpointer {
    mode: Mode,
    /// Epoch of the last capture per VM index; `None` until first capture.
    last_epoch: Vec<Option<u64>>,
}

impl Checkpointer {
    /// Creates an engine using `mode`.
    pub fn new(mode: Mode) -> Self {
        Checkpointer {
            mode,
            last_epoch: Vec::new(),
        }
    }

    /// The engine's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Captures a checkpoint of `mem` for `vm` at `epoch`, consuming (and
    /// clearing) the dirty bitmap. The first capture of a VM is always a
    /// full image.
    pub fn capture(&mut self, vm: VmId, epoch: u64, mem: &mut MemoryImage) -> Checkpoint {
        let idx = vm.index();
        if idx >= self.last_epoch.len() {
            self.last_epoch.resize(idx + 1, None);
        }
        let payload = match (self.mode, self.last_epoch[idx]) {
            (Mode::Full, _) | (_, None) => {
                let image = Arc::from(mem.snapshot());
                CheckpointPayload::Full {
                    image,
                    page_size: mem.page_size(),
                }
            }
            (Mode::Incremental | Mode::Forked, Some(base_epoch)) => {
                let pages = mem
                    .dirty_pages()
                    .into_iter()
                    .map(|i| PageDelta {
                        index: i,
                        bytes: Arc::from(mem.page(dvdc_vcluster::ids::PageIndex(i))),
                    })
                    .collect();
                CheckpointPayload::Incremental {
                    base_epoch,
                    page_size: mem.page_size(),
                    image_len: mem.size_bytes(),
                    pages,
                }
            }
        };
        mem.clear_dirty();
        self.last_epoch[idx] = Some(epoch);
        Checkpoint { vm, epoch, payload }
    }

    /// Forgets capture history for `vm` — used after a rollback, when the
    /// dirty bitmap no longer describes a delta against the stored base.
    pub fn reset_vm(&mut self, vm: VmId) {
        if let Some(slot) = self.last_epoch.get_mut(vm.index()) {
            *slot = None;
        }
    }

    /// Forgets all capture history (cluster-wide rollback).
    pub fn reset_all(&mut self) {
        self.last_epoch.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_vcluster::ids::PageIndex;

    #[test]
    fn first_capture_is_always_full() {
        for mode in [Mode::Full, Mode::Incremental, Mode::Forked] {
            let mut mem = MemoryImage::patterned(4, 16, 1);
            let mut c = Checkpointer::new(mode);
            let ckpt = c.capture(VmId(0), 0, &mut mem);
            assert!(ckpt.payload.is_full(), "mode={mode:?}");
            assert_eq!(ckpt.payload.size_bytes(), 64);
        }
    }

    #[test]
    fn full_mode_always_ships_whole_image() {
        let mut mem = MemoryImage::patterned(4, 16, 1);
        let mut c = Checkpointer::new(Mode::Full);
        c.capture(VmId(0), 0, &mut mem);
        mem.write_page(1, &[3u8; 16]);
        let second = c.capture(VmId(0), 1, &mut mem);
        assert!(second.payload.is_full());
        assert_eq!(second.payload.size_bytes(), 64);
    }

    #[test]
    fn incremental_ships_only_dirty_pages() {
        let mut mem = MemoryImage::patterned(8, 16, 1);
        let mut c = Checkpointer::new(Mode::Incremental);
        c.capture(VmId(0), 0, &mut mem);
        mem.write_page(2, &[9u8; 16]);
        mem.write_page(7, &[8u8; 16]);
        let inc = c.capture(VmId(0), 1, &mut mem);
        match &inc.payload {
            CheckpointPayload::Incremental {
                base_epoch, pages, ..
            } => {
                assert_eq!(*base_epoch, 0);
                let idxs: Vec<usize> = pages.iter().map(|p| p.index).collect();
                assert_eq!(idxs, vec![2, 7]);
                assert_eq!(pages[0].bytes.as_ref(), &[9u8; 16]);
            }
            other => panic!("expected incremental, got {other:?}"),
        }
        assert_eq!(mem.dirty_count(), 0, "capture consumes the dirty bitmap");
    }

    #[test]
    fn clean_epoch_gives_empty_increment() {
        let mut mem = MemoryImage::patterned(4, 16, 1);
        let mut c = Checkpointer::new(Mode::Incremental);
        c.capture(VmId(0), 0, &mut mem);
        let inc = c.capture(VmId(0), 1, &mut mem);
        assert_eq!(inc.payload.size_bytes(), 0);
        assert_eq!(inc.payload.page_count(), 0);
    }

    #[test]
    fn captures_track_vms_independently() {
        let mut a = MemoryImage::patterned(4, 16, 1);
        let mut b = MemoryImage::patterned(4, 16, 2);
        let mut c = Checkpointer::new(Mode::Incremental);
        c.capture(VmId(0), 0, &mut a);
        // VM 1's first capture is full even though VM 0 already has a base.
        let first_b = c.capture(VmId(1), 0, &mut b);
        assert!(first_b.payload.is_full());
    }

    #[test]
    fn reset_forces_full_recapture() {
        let mut mem = MemoryImage::patterned(4, 16, 1);
        let mut c = Checkpointer::new(Mode::Incremental);
        c.capture(VmId(0), 0, &mut mem);
        c.reset_vm(VmId(0));
        let after = c.capture(VmId(0), 1, &mut mem);
        assert!(after.payload.is_full());

        c.reset_all();
        let again = c.capture(VmId(0), 2, &mut mem);
        assert!(again.payload.is_full());
    }

    #[test]
    fn incremental_payload_reconstructs_image() {
        let mut mem = MemoryImage::patterned(8, 16, 5);
        let mut c = Checkpointer::new(Mode::Incremental);
        let base = c.capture(VmId(0), 0, &mut mem);
        let base_bytes = base.payload.apply_to(&[]);
        mem.write_page(0, &[1u8; 16]);
        mem.write_page(4, &[2u8; 16]);
        let inc = c.capture(VmId(0), 1, &mut mem);
        let rebuilt = inc.payload.apply_to(&base_bytes);
        assert_eq!(rebuilt, mem.as_bytes());
    }

    #[test]
    fn memory_multiples_match_paper() {
        assert_eq!(Mode::Full.memory_multiple(0.5), 3.0);
        assert_eq!(Mode::Forked.memory_multiple(0.5), 2.0);
        assert_eq!(Mode::Incremental.memory_multiple(0.25), 1.5);
        // Incremental degrades to full-ish cost when everything is dirty.
        assert_eq!(Mode::Incremental.memory_multiple(1.0), 3.0);
        assert_eq!(Mode::Incremental.memory_multiple(2.0), 3.0); // clamped
    }

    #[test]
    fn pause_semantics() {
        assert!(Mode::Full.pauses_guest());
        assert!(Mode::Incremental.pauses_guest());
        assert!(!Mode::Forked.pauses_guest());
    }

    #[test]
    fn page_content_is_snapshotted_not_aliased() {
        let mut mem = MemoryImage::patterned(2, 16, 1);
        let mut c = Checkpointer::new(Mode::Incremental);
        c.capture(VmId(0), 0, &mut mem);
        mem.write_page(0, &[7u8; 16]);
        let inc = c.capture(VmId(0), 1, &mut mem);
        // Later writes must not alter the captured payload.
        mem.write_page(0, &[1u8; 16]);
        match &inc.payload {
            CheckpointPayload::Incremental { pages, .. } => {
                assert_eq!(pages[0].bytes.as_ref(), &[7u8; 16]);
            }
            _ => unreachable!(),
        }
        let _ = mem.page(PageIndex(0));
    }
}
