//! The Monitor Bypass.
//!
//! The Monitor Bypass is the central coordinator of the engine (Figure 5):
//! it answers the Trapper's lookups against the Reorganization Buffer,
//! stalls requests whose line is not yet complete, collects the data coming
//! back from the Fetch Units, and signals the Requestor when the first miss
//! of a freshly configured frame arrives. In the simulation the same
//! responsibilities exist, expressed over completion times instead of
//! hardware handshakes.

use relmem_sim::{Shift, SimTime};

use crate::reorg_buffer::ReorganizationBuffer;

/// Result of looking a line up in the Reorganization Buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is complete; its data became available at the given time.
    Hit(SimTime),
    /// The line is not complete; the request must stall.
    Miss,
}

/// The Monitor Bypass: owns the Reorganization Buffer and the frame-trigger
/// state.
#[derive(Debug, Clone)]
pub struct MonitorBypass {
    buffer: ReorganizationBuffer,
    /// Frame currently resident in the buffer (`None` until the first fetch
    /// after configuration or a reset).
    resident_frame: Option<u64>,
    /// Whether the Requestor has been activated for the resident frame.
    requestor_triggered: bool,
}

impl MonitorBypass {
    /// Creates a monitor over a buffer of the given capacity.
    pub fn new(spm_bytes: usize, line_bytes: usize) -> Self {
        MonitorBypass {
            buffer: ReorganizationBuffer::new(spm_bytes, line_bytes),
            resident_frame: None,
            requestor_triggered: false,
        }
    }

    /// Immutable access to the underlying buffer.
    pub fn buffer(&self) -> &ReorganizationBuffer {
        &self.buffer
    }

    /// Mutable access to the underlying buffer (used by the Fetch Units'
    /// write path via the engine).
    pub fn buffer_mut(&mut self) -> &mut ReorganizationBuffer {
        &mut self.buffer
    }

    /// The frame currently resident, if any.
    pub fn resident_frame(&self) -> Option<u64> {
        self.resident_frame
    }

    /// Looks up a line of the given frame.
    pub fn lookup(&self, frame: u64, line_in_frame: usize) -> Lookup {
        if self.resident_frame != Some(frame) {
            return Lookup::Miss;
        }
        match self.buffer.completion_time(line_in_frame) {
            Some(t) => Lookup::Hit(t),
            None => Lookup::Miss,
        }
    }

    /// Called on the first miss of a frame: invalidates the buffer (epoch
    /// reset) if a different frame was resident, marks the new frame
    /// resident and reports whether the Requestor must be started.
    pub fn frame_miss(&mut self, frame: u64) -> bool {
        if self.resident_frame == Some(frame) && self.requestor_triggered {
            return false;
        }
        if self.resident_frame.is_some() && self.resident_frame != Some(frame) {
            self.buffer.reset_epoch();
        }
        self.resident_frame = Some(frame);
        self.requestor_triggered = true;
        true
    }

    /// Whether the monitor holds `earlier`'s state moved by one period of
    /// `frames` frames (see [`relmem_sim::shift`]): the resident frame
    /// `frames` further on, the same trigger state and the buffer metadata
    /// one period later.
    pub fn same_up_to_shift(&self, earlier: &MonitorBypass, shift: &Shift, frames: u64) -> bool {
        self.resident_frame == earlier.resident_frame.map(|f| f + frames)
            && self.requestor_triggered == earlier.requestor_triggered
            && self.buffer.same_up_to_shift(&earlier.buffer, shift)
    }

    /// Moves the monitor forward by `periods` periods of `frames` frames.
    pub fn shift(&mut self, earlier: &MonitorBypass, shift: &Shift, frames: u64, periods: u64) {
        if let Some(f) = &mut self.resident_frame {
            *f += frames * periods;
        }
        self.buffer.shift(&earlier.buffer, shift, periods);
    }

    /// Full software reset: invalidates the buffer and forgets the resident
    /// frame.
    pub fn software_reset(&mut self) {
        self.buffer.reset_epoch();
        self.resident_frame = None;
        self.requestor_triggered = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn lookup_misses_until_the_line_completes() {
        let mut m = MonitorBypass::new(256, 64);
        assert_eq!(m.lookup(0, 0), Lookup::Miss);
        assert!(m.frame_miss(0));
        // A second miss on the same frame must not retrigger the Requestor.
        assert!(!m.frame_miss(0));
        m.buffer_mut().write_chunk(0, &[1u8; 64], ns(30));
        assert_eq!(m.lookup(0, 0), Lookup::Hit(ns(30)));
        assert_eq!(m.lookup(0, 1), Lookup::Miss);
    }

    #[test]
    fn switching_frames_invalidates_the_buffer() {
        let mut m = MonitorBypass::new(256, 64);
        m.frame_miss(0);
        m.buffer_mut().write_chunk(0, &[1u8; 64], ns(10));
        assert_eq!(m.lookup(0, 0), Lookup::Hit(ns(10)));
        // Frame 1 arrives: epoch reset, frame 0 data is gone.
        assert!(m.frame_miss(1));
        assert_eq!(m.resident_frame(), Some(1));
        assert_eq!(m.lookup(0, 0), Lookup::Miss);
        assert_eq!(m.lookup(1, 0), Lookup::Miss);
        assert_eq!(m.buffer().resets(), 1);
    }

    #[test]
    fn software_reset_clears_everything() {
        let mut m = MonitorBypass::new(256, 64);
        m.frame_miss(3);
        m.buffer_mut().write_chunk(0, &[1u8; 64], ns(10));
        m.software_reset();
        assert_eq!(m.resident_frame(), None);
        assert_eq!(m.lookup(3, 0), Lookup::Miss);
        // The next miss retriggers the Requestor.
        assert!(m.frame_miss(3));
    }
}
