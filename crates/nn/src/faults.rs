//! Deterministic fault injection for fault-tolerance testing.
//!
//! The trainer's hot paths carry tiny probes (`FaultPlan::take`). A test
//! arms a fault with `inject` on its own thread; the next
//! [`Trainer::fit_with`](crate::Trainer::fit_with) *on that thread* moves
//! the armed shots into the run's private plan, and the first `times` probes
//! of that kind inside that run then fire exactly once each — the same
//! one-shot shape as a transient hardware or OOM event, so a recovery
//! path (inline retry, checkpoint rollback) sees a clean world
//! afterwards. Shots the run does not use die with it.
//!
//! Shots are therefore owned by one run: a fit started by another thread
//! (another test running concurrently) starts with an empty plan and can
//! never take them, and there is no process-global fault state to reset
//! or to serialise tests around.
//!
//! The machinery is compiled only for test builds (`cfg(test)`) or when
//! the `fault-injection` cargo feature is on; release builds get a
//! zero-sized plan whose inlined probe is always false, and no way to
//! arm anything.

/// The injectable failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A training worker thread panics mid-shard.
    WorkerPanic,
    /// A minibatch loss comes back as NaN (diverged step).
    NanLoss,
}

#[cfg(any(test, feature = "fault-injection"))]
mod armed {
    use super::FaultKind;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    thread_local! {
        /// Shots armed on this thread and not yet claimed by a run,
        /// indexed by `FaultKind as usize`.
        static ARMED: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
    }

    /// Arms `kind` to fire on the first `times` probes of the next
    /// training run started on the calling thread (replacing any shots of
    /// that kind armed earlier and not yet claimed).
    pub fn inject(kind: FaultKind, times: usize) {
        let mut shots = ARMED.get();
        shots[kind as usize] = times;
        ARMED.set(shots);
    }

    /// One training run's shots. Shared by reference with the run's shard
    /// workers, so the counters are atomic; nothing outside the run can
    /// reach them.
    pub(crate) struct FaultPlan {
        shots: [AtomicUsize; 2],
    }

    impl FaultPlan {
        /// Moves every shot armed on the calling thread into a new plan,
        /// leaving the thread disarmed.
        pub(crate) fn claim() -> Self {
            Self {
                shots: ARMED.replace([0; 2]).map(AtomicUsize::new),
            }
        }

        /// Probe: consumes one armed shot of `kind`, if any.
        pub(crate) fn take(&self, kind: FaultKind) -> bool {
            self.shots[kind as usize]
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use armed::inject;
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) use armed::FaultPlan;

/// Plan stub for builds without fault injection: nothing to claim, and
/// the probe never fires.
#[cfg(not(any(test, feature = "fault-injection")))]
pub(crate) struct FaultPlan;

#[cfg(not(any(test, feature = "fault-injection")))]
impl FaultPlan {
    #[inline(always)]
    pub(crate) fn claim() -> Self {
        FaultPlan
    }

    #[inline(always)]
    pub(crate) fn take(&self, _kind: FaultKind) -> bool {
        false
    }
}

/// On-disk corruption helpers: simulate a crash mid-write or silent media
/// corruption against checkpoint (or any other) files.
#[cfg(any(test, feature = "fault-injection"))]
pub mod disk {
    use std::io;
    use std::path::Path;

    /// Truncates `path` to `keep` bytes — what a crash mid-write leaves.
    pub fn truncate(path: &Path, keep: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(keep)
    }

    /// Flips one bit of the byte at `offset` in place — silent corruption
    /// that only a checksum can catch.
    pub fn flip_bit(path: &Path, offset: usize, bit: u8) -> io::Result<()> {
        let mut data = std::fs::read(path)?;
        if offset >= data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("offset {offset} past end of {} bytes", data.len()),
            ));
        }
        data[offset] ^= 1 << (bit % 8);
        std::fs::write(path, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fire_exactly_n_times() {
        assert!(!FaultPlan::claim().take(FaultKind::NanLoss));
        inject(FaultKind::NanLoss, 2);
        let plan = FaultPlan::claim();
        assert!(plan.take(FaultKind::NanLoss));
        assert!(plan.take(FaultKind::NanLoss));
        assert!(!plan.take(FaultKind::NanLoss));
        // claiming moved the shots: the thread is disarmed again
        assert!(!FaultPlan::claim().take(FaultKind::NanLoss));
    }

    #[test]
    fn kinds_are_independent() {
        inject(FaultKind::WorkerPanic, 1);
        let plan = FaultPlan::claim();
        assert!(!plan.take(FaultKind::NanLoss));
        assert!(plan.take(FaultKind::WorkerPanic));
        assert!(!plan.take(FaultKind::WorkerPanic));
    }

    #[test]
    fn disk_truncate_and_flip() {
        let dir = std::env::temp_dir().join("nn_faults_disk");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();
        disk::flip_bit(&path, 3, 9).unwrap(); // bit index wraps mod 8
        assert_eq!(std::fs::read(&path).unwrap()[3], 0b10);
        disk::truncate(&path, 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 4);
        assert!(disk::flip_bit(&path, 99, 0).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
