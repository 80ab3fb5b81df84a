//! The one-value mode names the frozen benchmark prints. How a run
//! executes is a value, not process state: the one choice left is the
//! [`TraceMode`](crate::TraceMode) each protocol config carries.

// Sole caller: `observatory/` (frozen), which prints it in its header
// and passes it to `EventQueue::new`. There is one scheduler.
#[doc(hidden)]
#[derive(Debug)]
pub enum SchedKind {
    Wheel,
}

impl SchedKind {
    #[doc(hidden)]
    pub fn from_env() -> SchedKind {
        SchedKind::Wheel
    }
}

// Sole caller: `observatory/` (frozen), which prints it in its header.
// Links carry typed packets; there is no other representation.
#[doc(hidden)]
#[derive(Debug)]
pub enum WireMode {
    Structured,
}

impl WireMode {
    #[doc(hidden)]
    pub fn from_env() -> WireMode {
        WireMode::Structured
    }
}

// Sole caller: `observatory/` (frozen), which prints it in its header.
// There is one event loop, one sent-packet store and one timer.
#[doc(hidden)]
#[derive(Debug)]
pub enum BatchMode {
    On,
}

impl BatchMode {
    #[doc(hidden)]
    pub fn from_env() -> BatchMode {
        BatchMode::On
    }
}
