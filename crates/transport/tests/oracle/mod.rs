//! The Fig-3 state sampler as it was when connections compared label
//! strings on every packet: the oracle of
//! `typed_state_sampling_matches_label_sampling`.

use longlook_sim::time::Time;
use longlook_sim::trace::TraceRecord;
use longlook_sim::Tracer;
use longlook_transport::ccstate::{CcState, Fig3State, StateTrace};

/// What the controller's `state_label` returned: Cubic's phase mapped
/// onto its Table 3 label, BBR's own state label.
fn state_label(cc: Fig3State) -> &'static str {
    cc.label()
}

/// What the controller's `overlay_connection_states` returned: true for
/// Cubic (Fig 3a), false for BBR (Fig 3b).
fn overlay_connection_states(cc: Fig3State) -> bool {
    matches!(cc, Fig3State::Cubic(_))
}

/// One connection's state trace and tracer, fed a label on every sample
/// and left to drop the unchanged ones by comparing strings.
#[derive(Debug)]
pub struct LabelSampler {
    states: StateTrace<'static>,
    /// Carries only `CcState` records.
    tracer: Tracer,
}

impl LabelSampler {
    /// A sampler for a connection constructed at `now` whose controller
    /// reports `cc`, tracing on.
    pub fn new(now: Time, cc: Fig3State) -> Self {
        let initial = if overlay_connection_states(cc) {
            CcState::Init.label()
        } else {
            state_label(cc)
        };
        let mut tracer = Tracer::new(true);
        tracer.cc_state(now.as_nanos(), initial);
        LabelSampler {
            states: StateTrace::new(now, initial),
            tracer,
        }
    }

    /// Record the current state, given what the controller reports.
    /// Connection states overlay the
    /// controller's label in the order Init, RTO, TLP, Recovery,
    /// ApplicationLimited; a controller that opts out is reported as is.
    pub fn update(
        &mut self,
        now: Time,
        cc: Fig3State,
        established: bool,
        in_rto: bool,
        in_tlp: bool,
        app_limited: bool,
    ) {
        let label = if !overlay_connection_states(cc) {
            state_label(cc)
        } else if !established {
            CcState::Init.label()
        } else if in_rto {
            CcState::RetransmissionTimeout.label()
        } else if in_tlp {
            CcState::TailLossProbe.label()
        } else {
            let cc_label = state_label(cc);
            if app_limited && cc_label != CcState::Recovery.label() {
                CcState::ApplicationLimited.label()
            } else {
                cc_label
            }
        };
        self.states.enter(now, label);
        self.tracer.cc_state(now.as_nanos(), label);
    }

    /// The visit log so far.
    pub fn visits(&self) -> &[(Time, &'static str)] {
        &self.states.visits
    }

    /// The `CcState` records so far.
    pub fn records(&self) -> &[TraceRecord] {
        self.tracer.records()
    }
}
