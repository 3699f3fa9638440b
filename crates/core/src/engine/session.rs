//! Session-aware scheduling: multi-packet sessions (handshake → mutated
//! payload → teardown), the session mode of the [`Schedule`].
//!
//! The paper's campaign fuzzes one packet at a time, but real ICS endpoints
//! gate their deep decoders behind a session handshake: IEC 104 rejects
//! every I-frame before STARTDT act, MMS rejects confirmed services before
//! initiate, TASE.2 answers "not associated" until the associate exchange.
//! A per-packet campaign therefore spends most of its budget on the
//! pre-activation rejection paths.
//!
//! [`SessionSchedule`] fixes that by reshaping the packet stream into typed
//! *sessions* built from the target's [`SessionTemplate`]:
//!
//! ```text
//! ┌────────────── one session (len = h + payload + t packets) ─────────────┐
//! │ handshake (h fixed packets) │ payload (mutated) │ teardown (t fixed)   │
//! └─────────────────────────────────────────────────────────────────────────┘
//!   target reset ▲ here (ResetPolicy::PerSession) — never inside a session
//! ```
//!
//! Which phases are mutated is controlled by a [`PhaseMask`]: by default only
//! the payload packets come from the generation strategy while handshake and
//! teardown replay the template verbatim (so the session state machine
//! actually opens); fuzzing the handshake itself flips bytes of the template
//! packets instead.
//!
//! Pair the session mode with
//! [`ResetPolicy::PerSession`](crate::engine::ResetPolicy::PerSession) so the
//! target resets exactly at session boundaries — state persists across a
//! session's packets and never leaks into the next session. The sharded
//! engine aligns its windows to the same boundaries, so sessions never
//! straddle a merge barrier either.
//!
//! [`Schedule`]: crate::engine::Schedule

use peachstar_datamodel::emit::emit_default;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::SessionTemplate;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::seed::Seed;
use crate::strategy::{empty_set_seed, pick_model, GeneratedPacket, GenerationStrategy};

/// Which phases of a session receive mutated packets.
///
/// Phases outside the mask replay known-good packets: handshake/teardown use
/// the target's template verbatim, payload falls back to each model's
/// default emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMask {
    /// Mutate the handshake packets (byte corruptions of the template).
    pub handshake: bool,
    /// Mutate the payload packets (generated by the strategy).
    pub payload: bool,
    /// Mutate the teardown packets (byte corruptions of the template).
    pub teardown: bool,
}

impl PhaseMask {
    /// Mutate only the payload — the default session workload: the session
    /// state machine opens reliably and the fuzzing happens inside it.
    pub const PAYLOAD: PhaseMask = PhaseMask {
        handshake: false,
        payload: true,
        teardown: false,
    };

    /// Parses a `--mutate-phase` value (`handshake`, `payload`, `teardown`).
    #[must_use]
    pub fn parse_phase(name: &str) -> Option<fn(&mut PhaseMask)> {
        match name.to_ascii_lowercase().as_str() {
            "handshake" => Some(|mask| mask.handshake = true),
            "payload" => Some(|mask| mask.payload = true),
            "teardown" => Some(|mask| mask.teardown = true),
            _ => None,
        }
    }
}

impl Default for PhaseMask {
    fn default() -> Self {
        Self::PAYLOAD
    }
}

/// Session shape of a campaign: how many mutated payload packets run between
/// the handshake and the teardown, and which phases are mutated.
///
/// Stored on `CampaignConfig` (which stays `Copy`); the concrete
/// [`SessionPlan`] is derived at campaign start from the target's template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Mutated payload packets per session (between handshake and teardown).
    pub payload_packets: u64,
    /// Which phases are mutated.
    pub mutate: PhaseMask,
}

impl SessionConfig {
    /// Default payload packets per session.
    pub const DEFAULT_PAYLOAD_PACKETS: u64 = 8;

    /// Payload-mutating sessions with `payload_packets` packets each.
    #[must_use]
    pub fn new(payload_packets: u64) -> Self {
        Self {
            payload_packets: payload_packets.max(1),
            mutate: PhaseMask::default(),
        }
    }

    /// Sets the phase mask.
    #[must_use]
    pub fn mutate(mut self, mask: PhaseMask) -> Self {
        self.mutate = mask;
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::new(Self::DEFAULT_PAYLOAD_PACKETS)
    }
}

/// The concrete shape of every session of a campaign: the target's template
/// packets plus the payload length. All sessions of a campaign are the same
/// length, which is what lets the reset policy and the sharded window layout
/// align to session boundaries statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    template: SessionTemplate,
    payload_packets: u64,
}

/// One position within a session, resolved from the execution cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The index-th handshake packet.
    Handshake(usize),
    /// A mutated payload packet.
    Payload,
    /// The index-th teardown packet.
    Teardown(usize),
}

impl SessionPlan {
    /// Builds the plan from a target's template and the configured payload
    /// length (clamped to at least one payload packet).
    #[must_use]
    pub fn new(template: SessionTemplate, payload_packets: u64) -> Self {
        Self {
            template,
            payload_packets: payload_packets.max(1),
        }
    }

    /// Total packets per session: handshake + payload + teardown.
    #[must_use]
    pub fn session_len(&self) -> u64 {
        self.template.fixed_packets() + self.payload_packets
    }

    /// Mutated payload packets per session.
    #[must_use]
    pub fn payload_packets(&self) -> u64 {
        self.payload_packets
    }

    /// The phase of the `offset`-th packet of a session (0-based).
    fn phase_at(&self, offset: u64) -> Phase {
        let handshake = self.template.handshake.len() as u64;
        if offset < handshake {
            Phase::Handshake(offset as usize)
        } else if offset < handshake + self.payload_packets {
            Phase::Payload
        } else {
            Phase::Teardown((offset - handshake - self.payload_packets) as usize)
        }
    }
}

/// Corrupts a template packet in place: one or two random byte overwrites,
/// driven by the campaign RNG (deterministic for a fixed seed).
fn corrupt(bytes: &mut [u8], rng: &mut SmallRng) {
    if bytes.is_empty() {
        return;
    }
    let flips = rng.gen_range(1..=2usize);
    for _ in 0..flips {
        let index = rng.gen_range(0..bytes.len());
        bytes[index] = rng.gen_range(0..=u8::MAX);
    }
}

/// The session mode of a [`Schedule`]: executions cycle through
/// handshake → payload → teardown positions, template phases replay (or
/// corrupt) the target's known-good packets, and mutated payload positions
/// come from the generation strategy.
///
/// Which executions the strategy generated — and so which verdicts it
/// receives — is derived arithmetically from the 1-based execution number
/// (execution `e` sits at session offset `(e - 1) % session_len`), so it
/// needs no provenance state and stays correct both per execution and at
/// the worker topology's merge barrier.
///
/// [`Schedule`]: crate::engine::Schedule
///
/// # Example
///
/// ```
/// use peachstar::engine::{PhaseMask, Schedule, SessionPlan, SessionSchedule};
/// use peachstar::strategy::StrategyKind;
/// use peachstar_protocols::{Target, TargetId};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let target = TargetId::Iec104.create();
/// let plan = SessionPlan::new(target.session_template().unwrap(), 2);
/// let mut schedule = Schedule::new(StrategyKind::Peach.create())
///     .sessions(SessionSchedule::new(plan, PhaseMask::default()));
/// let models = target.data_models();
/// let mut rng = SmallRng::seed_from_u64(1);
/// // A 4-packet session: STARTDT, two mutated payloads, STOPDT.
/// let first = schedule.next_packet(&models, &mut rng);
/// assert_eq!(first.bytes, vec![0x68, 0x04, 0x07, 0x00, 0x00, 0x00]);
/// assert_eq!(first.model, "STARTDT act");
/// schedule.next_packet(&models, &mut rng);
/// schedule.next_packet(&models, &mut rng);
/// let last = schedule.next_packet(&models, &mut rng);
/// assert_eq!(last.model, "STOPDT act");
/// ```
#[derive(Debug)]
pub struct SessionSchedule {
    plan: SessionPlan,
    mutate: PhaseMask,
    cursor: u64,
}

impl SessionSchedule {
    /// Sessions shaped by `plan`, mutating the phases in `mutate`.
    #[must_use]
    pub fn new(plan: SessionPlan, mutate: PhaseMask) -> Self {
        Self {
            plan,
            mutate,
            cursor: 0,
        }
    }

    /// The session plan in force.
    #[must_use]
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// A template packet as a seed, corrupted when the phase is mutated.
    fn template_seed(
        packet: &peachstar_protocols::SessionPacket,
        mutated: bool,
        rng: &mut SmallRng,
    ) -> GeneratedPacket {
        let mut bytes = packet.bytes.clone();
        if mutated {
            corrupt(&mut bytes, rng);
        }
        Seed::new(bytes, packet.label, false)
    }

    /// A well-formed payload packet for sessions that do *not* mutate the
    /// payload phase: a randomly picked model's default emission.
    fn default_payload(models: &DataModelSet, rng: &mut SmallRng) -> GeneratedPacket {
        let Some(model) = pick_model(models, rng) else {
            return empty_set_seed();
        };
        Seed::new(emit_default(model).unwrap_or_default(), model.name(), false)
    }

    /// The position of the next packet within its session.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Moves to a restored position (taken modulo the session length).
    pub(crate) fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor % self.plan.session_len();
    }

    /// Whether `strategy` generated execution `execution` (1-based): only
    /// mutated payload packets come from it.
    pub(crate) fn generated_by_strategy(&self, execution: u64) -> bool {
        let offset = (execution - 1) % self.plan.session_len();
        self.mutate.payload && matches!(self.plan.phase_at(offset), Phase::Payload)
    }

    /// Writes the packet at the cursor into `slot` and advances the cursor.
    pub(crate) fn next_packet_into(
        &mut self,
        strategy: &mut dyn GenerationStrategy,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        let phase = self.plan.phase_at(self.cursor);
        self.cursor = (self.cursor + 1) % self.plan.session_len();
        match phase {
            Phase::Handshake(index) => {
                *slot = Self::template_seed(
                    &self.plan.template.handshake[index],
                    self.mutate.handshake,
                    rng,
                );
            }
            Phase::Teardown(index) => {
                *slot = Self::template_seed(
                    &self.plan.template.teardown[index],
                    self.mutate.teardown,
                    rng,
                );
            }
            // Mutated payload positions reuse the slot's buffers through the
            // strategy — the batched arena's zero-allocation path.
            Phase::Payload if self.mutate.payload => strategy.next_packet_into(models, rng, slot),
            Phase::Payload => *slot = Self::default_payload(models, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Schedule;
    use crate::strategy::StrategyKind;
    use peachstar_protocols::TargetId;
    use rand::SeedableRng;

    fn iec104_schedule(
        payload: u64,
        mutate: PhaseMask,
        strategy: StrategyKind,
    ) -> (Schedule, DataModelSet) {
        let target = TargetId::Iec104.create();
        let plan = SessionPlan::new(target.session_template().unwrap(), payload);
        (
            Schedule::new(strategy.create()).sessions(SessionSchedule::new(plan, mutate)),
            target.data_models(),
        )
    }

    #[test]
    fn phase_layout_covers_the_whole_session() {
        let target = TargetId::Iec104.create();
        let plan = SessionPlan::new(target.session_template().unwrap(), 3);
        assert_eq!(plan.session_len(), 5);
        assert_eq!(plan.phase_at(0), Phase::Handshake(0));
        assert_eq!(plan.phase_at(1), Phase::Payload);
        assert_eq!(plan.phase_at(3), Phase::Payload);
        assert_eq!(plan.phase_at(4), Phase::Teardown(0));
    }

    #[test]
    fn sessions_cycle_handshake_payload_teardown() {
        let (mut schedule, models) =
            iec104_schedule(2, PhaseMask::default(), StrategyKind::Peach);
        let mut rng = SmallRng::seed_from_u64(7);
        for session in 0..3 {
            let startdt = schedule.next_packet(&models, &mut rng);
            assert_eq!(
                startdt.bytes,
                vec![0x68, 0x04, 0x07, 0x00, 0x00, 0x00],
                "session {session}: handshake replays the template verbatim"
            );
            let _payload_a = schedule.next_packet(&models, &mut rng);
            let _payload_b = schedule.next_packet(&models, &mut rng);
            let stopdt = schedule.next_packet(&models, &mut rng);
            assert_eq!(stopdt.bytes, vec![0x68, 0x04, 0x13, 0x00, 0x00, 0x00]);
        }
    }

    #[test]
    fn mutated_handshake_corrupts_template_bytes() {
        let mask = PhaseMask {
            handshake: true,
            payload: true,
            teardown: false,
        };
        let (mut schedule, models) = iec104_schedule(1, mask, StrategyKind::Peach);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut corrupted = false;
        for _ in 0..20 {
            let handshake = schedule.next_packet(&models, &mut rng);
            assert_eq!(handshake.bytes.len(), 6, "corruption preserves length");
            if handshake.bytes != vec![0x68, 0x04, 0x07, 0x00, 0x00, 0x00] {
                corrupted = true;
            }
            schedule.next_packet(&models, &mut rng); // payload
            let teardown = schedule.next_packet(&models, &mut rng);
            assert_eq!(
                teardown.bytes,
                vec![0x68, 0x04, 0x13, 0x00, 0x00, 0x00],
                "unmutated teardown stays verbatim"
            );
        }
        assert!(corrupted, "handshake mutation must actually corrupt bytes");
    }

    #[test]
    fn unmutated_payload_emits_model_defaults() {
        let mask = PhaseMask {
            handshake: true,
            payload: false,
            teardown: false,
        };
        let (mut schedule, models) = iec104_schedule(2, mask, StrategyKind::Peach);
        let mut rng = SmallRng::seed_from_u64(5);
        schedule.next_packet(&models, &mut rng); // handshake
        let payload = schedule.next_packet(&models, &mut rng);
        assert!(
            models.find(&payload.model).is_some(),
            "default payload carries its model name"
        );
        assert!(!payload.bytes.is_empty());
    }

    #[test]
    fn feedback_reaches_the_inner_strategy_only_for_payload_packets() {
        let (mut schedule, models) =
            iec104_schedule(1, PhaseMask::default(), StrategyKind::PeachStar);
        let mut rng = SmallRng::seed_from_u64(11);
        // Feed both verdicts a packet that certainly cracks into puzzles, so
        // any difference in corpus size is purely down to the routing.
        let crackable = Seed::new(
            peachstar_datamodel::emit::emit_default(models.find("single_command").unwrap())
                .unwrap(),
            "single_command",
            false,
        );
        // Execution 1 is a handshake position: its (valuable) verdict must
        // NOT reach the strategy.
        let _handshake = schedule.next_packet(&models, &mut rng);
        schedule.feedback(1, &crackable, true, &models);
        assert_eq!(schedule.corpus_size(), 0, "template packets are not cracked");
        // Execution 2 is a payload position: its verdict must reach it.
        let _payload = schedule.next_packet(&models, &mut rng);
        schedule.feedback(2, &crackable, true, &models);
        assert!(
            schedule.corpus_size() > 0,
            "payload packets feed the Peach* strategy"
        );
    }

    #[test]
    fn phase_mask_parses_cli_names() {
        let mut mask = PhaseMask {
            handshake: false,
            payload: false,
            teardown: false,
        };
        for phase in ["handshake", "PAYLOAD", "teardown"] {
            PhaseMask::parse_phase(phase).expect("known phase")(&mut mask);
        }
        assert!(mask.handshake && mask.payload && mask.teardown);
        assert!(PhaseMask::parse_phase("preamble").is_none());
        assert_eq!(PhaseMask::default(), PhaseMask::PAYLOAD);
    }

    #[test]
    fn session_config_clamps_payload_to_one() {
        assert_eq!(SessionConfig::new(0).payload_packets, 1);
        assert_eq!(
            SessionConfig::default().payload_packets,
            SessionConfig::DEFAULT_PAYLOAD_PACKETS
        );
        let target = TargetId::Iec104.create();
        let plan = SessionPlan::new(target.session_template().unwrap(), 0);
        assert_eq!(plan.session_len(), 3, "1 handshake + 1 payload + 1 teardown");
    }
}
