//! The [`Schedule`]: which packet runs next, and which executions feed the
//! generation strategy.

use peachstar_datamodel::DataModelSet;
use rand::rngs::SmallRng;

use crate::engine::session::SessionSchedule;
use crate::seed::Seed;
use crate::strategy::{GeneratedPacket, GenerationStrategy, StrategyState};

/// The resumable state of a [`Schedule`], as captured into (and restored
/// from) a campaign snapshot: the strategy's state plus the session-position
/// cursor (0 outside session mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleState {
    /// The generation strategy's resumable state.
    pub strategy: StrategyState,
    /// Position within the current session (0 outside session mode, and 0
    /// at every session-aligned window boundary).
    pub cursor: u64,
}

/// Decides which packet runs next and hands the generation strategy the
/// verdict on each packet it generated, once per execution, in execution
/// order.
///
/// A plain schedule forwards everything to its [`GenerationStrategy`]. In
/// session mode ([`sessions`](Schedule::sessions)) a [`SessionSchedule`]
/// reshapes the stream into handshake → payload → teardown sessions: only
/// the mutated payload packets come from the strategy, and only their
/// verdicts reach it.
///
/// # Example
///
/// ```
/// use peachstar::engine::Schedule;
/// use peachstar::strategy::StrategyKind;
/// use peachstar_datamodel::examples::toy_protocol;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut schedule = Schedule::new(StrategyKind::PeachStar.create());
/// let models = toy_protocol();
/// let mut rng = SmallRng::seed_from_u64(5);
/// let packet = schedule.next_packet(&models, &mut rng);
/// assert!(!packet.bytes.is_empty());
/// assert_eq!(schedule.name(), "Peach*");
///
/// // A valuable packet reaches the strategy, which cracks it into puzzles.
/// schedule.feedback(1, &packet, true, &models);
/// assert!(schedule.corpus_size() > 0);
/// ```
pub struct Schedule {
    strategy: Box<dyn GenerationStrategy>,
    session: Option<SessionSchedule>,
}

impl Schedule {
    /// A schedule that runs every packet `strategy` generates.
    #[must_use]
    pub fn new(strategy: Box<dyn GenerationStrategy>) -> Self {
        Self {
            strategy,
            session: None,
        }
    }

    /// Switches to session mode: the stream follows `session`'s plan.
    #[must_use]
    pub fn sessions(mut self, session: SessionSchedule) -> Self {
        self.session = Some(session);
        self
    }

    /// Short display name of the strategy.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Produces the next packet to execute, into a fresh seed.
    pub fn next_packet(&mut self, models: &DataModelSet, rng: &mut SmallRng) -> GeneratedPacket {
        let mut seed = Seed::new(Vec::new(), "", false);
        self.next_packet_into(models, rng, &mut seed);
        seed
    }

    /// Produces the next packet into a reusable slot, overwriting every
    /// field — the engine's packet-arena entry point.
    pub fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        match &mut self.session {
            Some(session) => session.next_packet_into(self.strategy.as_mut(), models, rng, slot),
            None => self.strategy.next_packet_into(models, rng, slot),
        }
    }

    /// Digests the verdict on execution `execution` (1-based): whether
    /// `packet` was a valuable seed. In session mode only the verdicts on
    /// mutated payload packets reach the strategy, so a valuable handshake
    /// replay never pollutes its corpus with packets it did not produce.
    pub fn feedback(
        &mut self,
        execution: u64,
        packet: &GeneratedPacket,
        valuable: bool,
        models: &DataModelSet,
    ) {
        if self
            .session
            .as_ref()
            .is_none_or(|session| session.generated_by_strategy(execution))
        {
            self.strategy.observe(packet, valuable, models);
        }
    }

    /// Number of puzzles currently available (0 for feedback-free
    /// strategies).
    #[must_use]
    pub fn corpus_size(&self) -> usize {
        self.strategy.corpus_size()
    }

    /// Captures the schedule's resumable state for a campaign snapshot.
    #[must_use]
    pub fn snapshot_state(&self) -> ScheduleState {
        ScheduleState {
            strategy: self.strategy.snapshot_state(),
            cursor: self.session.as_ref().map_or(0, SessionSchedule::cursor),
        }
    }

    /// Restores state previously captured by
    /// [`snapshot_state`](Schedule::snapshot_state).
    ///
    /// Returns `false` (leaving the schedule untouched) when the state was
    /// captured from a different strategy kind.
    pub fn restore_state(&mut self, state: ScheduleState) -> bool {
        if !self.strategy.restore_state(state.strategy) {
            return false;
        }
        if let Some(session) = &mut self.session {
            session.set_cursor(state.cursor);
        }
        true
    }
}

impl std::fmt::Debug for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schedule")
            .field("strategy", &self.strategy.name())
            .field("session", &self.session)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use peachstar_datamodel::examples::toy_protocol;
    use rand::SeedableRng;

    #[test]
    fn schedule_adapts_a_strategy() {
        let models = toy_protocol();
        let mut schedule = Schedule::new(StrategyKind::PeachStar.create());
        assert_eq!(schedule.name(), "Peach*");
        assert_eq!(schedule.corpus_size(), 0);
        let mut rng = SmallRng::seed_from_u64(5);
        let packet = schedule.next_packet(&models, &mut rng);
        assert!(!packet.bytes.is_empty());

        schedule.feedback(1, &packet, true, &models);
        assert!(
            schedule.corpus_size() > 0,
            "a valuable verdict reaches the strategy's cracker"
        );
        assert_eq!(schedule.snapshot_state().cursor, 0);
    }
}
