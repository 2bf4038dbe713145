//! # ap-ir — the schedule intermediate representation
//!
//! One declarative encoding of "what a pipeline schedule is": one
//! program, two interpreters (DESIGN.md §10):
//!
//! * `ap-pipesim`'s event engine *runs* a [`Program`] on a simulated
//!   cluster — fluid compute, max-min link sharing, faults, live
//!   switching (its closed-form analytic model is a fast scorer with a
//!   stated error envelope against the engine);
//! * `ap-exec` *replays* the same program on real OS-thread stages,
//!   byte-deterministically.
//!
//! A [`Program`] holds one [`StageProgram`] per pipeline stage: a typed
//! sequence of [`IrOp`]s (`Recv / Send / StashPush / Forward /
//! FusedFwdLossBwd / Recompute / Backward / StashPop / ApplyUpdate`) over
//! explicit mini-batch/micro-batch [`UnitId`]s with weight-version tags.
//! [`generate`] builds the program for any [`ScheduleKind`]
//! ([`generate_replicated`] for stages with data-parallel replicas,
//! [`generate_stage`] for one stage alone);
//! [`generate_spliced`] rewrites it for a §4.4 live migration
//! (migration-as-splice). [`Program::validate`] checks well-formedness:
//! matched sends/recvs, balanced stashes within the schedule's
//! weight-version budget, and completion of every unit.

pub mod program;
pub mod schedule;

pub use program::{
    generate, generate_replicated, generate_spliced, generate_stage, IrOp, Payload, Program,
    SpliceSpec, StageProgram, UnitId,
};
pub use schedule::{ScheduleKind, DEFAULT_MICRO_BATCHES};
