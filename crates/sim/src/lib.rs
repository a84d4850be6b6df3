//! # rucx-sim — deterministic discrete-event simulation engine
//!
//! Foundation of the `rucx` reproduction of *GPU-aware Communication with
//! UCX in Parallel Programming Models* (IPDPSW 2021). All hardware the paper
//! evaluates on (Summit's GPUs, NVLink, X-Bus, EDR InfiniBand) is simulated;
//! this crate provides the virtual clock, the event queue, and *simulated
//! processes* — bodies hosted on pooled OS threads that execute strictly one
//! at a time: all run state travels between threads as a single baton (a
//! boxed core handed through one-slot rendezvous cells), so runtime layers
//! above can write natural blocking code (an `MPI_Recv` that simply does
//! not return until virtual time reaches message arrival) while the whole
//! simulation stays deterministic — and a process resuming from its own
//! wakeup never pays a context switch at all.
//!
//! ## Architecture
//!
//! - [`Scheduler`] — virtual clock, `(time, seq)`-ordered event queue, and
//!   wait primitives ([`Trigger`] one-shot latches, [`Notify`]
//!   epoch-counting condition variables).
//! - [`Simulation`] — owns the world `W` (all model state), the scheduler,
//!   and the process table; runs the main loop.
//! - [`ProcCtx`] — handed to each process body; `advance` models local
//!   compute, `with_world` gives synchronous mutating access to model
//!   state, `with_world_ref` is the read-only fast path — both direct
//!   calls against the core this thread holds — and
//!   `wait`/`wait_notify`/`wait_until` park the process.
//! - [`ProcessPool`] — reusable OS threads backing the processes.
//!   [`Simulation::spawn`] leases a worker instead of spawning a fresh
//!   thread, and teardown returns workers to the pool, so workloads that
//!   build many simulations back to back don't pay thread creation each
//!   time.
//!
//! Determinism: events are dispatched in `(time, insertion order)`; processes
//! woken at the same instant run in wake order; exactly one thread holds the
//! core at any moment, so the world is only ever touched by the running
//! context. Dispatch order is independent of which OS thread executes it,
//! and worker reuse carries no state between processes, so neither pooling
//! nor the baton handoffs perturb traces.

//!
//! ## Scale
//!
//! Two mechanisms keep 1536-PE sweeps tractable. The event queue is a
//! [`calendar::CalendarQueue`] (amortized O(1) push/pop; the original
//! `BinaryHeap` stays behind the same [`calendar::SchedulerBackend`] trait
//! as the determinism oracle, selectable via [`SimConfig::backend`]). And
//! [`shard::ShardedEngine`] advances several independent simulations on OS
//! threads under conservative lookahead windows, exchanging cross-shard
//! envelopes at barriers — deterministic for any shard count.

pub mod calendar;
pub mod pool;
pub mod process;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use calendar::{Backend, SchedulerBackend};
pub use pool::ProcessPool;
pub use process::ProcCtx;
pub use rng::SimRng;
pub use sched::{EventKey, Notify, ProcId, Scheduler, Trigger};
pub use shard::{
    Envelope, EnvelopeLease, EnvelopePool, Outbox, RouteDecision, RouteHook, RouteInfo, ShardStats,
    ShardedEngine, ShardedOutcome,
};
pub use sim::{RunOutcome, SimConfig, Simulation};
pub use stats::{Counters, DurationStats, Metric, MetricKind};
pub use time::{Duration, Time};
pub use trace::{Phase, TraceEvent, TraceSink};
