//! Thread-backed simulated processes and the execution baton.
//!
//! Each simulated process (one per PE in the runtime layers above) runs on
//! an OS thread **leased from a [`crate::ProcessPool`]**, and processes
//! execute strictly one at a time: a single *baton* — the boxed
//! [`Core`](crate::sim::Core) holding the world, the scheduler, and the
//! process table — is owned by exactly one thread at any moment, and only
//! the thread holding it may run. This gives process code natural
//! *blocking* semantics (`MPI_Recv` can simply not return until virtual
//! time has advanced to the message arrival) while keeping the whole
//! simulation deterministic and data-race free.
//!
//! The baton is also what makes the resume hot path fast: a thread that
//! holds it dispatches events **inline**. When a process calls
//! [`ProcCtx::advance`] and the next relevant event is its own wakeup (the
//! overwhelmingly common case), control never leaves the thread — no
//! context switch, no allocation, no syscall. Only when a *different*
//! process must run is the baton handed over, through a one-slot
//! [`rucx_compat::rendezvous`] cell (no queue, no per-message allocation):
//! the receiving thread parks on the cell's condvar until the baton lands.
//! World access is direct for the same reason: [`ProcCtx::with_world`]
//! (mutating) and [`ProcCtx::with_world_ref`] (read-only) call the closure
//! against the core this thread already holds.

#![allow(clippy::type_complexity)]

use std::sync::Arc;

use rucx_compat::channel::Sender;
use rucx_compat::rendezvous::{rendezvous, RendezvousReceiver, RendezvousSender};

use crate::pool::{Job, ProcessPool};
use crate::sched::{Notify, ProcId, Scheduler, Trigger};
use crate::sim::{dispatch, Core, Dispatch, Verdict, VerdictKind};
use crate::time::{Duration, Time};

/// A process body as stored until its first wakeup.
pub(crate) type Body<W> = Box<dyn FnOnce(&mut ProcCtx<W>) + Send + 'static>;

/// How a process yields the baton back to the dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldKind {
    /// Wake me at this absolute virtual time.
    AdvanceTo(Time),
    /// Park me until the trigger fires.
    WaitTrigger(Trigger),
    /// Park me until the notify epoch moves past `seen`.
    WaitNotify(Notify, u64),
    /// Put me at the back of the runnable queue (same virtual time).
    YieldNow,
}

/// Internal marker unwound through process bodies when the simulation is
/// dropped while the process is still parked; the wrapper swallows it and
/// the pooled worker returns to its pool.
pub(crate) struct SimShutdown;

/// Handle a process body uses to interact with the simulation.
///
/// Obtained as the argument to the closure passed to
/// [`crate::Simulation::spawn`]. All methods may block (in wall-clock terms)
/// while other parts of the simulation run; in virtual-time terms,
/// [`ProcCtx::with_world`] is instantaneous while [`ProcCtx::advance`] and
/// the wait methods let virtual time pass.
pub struct ProcCtx<W> {
    pub(crate) id: ProcId,
    pub(crate) name: String,
    pub(crate) now: Time,
    /// Wakeup cell: this thread parks on it until the baton arrives, i.e.
    /// until this process is resumed.
    pub(crate) resume_rx: RendezvousReceiver<Box<Core<W>>>,
    /// Verdict channel back to the driver (run completion, panics).
    pub(crate) done_tx: Sender<Verdict<W>>,
    /// The baton. `Some` exactly while this process is the running one.
    pub(crate) core: Option<Box<Core<W>>>,
}

impl<W: Send + 'static> ProcCtx<W> {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's name (for traces and deadlock reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time as of the last resume.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Park until the baton comes back; unwinds with [`SimShutdown`] if the
    /// simulation is dropped instead.
    fn recv_core(&self) -> Box<Core<W>> {
        match self.resume_rx.recv() {
            Ok(core) => core,
            Err(_) => std::panic::panic_any(SimShutdown),
        }
    }

    /// Register the wakeup condition for `kind`, then dispatch inline until
    /// this process is woken again (possibly without ever handing the baton
    /// to another thread).
    fn yield_and_wait(&mut self, kind: YieldKind) {
        let mut core = self.core.take().expect("yield while parked");
        let id = self.id;
        match kind {
            YieldKind::AdvanceTo(t) => {
                core.procs[id.index()].state = blocked_sleep(t);
                core.sched.schedule_wake(t, id);
            }
            YieldKind::YieldNow => {
                core.procs[id.index()].state = ProcState::Active;
                core.sched.runnable.push_back(id);
            }
            YieldKind::WaitTrigger(t) => {
                if core.sched.add_trigger_waiter(t, id) {
                    core.procs[id.index()].state = blocked_trigger(t.0);
                } else {
                    core.sched.runnable.push_back(id);
                }
            }
            YieldKind::WaitNotify(n, seen) => {
                if core.sched.add_notify_waiter(n, seen, id) {
                    core.procs[id.index()].state = blocked_notify(n.0);
                } else {
                    core.sched.runnable.push_back(id);
                }
            }
        }
        let core = match dispatch(core, Some(id)) {
            // Our own wakeup was the next thing to run: zero-switch resume,
            // we still hold the baton.
            Dispatch::Resumed(core) => core,
            // The baton went to another process; park until our wakeup is
            // dispatched and the baton is handed back to us.
            Dispatch::HandedOff => self.recv_core(),
            // The run ended while we were parked (deadlock, stop, time
            // limit): return the baton to the driver and park. A later
            // `run` call may still resume us.
            Dispatch::Ended(kind, core) => {
                let _ = self.done_tx.send(Verdict {
                    kind,
                    core: Some(core),
                });
                self.recv_core()
            }
        };
        self.now = core.sched.now();
        self.core = Some(core);
    }

    /// Let `dt` of virtual time pass (models local computation of known
    /// duration). Other processes and events run meanwhile.
    pub fn advance(&mut self, dt: Duration) {
        let target = self.now.saturating_add(dt);
        self.yield_and_wait(YieldKind::AdvanceTo(target));
        debug_assert!(self.now >= target);
    }

    /// Yield to other runnable processes at the same virtual time.
    pub fn yield_now(&mut self) {
        self.yield_and_wait(YieldKind::YieldNow);
    }

    /// Block until the trigger fires (returns immediately if already fired).
    pub fn wait(&mut self, t: Trigger) {
        self.yield_and_wait(YieldKind::WaitTrigger(t));
    }

    /// Block until the notify epoch differs from `seen`.
    ///
    /// Usage pattern (lost-wakeup free):
    /// ```ignore
    /// loop {
    ///     let (done, seen) = ctx.with_world(|w, s| (w.check(), s.notify_epoch(n)));
    ///     if done { break; }
    ///     ctx.wait_notify(n, seen);
    /// }
    /// ```
    pub fn wait_notify(&mut self, n: Notify, seen: u64) {
        self.yield_and_wait(YieldKind::WaitNotify(n, seen));
    }

    /// Run `f` against the world and scheduler at the current virtual time
    /// and return its result. Virtual time does not advance.
    ///
    /// This is the *mutating* world call: the closure may change model
    /// state, schedule events, fire triggers, or spawn processes. It runs
    /// directly against the core this thread holds — no boxing, no
    /// cross-thread handoff, no `Send`/`'static` bounds. Read-only lookups
    /// should prefer [`ProcCtx::with_world_ref`], which documents (and
    /// type-enforces) that nothing is mutated.
    pub fn with_world<R>(&mut self, f: impl FnOnce(&mut W, &mut Scheduler<W>) -> R) -> R {
        let core = self.core.as_mut().expect("world call while parked");
        let r = f(&mut core.world, &mut core.sched);
        core.drain_pending_spawns();
        r
    }

    /// Run a **read-only** access against the world and scheduler and
    /// return its result — the fast path for clock/config/state queries on
    /// the hot resume path. The shared borrow makes "cannot mutate, cannot
    /// spawn" part of the signature, so no spawn-drain bookkeeping runs.
    pub fn with_world_ref<R>(&mut self, f: impl FnOnce(&W, &Scheduler<W>) -> R) -> R {
        let core = self.core.as_ref().expect("world call while parked");
        f(&core.world, &core.sched)
    }

    /// Convenience: create a trigger via a world call.
    pub fn new_trigger(&mut self) -> Trigger {
        self.with_world(|_, s| s.new_trigger())
    }

    /// Convenience: wait until `pred` holds, re-checking whenever `n` is
    /// notified. The predicate check and the epoch snapshot happen in one
    /// world call, so no notification can be lost between them.
    pub fn wait_until<F>(&mut self, n: Notify, mut pred: F)
    where
        F: FnMut(&mut W, &mut Scheduler<W>) -> bool,
    {
        loop {
            let (done, seen) = self.with_world(|w, s| (pred(w, s), s.notify_epoch(n)));
            if done {
                return;
            }
            self.wait_notify(n, seen);
        }
    }
}

/// Driver-side record of one process.
pub(crate) struct ProcSlot<W> {
    pub name: String,
    /// Shared handle to the process's wakeup cell. `Arc` so the dispatch
    /// loop can clone a sender and then move the core *through* it (the
    /// original lives inside the core being sent).
    pub resume_tx: Arc<RendezvousSender<Box<Core<W>>>>,
    pub state: ProcState,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Not yet started or currently runnable/running.
    Active,
    /// Parked on a wait primitive (description for deadlock reports).
    Blocked(String),
    Finished,
}

pub(crate) fn blocked_sleep(t: Time) -> ProcState {
    ProcState::Blocked(format!("sleep until t={t}"))
}
pub(crate) fn blocked_trigger(id: u32) -> ProcState {
    ProcState::Blocked(format!("trigger #{id}"))
}
pub(crate) fn blocked_notify(id: u32) -> ProcState {
    ProcState::Blocked(format!("notify #{id}"))
}

/// Lease a pooled worker thread to back a simulated process.
///
/// The job spans the process's entire lifetime: it parks on its
/// rendezvous cell until the first resume delivers the baton, runs the
/// body under `catch_unwind`, and ends by either dispatching onward
/// (normal completion) or reporting a verdict to the driver (panic) —
/// after which the worker re-registers with the pool. A simulation
/// dropped mid-run disconnects the rendezvous cell, which unwinds the body
/// with [`SimShutdown`] — also returning the worker to the pool.
pub(crate) fn lease_process<W: Send + 'static>(
    pool: &Arc<ProcessPool>,
    id: ProcId,
    name: String,
    stack_size: usize,
    done_tx: Sender<Verdict<W>>,
    body: Body<W>,
) -> ProcSlot<W> {
    let (resume_tx, resume_rx) = rendezvous::<Box<Core<W>>>();
    let pname = name.clone();
    let job: Job = Box::new(move || {
        // Wait for the first resume before running the body. A simulation
        // torn down before this process ever ran lands in the `Err` arm.
        let core = match resume_rx.recv() {
            Ok(core) => core,
            Err(_) => return,
        };
        let mut ctx = ProcCtx {
            id,
            name: pname,
            now: core.sched.now(),
            resume_rx,
            done_tx,
            core: Some(core),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
        match result {
            Ok(()) => {
                // Body finished while holding the baton: mark ourselves
                // done and keep dispatching inline until the baton moves on
                // or the run ends.
                let mut core = ctx.core.take().expect("process finished while parked");
                core.procs[id.index()].state = ProcState::Finished;
                match dispatch(core, None) {
                    Dispatch::HandedOff => {}
                    Dispatch::Ended(kind, core) => {
                        let _ = ctx.done_tx.send(Verdict {
                            kind,
                            core: Some(core),
                        });
                    }
                    Dispatch::Resumed(_) => unreachable!("resumed a finished process"),
                }
            }
            Err(payload) => {
                if payload.downcast_ref::<SimShutdown>().is_some() {
                    // Simulation dropped while we were parked: finish the
                    // job quietly; the worker returns to the pool.
                    return;
                }
                let msg = panic_message(payload.as_ref());
                match ctx.core.take() {
                    // The body itself panicked (it held the baton): fail
                    // the run with process name, virtual time, and payload.
                    Some(mut core) => {
                        core.procs[id.index()].state = ProcState::Finished;
                        let at = core.sched.now();
                        let _ = ctx.done_tx.send(Verdict {
                            kind: VerdictKind::ProcPanicked {
                                name: ctx.name.clone(),
                                at,
                                msg,
                            },
                            core: Some(core),
                        });
                    }
                    // The panic came from inside the dispatch loop (an
                    // event closure blew up) and took the core with it;
                    // report what we know so the driver can re-panic.
                    None => {
                        let _ = ctx.done_tx.send(Verdict {
                            kind: VerdictKind::EventPanicked { msg },
                            core: None,
                        });
                    }
                }
            }
        }
    });
    pool.lease(stack_size)
        .send(job)
        .unwrap_or_else(|_| panic!("pooled worker for process '{name}' vanished"));
    ProcSlot {
        name,
        resume_tx: Arc::new(resume_tx),
        state: ProcState::Active,
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
