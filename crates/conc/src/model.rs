//! Bounded exhaustive interleaving exploration (a loom/DPOR-lite).
//!
//! The explorer runs a *scenario* — a closure that spawns threads via
//! [`spawn`] and synchronizes through the crate's [`crate::Mutex`] /
//! [`crate::Condvar`] shim — through **every schedule the shim can
//! distinguish**, up to an execution budget. The trick is the classic
//! cooperative-token design: every model thread is a real OS thread, but
//! exactly one holds the *token* at a time, so an execution is fully
//! serialized and the only nondeterminism is which thread the controller
//! grants the token to at each *yield point* (lock acquire, condvar
//! wait/notify, spawn, join, atomic RMW). Each such decision with more
//! than one enabled thread is recorded on a **trail**; between
//! executions the trail is advanced like an odometer (depth-first,
//! last-choice-first), so the search is exhaustive and deterministic —
//! no seeds, no timing dependence.
//!
//! What a run checks:
//!
//! * **Deadlock-freedom** — if no thread is enabled while some are still
//!   live, the controller records a [`Failure::Deadlock`] with every
//!   thread's block site and held locks.
//! * **Lost wakeups** — the model condvar has *no spurious wakeups*: a
//!   waiter only resumes when an explicit notify reaches it. A dropped
//!   notify therefore shows up as a deadlock instead of being papered
//!   over by timing, which is exactly what makes it checkable.
//! * **Self-deadlock** — a thread re-acquiring a mutex it already holds
//!   is reported as [`Failure::DoubleLock`] before it would wedge.
//! * **Scenario assertions** — any panic inside the scenario (e.g. a
//!   failed linearizability check) is captured as [`Failure::Panic`].
//!
//! On the first failure the whole execution is torn down by unwinding
//! every model thread with a private [`ModelAbort`] payload, and the
//! [`Report`] carries the failing trail for reproduction.
//!
//! What this does *not* prove: the model serializes whole critical
//! sections, so it cannot see data races on memory accessed outside the
//! shim, and exploration is bounded by `max_executions` — a `complete:
//! false` report means the space was sampled depth-first, not covered.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError,
};
use std::thread;

use crate::order;

/// Panic payload used to unwind every model thread once a failure (or a
/// budget stop) has been recorded. Never escapes the explorer.
struct ModelAbort;

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// True when the calling thread is running under the model scheduler.
///
/// The executor uses this to fall back to serial in-thread execution:
/// raw `std::thread` parallelism inside a model run would be invisible
/// to the controller and would reintroduce wall-clock nondeterminism.
#[must_use]
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// A voluntary yield point: under the model this is a scheduling
/// decision; outside it is a no-op.
pub fn yield_now() {
    if let Some(cx) = ctx() {
        cx.yield_now();
    }
}

/// One recorded scheduling decision: which of the `enabled` threads was
/// granted the token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Index into the (deterministically ordered) enabled set.
    pub chosen: usize,
    /// Size of the enabled set at this decision point.
    pub enabled: usize,
}

/// Why an exploration stopped with a counterexample.
#[derive(Clone, Debug)]
pub enum Failure {
    /// No thread is enabled but some are still live. `detail` lists each
    /// live thread's block site and held locks.
    Deadlock {
        /// Human-readable per-thread block sites and held locks.
        detail: String,
    },
    /// A thread re-acquired a mutex it already holds.
    DoubleLock {
        /// Label of the re-acquired mutex.
        label: &'static str,
    },
    /// The scenario panicked (failed assertion, slice OOB, ...).
    Panic {
        /// The panic message, when it was a string payload.
        message: String,
    },
    /// A single execution exceeded the step budget (runaway scenario).
    StepLimit {
        /// Steps taken when the limit tripped.
        steps: u64,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            Failure::DoubleLock { label } => {
                write!(
                    f,
                    "double lock: thread re-acquired '{label}' it already holds"
                )
            }
            Failure::Panic { message } => write!(f, "scenario panic: {message}"),
            Failure::StepLimit { steps } => write!(f, "step limit exceeded ({steps} steps)"),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TState {
    Ready,
    Running,
    /// Blocked acquiring the mutex at this key.
    Lock(usize),
    /// Parked on a condvar, mutex released; `lock` is re-acquired on wake.
    Cond {
        cv: usize,
        lock: usize,
    },
    /// Blocked joining thread `0`.
    Join(usize),
    Finished,
}

struct ThreadRec {
    name: String,
    state: TState,
    /// Mutexes currently held: (key, label), acquisition order.
    held: Vec<(usize, &'static str)>,
}

struct LockRec {
    label: &'static str,
    holder: Option<usize>,
}

struct CvRec {
    label: &'static str,
    waiters: VecDeque<usize>,
}

struct Ctl {
    threads: Vec<ThreadRec>,
    current: Option<usize>,
    locks: HashMap<usize, LockRec>,
    cvs: HashMap<usize, CvRec>,
    trail: Vec<Choice>,
    cursor: usize,
    steps: u64,
    max_steps: u64,
    failure: Option<Failure>,
    live: usize,
}

pub(crate) struct Controller {
    mx: StdMutex<Ctl>,
    cv: StdCondvar,
}

fn enabled(ctl: &Ctl) -> Vec<usize> {
    ctl.threads
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let ok = match t.state {
                TState::Ready => true,
                TState::Lock(l) => ctl.locks.get(&l).is_none_or(|r| r.holder.is_none()),
                TState::Join(target) => ctl.threads[target].state == TState::Finished,
                _ => false,
            };
            ok.then_some(i)
        })
        .collect()
}

fn block_site(ctl: &Ctl, t: &ThreadRec) -> String {
    match t.state {
        TState::Lock(l) => {
            let label = ctl.locks.get(&l).map_or("?", |r| r.label);
            format!("acquiring mutex '{label}'")
        }
        TState::Cond { cv, .. } => {
            let label = ctl.cvs.get(&cv).map_or("?", |r| r.label);
            format!("waiting on condvar '{label}'")
        }
        TState::Join(target) => format!("joining thread {target}"),
        ref s => format!("{s:?}"),
    }
}

fn deadlock_detail(ctl: &Ctl) -> String {
    let parts: Vec<String> = ctl
        .threads
        .iter()
        .filter(|t| t.state != TState::Finished)
        .map(|t| {
            let held: Vec<&str> = t.held.iter().map(|&(_, l)| l).collect();
            format!(
                "{} {} holding [{}]",
                t.name,
                block_site(ctl, t),
                held.join(", ")
            )
        })
        .collect();
    parts.join("; ")
}

impl Controller {
    fn new(trail: Vec<Choice>, max_steps: u64) -> Controller {
        Controller {
            mx: StdMutex::new(Ctl {
                threads: Vec::new(),
                current: None,
                locks: HashMap::new(),
                cvs: HashMap::new(),
                trail,
                cursor: 0,
                steps: 0,
                max_steps,
                failure: None,
                live: 0,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, Ctl> {
        self.mx.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record `failure` (first one wins), wake everyone, and unwind the
    /// calling thread.
    fn abort(&self, mut ctl: StdMutexGuard<'_, Ctl>, failure: Failure) -> ! {
        if ctl.failure.is_none() {
            ctl.failure = Some(failure);
        }
        self.cv.notify_all();
        drop(ctl);
        panic::panic_any(ModelAbort);
    }

    /// Pick the next token holder among enabled threads, consuming (or
    /// extending) the trail. Detects deadlock and the step budget.
    fn pick_next(&self, ctl: &mut Ctl) {
        if ctl.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        ctl.steps += 1;
        if ctl.steps > ctl.max_steps {
            ctl.failure = Some(Failure::StepLimit { steps: ctl.steps });
            self.cv.notify_all();
            return;
        }
        let en = enabled(ctl);
        if en.is_empty() {
            ctl.current = None;
            if ctl.live > 0 {
                ctl.failure = Some(Failure::Deadlock {
                    detail: deadlock_detail(ctl),
                });
            }
            self.cv.notify_all();
            return;
        }
        let idx = if en.len() == 1 {
            0
        } else if ctl.cursor < ctl.trail.len() {
            let c = ctl.trail[ctl.cursor];
            assert_eq!(
                c.enabled,
                en.len(),
                "model replay divergence: enabled-set size changed between executions"
            );
            ctl.cursor += 1;
            c.chosen
        } else {
            ctl.trail.push(Choice {
                chosen: 0,
                enabled: en.len(),
            });
            ctl.cursor += 1;
            0
        };
        ctl.current = Some(en[idx]);
        self.cv.notify_all();
    }

    /// Park until the token is granted to `me`, then complete the pending
    /// state transition (lock acquisition, join completion, ...).
    fn wait_for_grant<'c>(
        &'c self,
        mut ctl: StdMutexGuard<'c, Ctl>,
        me: usize,
    ) -> StdMutexGuard<'c, Ctl> {
        loop {
            if ctl.failure.is_some() {
                drop(ctl);
                panic::panic_any(ModelAbort);
            }
            if ctl.current == Some(me) {
                match ctl.threads[me].state.clone() {
                    TState::Ready | TState::Running => ctl.threads[me].state = TState::Running,
                    TState::Lock(addr) => {
                        let rec = ctl
                            .locks
                            .get_mut(&addr)
                            .expect("granted lock is registered");
                        debug_assert!(rec.holder.is_none(), "granted a held lock");
                        rec.holder = Some(me);
                        let label = rec.label;
                        ctl.threads[me].held.push((addr, label));
                        ctl.threads[me].state = TState::Running;
                    }
                    TState::Join(_) => ctl.threads[me].state = TState::Running,
                    s => unreachable!("token granted to thread in state {s:?}"),
                }
                return ctl;
            }
            ctl = self.cv.wait(ctl).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Per-thread handle into the controller; stored in TLS by the model
/// thread wrapper.
#[derive(Clone)]
pub(crate) struct Ctx {
    ctl: Arc<Controller>,
    tid: usize,
}

impl Ctx {
    fn checked_lock(&self) -> StdMutexGuard<'_, Ctl> {
        let ctl = self.ctl.lock();
        if ctl.failure.is_some() {
            drop(ctl);
            panic::panic_any(ModelAbort);
        }
        ctl
    }

    /// Yield the token with my state set to `state`; returns once granted.
    fn yield_as(&self, state: TState) {
        let mut ctl = self.checked_lock();
        ctl.threads[self.tid].state = state;
        self.ctl.pick_next(&mut ctl);
        let ctl = self.ctl.wait_for_grant(ctl, self.tid);
        drop(ctl);
    }

    pub(crate) fn yield_now(&self) {
        self.yield_as(TState::Ready);
    }

    /// Acquire the mutex at `addr`: a yield point even when free.
    pub(crate) fn acquire(&self, addr: usize, label: &'static str) {
        let mut ctl = self.checked_lock();
        let me = self.tid;
        let rec = ctl.locks.entry(addr).or_insert(LockRec {
            label,
            holder: None,
        });
        rec.label = label;
        if rec.holder == Some(me) {
            self.ctl.abort(ctl, Failure::DoubleLock { label });
        }
        let held: Vec<&'static str> = ctl.threads[me].held.iter().map(|&(_, l)| l).collect();
        for h in held {
            order::record_edge(h, label);
        }
        ctl.threads[me].state = TState::Lock(addr);
        self.ctl.pick_next(&mut ctl);
        let ctl = self.ctl.wait_for_grant(ctl, me);
        drop(ctl);
    }

    /// Release the mutex at `addr`. Not a yield point, and must never
    /// panic: it runs from guard drops during abort unwinding.
    pub(crate) fn release(&self, addr: usize) {
        let mut ctl = self.ctl.lock();
        let me = self.tid;
        if let Some(rec) = ctl.locks.get_mut(&addr) {
            if rec.holder == Some(me) {
                rec.holder = None;
            }
        }
        ctl.threads[me].held.retain(|&(a, _)| a != addr);
    }

    /// Atomically release the mutex and park on the condvar; returns with
    /// the mutex re-acquired (model semantics: no spurious wakeups).
    pub(crate) fn cond_wait(&self, cv_addr: usize, cv_label: &'static str, lock_addr: usize) {
        let mut ctl = self.checked_lock();
        let me = self.tid;
        let rec = ctl
            .locks
            .get_mut(&lock_addr)
            .expect("cond_wait without the mutex held");
        assert_eq!(rec.holder, Some(me), "cond_wait caller must hold the mutex");
        rec.holder = None;
        ctl.threads[me].held.retain(|&(a, _)| a != lock_addr);
        ctl.cvs
            .entry(cv_addr)
            .or_insert_with(|| CvRec {
                label: cv_label,
                waiters: VecDeque::new(),
            })
            .waiters
            .push_back(me);
        ctl.threads[me].state = TState::Cond {
            cv: cv_addr,
            lock: lock_addr,
        };
        self.ctl.pick_next(&mut ctl);
        // A notify moves us Cond -> Lock; the grant completes re-acquisition.
        let ctl = self.ctl.wait_for_grant(ctl, me);
        drop(ctl);
    }

    /// Wake one / all waiters (FIFO); a yield point.
    pub(crate) fn notify(&self, cv_addr: usize, cv_label: &'static str, all: bool) {
        let mut ctl = self.checked_lock();
        let rec = ctl.cvs.entry(cv_addr).or_insert_with(|| CvRec {
            label: cv_label,
            waiters: VecDeque::new(),
        });
        let n = if all {
            rec.waiters.len()
        } else {
            usize::from(!rec.waiters.is_empty())
        };
        let woken: Vec<usize> = (0..n).filter_map(|_| rec.waiters.pop_front()).collect();
        for t in woken {
            let TState::Cond { lock, .. } = ctl.threads[t].state else {
                unreachable!("condvar waiter not in Cond state");
            };
            ctl.threads[t].state = TState::Lock(lock);
        }
        ctl.threads[self.tid].state = TState::Ready;
        self.ctl.pick_next(&mut ctl);
        let ctl = self.ctl.wait_for_grant(ctl, self.tid);
        drop(ctl);
    }

    /// Register a new model thread; returns its tid.
    fn register(&self, name: String) -> usize {
        let mut ctl = self.checked_lock();
        ctl.threads.push(ThreadRec {
            name,
            state: TState::Ready,
            held: Vec::new(),
        });
        ctl.live += 1;
        ctl.threads.len() - 1
    }

    /// Block until `target` finishes; a yield point.
    fn join_thread(&self, target: usize) {
        self.yield_as(TState::Join(target));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Body of every model thread: wait for the first grant, run the
/// closure, record the result, mark finished, and hand the token on.
fn model_thread_main<R: Send>(
    ctl: &Arc<Controller>,
    tid: usize,
    slot: &Arc<StdMutex<Option<thread::Result<R>>>>,
    f: impl FnOnce() -> R,
) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            ctl: Arc::clone(ctl),
            tid,
        });
    });
    let entry = ctl.lock();
    let outcome = match panic::catch_unwind(AssertUnwindSafe(|| {
        let granted = ctl.wait_for_grant(entry, tid);
        drop(granted);
    })) {
        // Aborted before ever running: skip the closure entirely.
        Err(p) => Err(p),
        Ok(()) => panic::catch_unwind(AssertUnwindSafe(f)),
    };
    let aborted = matches!(&outcome, Err(p) if p.is::<ModelAbort>());
    let mut ctl_g = ctl.lock();
    match outcome {
        Ok(v) => {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Ok(v));
        }
        Err(p) => {
            if !aborted && ctl_g.failure.is_none() {
                ctl_g.failure = Some(Failure::Panic {
                    message: panic_message(p.as_ref()),
                });
            }
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Err(p));
        }
    }
    ctl_g.threads[tid].state = TState::Finished;
    ctl_g.threads[tid].held.clear();
    ctl_g.live -= 1;
    ctl.pick_next(&mut ctl_g);
    ctl.cv.notify_all();
    drop(ctl_g);
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Handle to a thread started with [`spawn`].
pub struct JoinHandle<R> {
    inner: HandleInner<R>,
}

enum HandleInner<R> {
    Std(thread::JoinHandle<R>),
    Model {
        target: usize,
        result: Arc<StdMutex<Option<thread::Result<R>>>>,
        os: thread::JoinHandle<()>,
    },
}

impl<R> JoinHandle<R> {
    /// Wait for the thread and return its result, propagating panics.
    ///
    /// # Panics
    ///
    /// Panics if the joined thread panicked (mirroring
    /// `std::thread::JoinHandle::join().unwrap()`).
    pub fn join(self) -> R {
        match self.inner {
            HandleInner::Std(h) => match h.join() {
                Ok(v) => v,
                Err(p) => panic::resume_unwind(p),
            },
            HandleInner::Model { target, result, os } => {
                if let Some(cx) = ctx() {
                    cx.join_thread(target);
                }
                let _ = os.join();
                let out = result.lock().unwrap_or_else(PoisonError::into_inner).take();
                match out {
                    Some(Ok(v)) => v,
                    // Child panicked or was aborted; the failure is already
                    // recorded — tear this thread down too.
                    _ => panic::panic_any(ModelAbort),
                }
            }
        }
    }
}

/// Spawn a thread. Under the model this registers a schedulable model
/// thread (and is itself a yield point); outside it is
/// `std::thread::spawn`.
pub fn spawn<F, R>(f: F) -> JoinHandle<R>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let Some(cx) = ctx() else {
        return JoinHandle {
            inner: HandleInner::Std(thread::spawn(f)),
        };
    };
    let tid = cx.register(format!("thread-{}", cx.ctl.lock().threads.len()));
    let result: Arc<StdMutex<Option<thread::Result<R>>>> = Arc::new(StdMutex::new(None));
    let ctl = Arc::clone(&cx.ctl);
    let slot = Arc::clone(&result);
    let os = thread::Builder::new()
        .name(format!("psim-model-{tid}"))
        .spawn(move || model_thread_main(&ctl, tid, &slot, f))
        .expect("spawn model thread");
    // Let the scheduler decide whether the child or the parent runs next.
    cx.yield_now();
    JoinHandle {
        inner: HandleInner::Model {
            target: tid,
            result,
            os,
        },
    }
}

/// Outcome of one [`Explorer::explore`] call.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions actually run.
    pub executions: usize,
    /// True when the schedule space was exhausted within the budget.
    pub complete: bool,
    /// Maximum trail depth (scheduling decisions with >1 enabled thread)
    /// seen across executions.
    pub decision_points: usize,
    /// The first failure found, if any.
    pub failure: Option<Failure>,
    /// Trail of the failing execution (for reproduction), or of the last
    /// execution when no failure was found.
    pub trail: Vec<Choice>,
}

impl Report {
    /// True when exploration found no counterexample.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// Assert the exploration found no counterexample.
    ///
    /// # Panics
    ///
    /// Panics with the failure and its repro trail otherwise.
    pub fn assert_ok(&self, what: &str) {
        assert!(
            self.ok(),
            "model check '{what}' failed after {} executions: {}\nrepro trail: {:?}",
            self.executions,
            self.failure.as_ref().expect("failure present"),
            self.trail,
        );
    }
}

fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // Model-thread panics are captured into the Report; printing
            // them would flood stderr with expected counterexamples.
            if in_model() {
                return;
            }
            prev(info);
        }));
    });
}

/// Depth-first bounded exploration driver.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    /// Execution budget: exploration stops (incomplete) after this many.
    pub max_executions: usize,
    /// Per-execution step budget (yield points) before [`Failure::StepLimit`].
    pub max_steps: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_executions: 50_000,
            max_steps: 200_000,
        }
    }
}

impl Explorer {
    /// An explorer with the given execution budget.
    #[must_use]
    pub fn new(max_executions: usize) -> Self {
        Explorer {
            max_executions,
            ..Explorer::default()
        }
    }

    /// Run `scenario` through every distinguishable interleaving (up to
    /// the budget). The closure is invoked once per execution as model
    /// thread 0 and must be re-runnable.
    pub fn explore<F>(&self, scenario: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_quiet_panic_hook();
        let scenario = Arc::new(scenario);
        let mut trail: Vec<Choice> = Vec::new();
        let mut executions = 0usize;
        let mut decision_points = 0usize;
        loop {
            let ctl = Arc::new(Controller::new(trail.clone(), self.max_steps));
            {
                let mut g = ctl.lock();
                g.threads.push(ThreadRec {
                    name: "root".to_string(),
                    state: TState::Ready,
                    held: Vec::new(),
                });
                g.live = 1;
                g.current = Some(0);
            }
            let slot: Arc<StdMutex<Option<thread::Result<()>>>> = Arc::new(StdMutex::new(None));
            let root = {
                let ctl = Arc::clone(&ctl);
                let slot = Arc::clone(&slot);
                let scenario = Arc::clone(&scenario);
                thread::Builder::new()
                    .name("psim-model-0".to_string())
                    .spawn(move || model_thread_main(&ctl, 0, &slot, move || scenario()))
                    .expect("spawn model root")
            };
            let (failure, final_trail) = {
                let mut g = ctl.lock();
                while g.live > 0 {
                    g = ctl.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                (g.failure.clone(), g.trail.clone())
            };
            let _ = root.join();
            executions += 1;
            decision_points = decision_points.max(final_trail.len());
            if failure.is_some() {
                return Report {
                    executions,
                    complete: false,
                    decision_points,
                    failure,
                    trail: final_trail,
                };
            }
            // Advance the trail odometer: bump the deepest decision that
            // still has unexplored alternatives, dropping exhausted tails.
            let mut next = final_trail;
            loop {
                let Some(last) = next.last_mut() else {
                    return Report {
                        executions,
                        complete: true,
                        decision_points,
                        failure: None,
                        trail: Vec::new(),
                    };
                };
                if last.chosen + 1 < last.enabled {
                    last.chosen += 1;
                    break;
                }
                next.pop();
            }
            if executions >= self.max_executions {
                return Report {
                    executions,
                    complete: false,
                    decision_points,
                    failure: None,
                    trail: next,
                };
            }
            trail = next;
        }
    }
}

/// Seeded concurrency bugs, one per class the explorer claims to catch.
/// A checker that cannot catch its own mutants proves nothing, so the
/// `psim_model` gate and this crate's tests both explore each one with
/// their own budget and require the matching [`Failure`].
pub mod mutants {
    use super::{spawn, Explorer, Report};
    use crate::{Condvar, Mutex};
    use std::sync::Arc;

    /// A thread re-locks `mut.double`, which it already holds. Caught as
    /// [`Failure::DoubleLock`](super::Failure::DoubleLock).
    #[must_use]
    pub fn double_lock(budget: usize) -> Report {
        Explorer::new(budget).explore(|| {
            let m = Mutex::labeled("mut.double", 0u32);
            let g1 = m.lock();
            let g2 = m.lock(); // seeded bug: self-deadlock
            drop(g2);
            drop(g1);
        })
    }

    /// A producer stores a value but never notifies the consumer waiting
    /// for it. The model condvar has no spurious wakeups, so every
    /// schedule where the consumer parks first is caught as a
    /// [`Failure::Deadlock`](super::Failure::Deadlock) naming the condvar.
    #[must_use]
    pub fn dropped_notify(budget: usize) -> Report {
        Explorer::new(budget).explore(|| {
            let ch = Arc::new((Mutex::labeled("mut.notify", None::<u32>), Condvar::new()));
            let tx = Arc::clone(&ch);
            let producer = spawn(move || {
                *tx.0.lock() = Some(7); // seeded bug: no notify
            });
            let mut g = ch.0.lock();
            while g.is_none() {
                g = ch.1.wait(g);
            }
            drop(g);
            producer.join();
        })
    }

    /// One thread takes `mut.order.a` then `mut.order.b`, the other the
    /// reverse. Caught as a [`Failure::Deadlock`](super::Failure::Deadlock),
    /// and the lock-order graph ([`crate::order`]) records both edges, a
    /// cycle.
    #[must_use]
    pub fn swapped_lock_order(budget: usize) -> Report {
        Explorer::new(budget).explore(|| {
            let a = Arc::new(Mutex::labeled("mut.order.a", ()));
            let b = Arc::new(Mutex::labeled("mut.order.b", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let ga = a2.lock();
                let gb = b2.lock();
                drop(gb);
                drop(ga);
            });
            let gb = b.lock(); // seeded bug: inverted order
            let ga = a.lock();
            drop(ga);
            drop(gb);
            t.join();
        })
    }
}
