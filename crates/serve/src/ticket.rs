//! Completion tickets: the non-blocking half of the service API.
//!
//! A [`TuneTicket`] is a one-shot completion slot shared with the service
//! worker. Embedders with their own event loops never have to park a
//! thread on it: [`TuneTicket::on_ready`] registers a callback/waker hook
//! that the worker invokes the moment the answer (or failure) lands, and
//! [`TuneTicket::ready`] takes an answer that is already there (a cache
//! hit's, answered at submit). The blocking [`TuneTicket::wait`] of the
//! original API is a thin wrapper over the same slot.
//!
//! The worker side is a `TicketCompleter`: completing it fills the slot
//! exactly once, and *dropping* it without completing (worker shut down
//! with the request still queued, worker panic) fills the slot with
//! [`ServeError::Closed`] — a ticket can therefore never be lost, only
//! answered or failed.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use sorl::tuner::TopK;

use crate::service::ServeError;

/// The hook [`TuneTicket::on_ready`] registers. Runs exactly once, on the
/// thread that completes the ticket (the service worker for queued
/// answers).
type Callback = Box<dyn FnOnce(Result<TopK, ServeError>) + Send>;

#[derive(Default)]
struct SlotState {
    outcome: Option<Result<TopK, ServeError>>,
    callback: Option<Callback>,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    /// Locks the slot state, recovering from poisoning: the state is two
    /// `Option`s, each structurally valid whether or not the thread that
    /// panicked got to fill it, so a waiter must see the slot (and the
    /// completer's `Drop` must still deliver `Closed`) rather than
    /// propagate an unrelated thread's panic.
    fn state(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fresh ticket/completer pair sharing one completion slot.
pub(crate) fn pair() -> (TuneTicket, TicketCompleter) {
    let slot = Arc::new(Slot { state: Mutex::new(SlotState::default()), ready: Condvar::new() });
    (TuneTicket { slot: Arc::clone(&slot) }, TicketCompleter { slot: Some(slot) })
}

/// A pending answer for one submitted query.
///
/// Two ways to consume it, each observing the completion exactly once:
///
/// * [`wait`](Self::wait) — block until the answer lands (the original
///   blocking API).
/// * [`on_ready`](Self::on_ready) — register a callback; the worker runs
///   it when the answer lands (immediately, on the calling thread, if it
///   already has). This is the waker hook: an event-loop embedder wakes
///   its reactor from the callback instead of parking a thread here.
pub struct TuneTicket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for TuneTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneTicket").finish_non_exhaustive()
    }
}

impl TuneTicket {
    /// Blocks until the service answers (or reports it shut down without
    /// answering).
    pub fn wait(self) -> Result<TopK, ServeError> {
        let mut state = self.slot.state();
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome;
            }
            state = self.slot.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The outcome if the ticket is already complete, else the ticket
    /// back. A cache hit's ticket is complete when
    /// [`submit`](crate::TuneClient::submit) returns, so a transport can
    /// reply to it on the submitting thread.
    pub fn ready(self) -> Result<Result<TopK, ServeError>, TuneTicket> {
        let outcome = self.slot.state().outcome.take();
        outcome.ok_or(self)
    }

    /// Registers `hook` to run with the outcome the moment it lands — on
    /// the completing thread (the service worker), or immediately on this
    /// thread if the ticket is already complete, as a cache hit's is when
    /// [`submit`](crate::TuneClient::submit) returns. Keep hooks cheap
    /// (hand off to your own executor/channel): they run inline on the
    /// worker's reply path.
    pub fn on_ready(self, hook: impl FnOnce(Result<TopK, ServeError>) + Send + 'static) {
        let ready = {
            let mut state = self.slot.state();
            match state.outcome.take() {
                Some(outcome) => Some(outcome),
                None => {
                    state.callback = Some(Box::new(hook));
                    return;
                }
            }
        };
        if let Some(outcome) = ready {
            hook(outcome);
        }
    }
}

/// The worker-side handle that fulfills one [`TuneTicket`]. Dropping it
/// un-completed fails the ticket with [`ServeError::Closed`].
pub(crate) struct TicketCompleter {
    slot: Option<Arc<Slot>>,
}

impl std::fmt::Debug for TicketCompleter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketCompleter").finish_non_exhaustive()
    }
}

impl TicketCompleter {
    /// Fills the slot with `outcome`, waking the waiter / running the
    /// registered callback.
    pub(crate) fn complete(mut self, outcome: Result<TopK, ServeError>) {
        // `complete` consumes self, so the slot is still present (only
        // this method and Drop ever take it); if let keeps that
        // invariant panic-free.
        if let Some(slot) = self.slot.take() {
            Self::fill(&slot, outcome);
        }
    }

    fn fill(slot: &Slot, outcome: Result<TopK, ServeError>) {
        let mut state = slot.state();
        match state.callback.take() {
            Some(callback) => {
                // Run the hook outside the lock: it may be arbitrary user
                // code.
                drop(state);
                callback(outcome);
            }
            None => {
                state.outcome = Some(outcome);
                slot.ready.notify_all();
            }
        }
    }
}

impl Drop for TicketCompleter {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            Self::fill(&slot, Err(ServeError::Closed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> TopK {
        TopK { entries: Vec::new(), candidates: 7, seconds: 0.0 }
    }

    #[test]
    fn wait_blocks_until_completion() {
        let (ticket, completer) = pair();
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        completer.complete(Ok(answer()));
        assert_eq!(waiter.join().unwrap().unwrap().candidates, 7);
    }

    #[test]
    fn callback_runs_on_completion_exactly_once() {
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (ticket, completer) = pair();
        let seen = Arc::clone(&count);
        ticket.on_ready(move |outcome| {
            assert_eq!(outcome.unwrap().candidates, 7);
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 0, "not before completion");
        completer.complete(Ok(answer()));
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn callback_registered_after_completion_runs_immediately() {
        let (ticket, completer) = pair();
        completer.complete(Ok(answer()));
        let ran = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = Arc::clone(&ran);
        ticket.on_ready(move |_| {
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn ready_takes_only_an_outcome_that_has_landed() {
        let (ticket, completer) = pair();
        let ticket = ticket.ready().expect_err("nothing has landed yet");
        completer.complete(Ok(answer()));
        assert_eq!(ticket.ready().unwrap().unwrap().candidates, 7);

        // A dropped completer lands as `Closed`.
        let (ticket, completer) = pair();
        let ticket = ticket.ready().expect_err("nothing has landed yet");
        drop(completer);
        assert_eq!(ticket.ready().unwrap().unwrap_err(), ServeError::Closed);

        // A pending ticket handed back still delivers through `wait`.
        let (ticket, completer) = pair();
        let ticket = ticket.ready().expect_err("nothing has landed yet");
        let waiter = std::thread::spawn(move || ticket.wait());
        completer.complete(Ok(answer()));
        assert_eq!(waiter.join().unwrap().unwrap().candidates, 7);
    }

    #[test]
    fn dropped_completer_fails_the_ticket_with_closed() {
        let (ticket, completer) = pair();
        drop(completer);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Closed);

        let (ticket, completer) = pair();
        let failed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = Arc::clone(&failed);
        ticket.on_ready(move |outcome| {
            assert_eq!(outcome.unwrap_err(), ServeError::Closed);
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        drop(completer);
        assert_eq!(failed.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
