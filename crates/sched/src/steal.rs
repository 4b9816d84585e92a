//! Layer 3 ownership: the atomic claim/steal protocol and targeted parking.
//!
//! Each virtual-node group has one word of state in a [`GroupTable`]:
//! either *free*, or *owned* by a worker, with an *active* bit set while the
//! owner is executing a quantum on one of the group's nodes. All transitions
//! are single-word compare-and-swaps, which makes the two safety properties
//! structural rather than emergent:
//!
//! * **no double execution** — `begin` is a CAS from the inactive owned
//!   state, so two threads can never both hold the active bit;
//! * **no lost groups** — a group is only ever free or owned by exactly one
//!   worker; steals move ownership in one CAS (which fails while the victim
//!   is mid-quantum), and rebalance hand-offs release to free before the
//!   target claims, with free runnable groups re-adopted by any idle worker.
//!
//! These properties are model-checked under `--cfg pipes_model_check`
//! (see `crates/sched/tests/model_check.rs`).

use crate::plan::GroupId;
use pipes_sync::atomic::{AtomicUsize, Ordering};
use pipes_sync::{Condvar, Mutex, RwLock};
use std::time::Duration;

const FREE: usize = 0;

fn owned_by(worker: usize) -> usize {
    (worker + 1) << 1
}

/// One word of ownership state per virtual-node group.
///
/// The slot vector sits behind a read–write lock only so the table can
/// *grow* when the leader re-plans after a topology splice: every
/// ownership transition is still a single-word atomic performed under the
/// read guard (shared, uncontended in steady state), and existing slots
/// never move logically — a grown table extends the id space, it never
/// renumbers. `grow` takes the write guard for the duration of a `Vec`
/// extend, which excludes transitions only for that instant.
pub struct GroupTable {
    states: RwLock<Vec<AtomicUsize>>,
}

impl GroupTable {
    /// Creates a table of `groups` slots, all free.
    pub fn new(groups: usize) -> Self {
        GroupTable {
            states: RwLock::new((0..groups).map(|_| AtomicUsize::new(FREE)).collect()),
        }
    }

    /// Number of group slots.
    pub fn len(&self) -> usize {
        self.states.read().len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extends the table to at least `total` slots, all new slots free.
    /// Shrinking never happens: retired groups keep their slot (drained,
    /// unowned) so ids stay stable for the life of the run.
    pub fn grow(&self, total: usize) {
        let mut states = self.states.write();
        while states.len() < total {
            states.push(AtomicUsize::new(FREE));
        }
    }

    /// The worker currently owning `group`, if any.
    pub fn owner(&self, group: GroupId) -> Option<usize> {
        let s = self.states.read()[group].load(Ordering::Acquire);
        if s == FREE {
            None
        } else {
            Some((s >> 1) - 1)
        }
    }

    /// Whether `group`'s owner is currently executing a quantum on it.
    pub fn is_active(&self, group: GroupId) -> bool {
        self.states.read()[group].load(Ordering::Acquire) & 1 == 1
    }

    /// Claims a free group for `me`. Fails if the group is owned.
    pub fn try_claim(&self, group: GroupId, me: usize) -> bool {
        self.states.read()[group]
            .compare_exchange(FREE, owned_by(me), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Steals `group` from `victim` for `me`. Fails if the victim is not
    /// the (inactive) owner — in particular while the victim is mid-quantum
    /// on the group, so a steal never interrupts an execution.
    pub fn try_steal(&self, group: GroupId, victim: usize, me: usize) -> bool {
        victim != me
            && self.states.read()[group]
                .compare_exchange(
                    owned_by(victim),
                    owned_by(me),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
    }

    /// Marks the start of a quantum on `group` by its owner `me`. Fails if
    /// `me` no longer owns the group (it was stolen or handed off since the
    /// caller last looked) — the caller must then re-derive its owned set.
    pub fn begin(&self, group: GroupId, me: usize) -> bool {
        self.states.read()[group]
            .compare_exchange(
                owned_by(me),
                owned_by(me) | 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Marks the end of a quantum started with a successful
    /// [`GroupTable::begin`].
    ///
    /// # Panics
    ///
    /// Panics if `me` is not the active owner — that would mean two workers
    /// executed the group at once, which the protocol rules out.
    pub fn end(&self, group: GroupId, me: usize) {
        let prev = self.states.read()[group].swap(owned_by(me), Ordering::AcqRel);
        assert_eq!(
            prev,
            owned_by(me) | 1,
            "group {group} ended by non-active worker {me}"
        );
    }

    /// Releases an owned, inactive group back to the free pool (rebalance
    /// hand-off). Fails if `me` is not the inactive owner.
    pub fn release(&self, group: GroupId, me: usize) -> bool {
        self.states.read()[group]
            .compare_exchange(owned_by(me), FREE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The groups currently owned by `me`, in id order. A snapshot — other
    /// workers may steal concurrently, which [`GroupTable::begin`] detects.
    pub fn owned(&self, me: usize) -> Vec<GroupId> {
        let states = self.states.read();
        states
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let v = s.load(Ordering::Acquire);
                v != FREE && (v >> 1) - 1 == me
            })
            .map(|(g, _)| g)
            .collect()
    }
}

/// A per-worker wake token: [`Parker::park`] consumes a pending token or
/// blocks until [`Parker::unpark`] (or the timeout); an unpark that races
/// ahead of the park is never lost. Built on the facade mutex + condvar so
/// it works identically under the model checker.
pub struct Parker {
    state: Mutex<ParkState>,
    cv: Condvar,
}

#[derive(Default)]
struct ParkState {
    /// A wake-up deposited and not yet consumed.
    token: bool,
    /// The owner is blocked on the condvar: the only time an unpark has
    /// anybody to notify (a notify is a syscall whether or not someone
    /// waits).
    parked: bool,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl Parker {
    /// Creates a parker with no pending token.
    pub fn new() -> Self {
        Parker {
            state: Mutex::new(ParkState::default()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a token is available or `timeout` elapses; consumes the
    /// token. Returns `true` if a token was consumed (an unpark happened
    /// before or during the wait), `false` on timeout.
    pub fn park(&self, timeout: Duration) -> bool {
        let mut state = self.state.lock();
        if !state.token {
            state.parked = true;
            let _ = self.cv.wait_for(&mut state, timeout);
            state.parked = false;
        }
        std::mem::take(&mut state.token)
    }

    /// Deposits a wake token and wakes the parked worker, if any; returns
    /// whether there was one. With nobody parked the token alone does the
    /// job: the next `park` consumes it without blocking.
    pub fn unpark(&self) -> bool {
        let mut state = self.state.lock();
        state.token = true;
        if state.parked {
            self.cv.notify_one();
        }
        state.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_steal_release_lifecycle() {
        let t = GroupTable::new(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.owner(0), None);
        assert!(t.try_claim(0, 3));
        assert_eq!(t.owner(0), Some(3));
        assert!(!t.try_claim(0, 1), "owned groups cannot be re-claimed");
        assert!(t.try_steal(0, 3, 1));
        assert_eq!(t.owner(0), Some(1));
        assert!(!t.try_steal(0, 3, 2), "stale victim fails");
        assert!(!t.try_steal(0, 1, 1), "self-steal rejected");
        assert!(t.release(0, 1));
        assert_eq!(t.owner(0), None);
        assert!(!t.release(0, 1));
        assert_eq!(t.owned(1), Vec::<GroupId>::new());
    }

    #[test]
    fn active_groups_resist_steal_and_release() {
        let t = GroupTable::new(1);
        assert!(t.try_claim(0, 0));
        assert!(!t.begin(0, 1), "only the owner can begin");
        assert!(t.begin(0, 0));
        assert!(t.is_active(0));
        assert!(!t.try_steal(0, 0, 1), "active group cannot be stolen");
        assert!(!t.release(0, 0), "active group cannot be released");
        assert!(!t.begin(0, 0), "no nested begin");
        t.end(0, 0);
        assert!(!t.is_active(0));
        assert_eq!(t.owner(0), Some(0));
        assert_eq!(t.owned(0), vec![0]);
    }

    #[test]
    fn grow_extends_without_disturbing_existing_slots() {
        let t = GroupTable::new(1);
        assert!(t.try_claim(0, 0));
        assert!(t.begin(0, 0));
        t.grow(3);
        assert_eq!(t.len(), 3);
        assert!(t.is_active(0), "grow must not disturb in-flight state");
        t.end(0, 0);
        assert_eq!(t.owner(0), Some(0));
        assert_eq!(t.owner(1), None);
        assert!(t.try_claim(2, 1));
        t.grow(2); // never shrinks
        assert_eq!(t.len(), 3);
        assert_eq!(t.owned(1), vec![2]);
    }

    #[test]
    #[should_panic(expected = "non-active")]
    fn end_without_begin_panics() {
        let t = GroupTable::new(1);
        assert!(t.try_claim(0, 0));
        t.end(0, 0);
    }

    #[test]
    fn parker_token_is_not_lost_when_unpark_comes_first() {
        let p = Parker::new();
        p.unpark();
        assert!(p.park(Duration::from_secs(0)), "pending token consumed");
        assert!(
            !p.park(Duration::from_millis(1)),
            "second park times out: token was consumed"
        );
    }

    #[test]
    fn unpark_notifies_a_worker_that_is_parked() {
        use pipes_sync::thread;
        use std::time::Instant;
        let p = pipes_sync::Arc::new(Parker::new());
        let waiter = {
            let p = pipes_sync::Arc::clone(&p);
            thread::spawn(move || {
                let start = Instant::now();
                (p.park(Duration::from_secs(120)), start.elapsed())
            })
        };
        // Only a worker seen blocked on the condvar can be missed by an
        // unpark that skips the notify.
        while !p.state.lock().parked {
            thread::yield_now();
        }
        p.unpark();
        let (woken, waited) = waiter.join().expect("waiter thread");
        assert!(woken, "the parked worker did not get the token");
        assert!(
            waited < Duration::from_secs(60),
            "the parked worker sat out its timeout: the notify was skipped"
        );
        assert!(!p.state.lock().parked);
    }
}
