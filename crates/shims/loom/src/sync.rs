//! Instrumented drop-in replacements for the `std::sync` / `parking_lot`
//! primitives.
//!
//! Each type is *dual-mode*: on a thread controlled by an active model
//! check (see [`crate::model`]) every operation is announced to the
//! scheduling engine and becomes an explorable interleaving point; on any
//! other thread it degrades to the plain underlying primitive, so code
//! compiled against these types still behaves normally outside `model()`.
//!
//! Poisoning is swallowed (like `parking_lot`): a panicking execution is
//! already a reported model-check failure.

use crate::engine::{ctx, Ctx, ObjId, ObjKind, Op};
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

pub use std::sync::Arc;

/// Instrumented atomics, mirroring `std::sync::atomic`.
pub mod atomic {
    use super::*;

    pub use std::sync::atomic::Ordering;

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
            $(#[$doc])*
            ///
            /// Under an active model check every access is a scheduling
            /// point executed with `SeqCst` semantics; the requested
            /// ordering is honored verbatim on uncontrolled threads.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                fn point(&self, name: &'static str) -> Option<Ctx> {
                    let c = ctx()?;
                    let obj = c
                        .engine
                        .obj_id(self as *const Self as usize, ObjKind::Atomic);
                    c.engine.announce(c.tid, Op::Atomic { obj, name });
                    Some(c)
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $prim {
                    match self.point("load") {
                        Some(c) => {
                            let v = self.inner.load(Ordering::SeqCst);
                            c.engine.note_value(&v);
                            v
                        }
                        None => self.inner.load(order),
                    }
                }

                /// Atomic store.
                pub fn store(&self, v: $prim, order: Ordering) {
                    match self.point("store") {
                        Some(c) => {
                            self.inner.store(v, Ordering::SeqCst);
                            c.engine.note_value(&v);
                        }
                        None => self.inner.store(v, order),
                    }
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("swap") {
                        Some(c) => {
                            let prev = self.inner.swap(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.swap(v, order),
                    }
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_add") {
                        Some(c) => {
                            let prev = self.inner.fetch_add(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_add(v, order),
                    }
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_sub") {
                        Some(c) => {
                            let prev = self.inner.fetch_sub(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_sub(v, order),
                    }
                }

                /// Atomic maximum, returning the previous value.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_max") {
                        Some(c) => {
                            let prev = self.inner.fetch_max(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_max(v, order),
                    }
                }

                /// Atomic minimum, returning the previous value.
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_min") {
                        Some(c) => {
                            let prev = self.inner.fetch_min(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_min(v, order),
                    }
                }

                /// Atomic bitwise or, returning the previous value.
                pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_or") {
                        Some(c) => {
                            let prev = self.inner.fetch_or(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_or(v, order),
                    }
                }

                /// Atomic bitwise and, returning the previous value.
                pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                    match self.point("fetch_and") {
                        Some(c) => {
                            let prev = self.inner.fetch_and(v, Ordering::SeqCst);
                            c.engine.note_value(&prev);
                            prev
                        }
                        None => self.inner.fetch_and(v, order),
                    }
                }

                /// Atomic compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match self.point("compare_exchange") {
                        Some(c) => {
                            let r = self.inner.compare_exchange(
                                current,
                                new,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                            match &r {
                                Ok(v) | Err(v) => c.engine.note_value(v),
                            }
                            r
                        }
                        None => self.inner.compare_exchange(current, new, success, failure),
                    }
                }

                /// Consumes the atomic, returning the contained value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                /// Mutable access (no scheduling point: `&mut` is exclusive).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }
            }
        };
    }

    int_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize
    );
    int_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );
    int_atomic!(
        /// Instrumented `AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32
    );
    int_atomic!(
        /// Instrumented `AtomicI64`.
        AtomicI64,
        AtomicI64,
        i64
    );

    /// Instrumented `AtomicBool`.
    ///
    /// Under an active model check every access is a scheduling point
    /// executed with `SeqCst` semantics.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        fn point(&self, name: &'static str) -> Option<Ctx> {
            let c = ctx()?;
            let obj = c
                .engine
                .obj_id(self as *const Self as usize, ObjKind::Atomic);
            c.engine.announce(c.tid, Op::Atomic { obj, name });
            Some(c)
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> bool {
            match self.point("load") {
                Some(c) => {
                    let v = self.inner.load(Ordering::SeqCst);
                    c.engine.note_value(&v);
                    v
                }
                None => self.inner.load(order),
            }
        }

        /// Atomic store.
        pub fn store(&self, v: bool, order: Ordering) {
            match self.point("store") {
                Some(c) => {
                    self.inner.store(v, Ordering::SeqCst);
                    c.engine.note_value(&v);
                }
                None => self.inner.store(v, order),
            }
        }

        /// Atomic swap, returning the previous value.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            match self.point("swap") {
                Some(c) => {
                    let prev = self.inner.swap(v, Ordering::SeqCst);
                    c.engine.note_value(&prev);
                    prev
                }
                None => self.inner.swap(v, order),
            }
        }

        /// Atomic compare-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            match self.point("compare_exchange") {
                Some(c) => {
                    let r = self.inner.compare_exchange(
                        current,
                        new,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    match &r {
                        Ok(v) | Err(v) => c.engine.note_value(v),
                    }
                    r
                }
                None => self.inner.compare_exchange(current, new, success, failure),
            }
        }

        /// Consumes the atomic, returning the contained value.
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }

        /// Mutable access (no scheduling point: `&mut` is exclusive).
        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }
    }
}

/// Instrumented mutex with the `parking_lot` API (infallible `lock`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

fn real_lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn granted_lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            unreachable!("model granted a mutex that is really held")
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquires the mutex, blocking the calling thread until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match ctx() {
            None => MutexGuard {
                src: self,
                inner: Some(real_lock(&self.inner)),
                ctl: None,
            },
            Some(c) => {
                let obj = c.engine.obj_id(self.addr(), ObjKind::Mutex);
                c.engine.announce(c.tid, Op::MutexLock { obj });
                MutexGuard {
                    src: self,
                    inner: Some(granted_lock(&self.inner)),
                    ctl: Some((c, obj)),
                }
            }
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match ctx() {
            None => match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    src: self,
                    inner: Some(g),
                    ctl: None,
                }),
                Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                    src: self,
                    inner: Some(p.into_inner()),
                    ctl: None,
                }),
                Err(TryLockError::WouldBlock) => None,
            },
            Some(c) => {
                let obj = c.engine.obj_id(self.addr(), ObjKind::Mutex);
                // An always-enabled point: failure is a legal outcome.
                c.engine.announce(
                    c.tid,
                    Op::Atomic {
                        obj,
                        name: "try_lock",
                    },
                );
                if c.engine.try_acquire_mutex(obj, c.tid) {
                    Some(MutexGuard {
                        src: self,
                        inner: Some(granted_lock(&self.inner)),
                        ctl: Some((c, obj)),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Mutable access (no scheduling point: `&mut` is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    src: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctl: Option<(Ctx, ObjId)>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some((c, obj)) = self.ctl.take() {
            c.engine.mutex_release(obj);
        }
    }
}

/// Instrumented condition variable with the `parking_lot` API
/// (`wait(&mut guard)`).
///
/// Under model checking wakeups are never spurious and `notify_one` wakes
/// the lowest-tid waiter, keeping replays deterministic; correct code must
/// tolerate both policies anyway.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Result of a timed [`Condvar`] wait.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Blocks until notified, atomically releasing the guarded mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match guard.ctl.clone() {
            None => {
                let g = guard.inner.take().expect("guard present");
                let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(g);
            }
            Some((c, mobj)) => {
                let cv = c.engine.obj_id(self.addr(), ObjKind::Condvar);
                guard.inner.take();
                c.engine.mutex_release(mobj);
                c.engine.announce(
                    c.tid,
                    Op::CondBlocked {
                        cv,
                        mutex: mobj,
                        timeout: false,
                    },
                );
                // The grant reacquired the model mutex on our behalf.
                guard.inner = Some(granted_lock(&guard.src.inner));
            }
        }
    }

    /// Blocks until notified or `dur` elapsed. Under model checking the
    /// timeout is modeled as "may fire at any scheduling point".
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Duration) -> WaitTimeoutResult {
        match guard.ctl.clone() {
            None => {
                let g = guard.inner.take().expect("guard present");
                let (g, r) = self
                    .inner
                    .wait_timeout(g, dur)
                    .unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(g);
                WaitTimeoutResult {
                    timed_out: r.timed_out(),
                }
            }
            Some((c, mobj)) => {
                let cv = c.engine.obj_id(self.addr(), ObjKind::Condvar);
                guard.inner.take();
                c.engine.mutex_release(mobj);
                let info = c.engine.announce(
                    c.tid,
                    Op::CondBlocked {
                        cv,
                        mutex: mobj,
                        timeout: true,
                    },
                );
                guard.inner = Some(granted_lock(&guard.src.inner));
                WaitTimeoutResult {
                    timed_out: info.timed_out,
                }
            }
        }
    }

    /// Wakes one waiter (the lowest-tid one under model checking).
    pub fn notify_one(&self) {
        match ctx() {
            None => {
                self.inner.notify_one();
            }
            Some(c) => {
                let cv = c.engine.obj_id(self.addr(), ObjKind::Condvar);
                c.engine.announce(c.tid, Op::CondNotify { cv, all: false });
            }
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        match ctx() {
            None => {
                self.inner.notify_all();
            }
            Some(c) => {
                let cv = c.engine.obj_id(self.addr(), ObjKind::Condvar);
                c.engine.announce(c.tid, Op::CondNotify { cv, all: true });
            }
        }
    }
}

/// Instrumented reader–writer lock with the `parking_lot` API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new rwlock.
    pub const fn new(t: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(t),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match ctx() {
            None => RwLockReadGuard {
                inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
                ctl: None,
            },
            Some(c) => {
                let obj = c.engine.obj_id(self.addr(), ObjKind::RwLock);
                c.engine.announce(c.tid, Op::RwRead { obj });
                let g = match self.inner.try_read() {
                    Ok(g) => g,
                    Err(TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("model granted a write-held rwlock for reading")
                    }
                };
                RwLockReadGuard {
                    inner: Some(g),
                    ctl: Some((c, obj)),
                }
            }
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match ctx() {
            None => RwLockWriteGuard {
                inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
                ctl: None,
            },
            Some(c) => {
                let obj = c.engine.obj_id(self.addr(), ObjKind::RwLock);
                c.engine.announce(c.tid, Op::RwWrite { obj });
                let g = match self.inner.try_write() {
                    Ok(g) => g,
                    Err(TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("model granted a held rwlock for writing")
                    }
                };
                RwLockWriteGuard {
                    inner: Some(g),
                    ctl: Some((c, obj)),
                }
            }
        }
    }

    /// Mutable access (no scheduling point: `&mut` is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    ctl: Option<(Ctx, ObjId)>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some((c, obj)) = self.ctl.take() {
            c.engine.rw_release_read(obj, c.tid);
        }
    }
}

/// RAII exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    ctl: Option<(Ctx, ObjId)>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some((c, obj)) = self.ctl.take() {
            c.engine.rw_release_write(obj);
        }
    }
}
