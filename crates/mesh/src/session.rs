//! Stream-session bookkeeping, written once for every backend.
//!
//! A session is the paper's per-connection unit: set up for one stream,
//! carrying it, torn down. Every [`crate::fabric::Fabric`] backend hands
//! out [`StreamId`] handles and needs the same bookkeeping around its own
//! transport state, so it lives here:
//!
//! * [`Handles`] numbers the handles and maps each one to its slot. The
//!   composite fabrics keep nothing more: a [`crate::hybrid::HybridFabric`]
//!   handle, or an intra-chiplet stream of a
//!   [`crate::chiplet::ChipletFabric`], is routed to the plane that
//!   serves it, and that plane's own table owns the lifecycle. The
//!   composite asks the plane ([`crate::fabric::Fabric::stream_is_active`],
//!   a forwarded `release`) instead of mirroring its state.
//! * [`SessionTable`] adds the lifecycle to the handles: the
//!   [`SessionState`] machine Open → Draining → Closed, the polled drain
//!   list, the release preconditions, the `inject_stream`/`drain_stream`
//!   guards, and a [`WordLedger`] per session for the words the backend
//!   delivers itself.

use crate::stream::{AdmitError, StreamId, StreamPlane, StreamStats};
use crate::topology::NodeId;
use noc_sim::stats::LatencyHistogram;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// Id numbering and the id→slot map.
///
/// Slots are stored in registration order, which is also handle order:
/// provisioning registers the mapping's ids ascending and runtime
/// admission continues the numbering.
#[derive(Debug, Clone)]
pub(crate) struct Handles<T> {
    slots: Vec<T>,
    by_id: BTreeMap<u32, usize>,
    next_id: u32,
}

impl<T> Handles<T> {
    pub(crate) fn new() -> Handles<T> {
        Handles {
            slots: Vec::new(),
            by_id: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Forget every handle (a re-provision); runtime admission continues
    /// the numbering at `next_id`.
    pub(crate) fn reset(&mut self, next_id: u32) {
        self.slots.clear();
        self.by_id.clear();
        self.next_id = next_id;
    }

    /// Allocate the next unused handle.
    pub(crate) fn issue(&mut self) -> StreamId {
        let id = StreamId(self.next_id);
        self.next_id += 1;
        id
    }

    /// The handle [`Handles::issue`] would allocate next.
    pub(crate) fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Register `slot` under `id`; returns its index.
    pub(crate) fn insert(&mut self, id: StreamId, slot: T) -> usize {
        let idx = self.slots.len();
        self.by_id.insert(id.0, idx);
        self.slots.push(slot);
        idx
    }

    /// The slot index of `id`.
    pub(crate) fn index_of(&self, id: StreamId) -> Option<usize> {
        self.by_id.get(&id.0).copied()
    }

    pub(crate) fn get(&self, id: StreamId) -> Option<&T> {
        self.index_of(id).map(|idx| &self.slots[idx])
    }

    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut T> {
        self.index_of(id).map(|idx| &mut self.slots[idx])
    }

    /// Every slot in handle order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StreamId, &T)> {
        self.by_id
            .iter()
            .map(|(&id, &idx)| (StreamId(id), &self.slots[idx]))
    }
}

/// Where a [`Session`] is in its lifecycle. Only the [`SessionTable`]
/// moves a session between states, so its drain list stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Accepting words.
    Open,
    /// Released with [`crate::stream::ReleaseMode::Drain`]: no new words,
    /// resources held until every accepted word has been delivered.
    Draining,
    /// Torn down. The handle stays valid for `drain_stream` and
    /// `stream_stats`.
    Closed,
}

/// The words of a session that its backend delivers itself: what was
/// accepted, what landed, and the service latency of each landed word.
#[derive(Debug, Clone)]
pub(crate) struct WordLedger {
    /// Words accepted by `inject_stream`.
    pub(crate) injected: u64,
    /// Words delivered to the destination tile.
    pub(crate) delivered: u64,
    /// Delivered words awaiting `drain_stream`.
    egress: Vec<u16>,
    latency: LatencyHistogram,
}

impl WordLedger {
    fn new() -> WordLedger {
        WordLedger {
            injected: 0,
            delivered: 0,
            egress: Vec::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// One word landed, `latency` cycles after it was injected (`None`
    /// when its timestamp was discarded by a release).
    pub(crate) fn deliver(&mut self, word: u16, latency: Option<u64>) {
        if let Some(cycles) = latency {
            self.latency.record(cycles);
        }
        self.egress.push(word);
        self.delivered += 1;
    }
}

/// One session: its handle, endpoints, lifecycle state and word ledger,
/// plus the backend's own per-session state `x`.
#[derive(Debug, Clone)]
pub(crate) struct Session<X> {
    pub(crate) id: StreamId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    state: SessionState,
    pub(crate) words: WordLedger,
    pub(crate) x: X,
}

impl<X> Session<X> {
    /// `true` until the session is torn down (a drain in progress is
    /// still active).
    pub(crate) fn active(&self) -> bool {
        self.state != SessionState::Closed
    }

    /// The session's telemetry row.
    pub(crate) fn stats(
        &self,
        plane: StreamPlane,
        reconfig_cycles: u64,
        max_deflections: u64,
    ) -> StreamStats {
        StreamStats {
            id: self.id,
            src: self.src,
            dst: self.dst,
            plane,
            active: self.active(),
            injected_words: self.words.injected,
            delivered_words: self.words.delivered,
            reconfig_cycles,
            latency: self.words.latency.clone(),
            max_deflections,
        }
    }
}

/// The sessions of one backend: [`Handles`] over [`Session`]s plus the
/// drain list its `step` polls.
#[derive(Debug, Clone)]
pub(crate) struct SessionTable<X> {
    sessions: Handles<Session<X>>,
    /// Indices of sessions in [`SessionState::Draining`], in release
    /// order.
    draining: Vec<usize>,
}

impl<X> SessionTable<X> {
    pub(crate) fn new() -> SessionTable<X> {
        SessionTable {
            sessions: Handles::new(),
            draining: Vec::new(),
        }
    }

    /// Forget every session (a re-provision); runtime admission continues
    /// the numbering at `next_id`.
    pub(crate) fn reset(&mut self, next_id: u32) {
        self.sessions.reset(next_id);
        self.draining.clear();
    }

    /// Allocate the next unused handle.
    pub(crate) fn issue(&mut self) -> StreamId {
        self.sessions.issue()
    }

    /// The handle [`SessionTable::issue`] would allocate next.
    pub(crate) fn next_id(&self) -> u32 {
        self.sessions.next_id()
    }

    /// Open session `id` from `src` to `dst`; returns its index.
    pub(crate) fn open(&mut self, id: StreamId, src: NodeId, dst: NodeId, x: X) -> usize {
        self.sessions.insert(
            id,
            Session {
                id,
                src,
                dst,
                state: SessionState::Open,
                words: WordLedger::new(),
                x,
            },
        )
    }

    /// The index of session `id`.
    pub(crate) fn index_of(&self, id: StreamId) -> Option<usize> {
        self.sessions.index_of(id)
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.slots.len()
    }

    /// Every session in handle order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Session<X>> {
        self.sessions.slots.iter()
    }

    /// `Some(true)` until session `id` is torn down; `None` for handles
    /// this table never issued.
    pub(crate) fn is_active(&self, id: StreamId) -> Option<bool> {
        self.sessions.get(id).map(Session::active)
    }

    /// The index of session `id` for `inject_stream`.
    ///
    /// # Panics
    /// Panics on a handle this table never issued, a released session or
    /// a draining one.
    pub(crate) fn accepting(&self, id: StreamId) -> usize {
        let idx = self
            .index_of(id)
            .unwrap_or_else(|| panic!("{id} is not served by this fabric"));
        match self.sessions.slots[idx].state {
            SessionState::Open => idx,
            SessionState::Draining => panic!("{id} is draining — admission is stopped"),
            SessionState::Closed => panic!("{id} was released"),
        }
    }

    /// Take the words session `id` delivered since the last call (valid in
    /// every state).
    ///
    /// # Panics
    /// Panics on a handle this table never issued.
    pub(crate) fn take_egress(&mut self, id: StreamId) -> Vec<u16> {
        let idx = self
            .index_of(id)
            .unwrap_or_else(|| panic!("{id} is not served by this fabric"));
        std::mem::take(&mut self.sessions.slots[idx].words.egress)
    }

    /// The release preconditions: the index of session `id` when it is
    /// open, [`AdmitError::Draining`] mid-drain, and
    /// [`AdmitError::UnknownStream`] for closed or never-issued handles.
    pub(crate) fn releasable(&self, id: StreamId) -> Result<usize, AdmitError> {
        let idx = self.index_of(id).ok_or(AdmitError::UnknownStream(id))?;
        match self.sessions.slots[idx].state {
            SessionState::Open => Ok(idx),
            SessionState::Draining => Err(AdmitError::Draining(id)),
            SessionState::Closed => Err(AdmitError::UnknownStream(id)),
        }
    }

    /// Tear session `idx` down.
    pub(crate) fn close(&mut self, idx: usize) {
        self.sessions.slots[idx].state = SessionState::Closed;
    }

    /// Start draining session `idx`; [`SessionTable::poll_drains`] closes
    /// it once its words are out.
    pub(crate) fn start_drain(&mut self, idx: usize) {
        self.sessions.slots[idx].state = SessionState::Draining;
        self.draining.push(idx);
    }

    /// Sessions still draining.
    pub(crate) fn pending_drains(&self) -> usize {
        self.draining.len()
    }

    /// Close every draining session for which `done` holds, in release
    /// order, and return their indices in that order. `done` may update
    /// the session it inspects.
    pub(crate) fn poll_drains(
        &mut self,
        mut done: impl FnMut(&mut Session<X>) -> bool,
    ) -> Vec<usize> {
        let mut closed = Vec::new();
        if self.draining.is_empty() {
            return closed;
        }
        let sessions = &mut self.sessions.slots;
        self.draining.retain(|&idx| {
            let s = &mut sessions[idx];
            if done(s) {
                s.state = SessionState::Closed;
                closed.push(idx);
                false
            } else {
                true
            }
        });
        closed
    }
}

impl<X> Index<usize> for SessionTable<X> {
    type Output = Session<X>;

    fn index(&self, idx: usize) -> &Session<X> {
        &self.sessions.slots[idx]
    }
}

impl<X> IndexMut<usize> for SessionTable<X> {
    fn index_mut(&mut self, idx: usize) -> &mut Session<X> {
        &mut self.sessions.slots[idx]
    }
}

/// A plane's lifecycle error under the composite fabric's own handle:
/// planes number their sessions locally, callers know the global id.
pub(crate) fn on_handle(err: AdmitError, id: StreamId) -> AdmitError {
    match err {
        AdmitError::UnknownStream(_) => AdmitError::UnknownStream(id),
        AdmitError::Draining(_) => AdmitError::Draining(id),
        other => other,
    }
}
