//! The generic tile interface — the paper's Section 8 future work.
//!
//! "Furthermore, we want to define a generic tile interface so the router
//! can be embedded in a multi-tile SoC. This interface will support several
//! types of communication that can be used by the application designers."
//!
//! This module implements that interface over the existing phit header
//! (no new wires, no new router logic — the 4-bit header of Fig. 6 already
//! carries the needed framing):
//!
//! * **streams** — unframed word-at-a-time transfers, the UMTS case
//!   ("a very small packet, containing 1 sample");
//! * **blocks** — SOB/EOB-framed word groups, the OFDM-symbol case, with
//!   integrity checking (a block arriving without its boundary marks is
//!   reported, not silently merged);
//! * **control words** — CTRL-flagged out-of-band words (synchronisation,
//!   parameter updates) interleaved with data on the same lane.
//!
//! [`MessageTx`]/[`MessageRx`] are tile-side adapters over a
//! [`CircuitRouter`]'s tile port; they contain no router state and add no
//! router energy — framing costs nothing because the header travels anyway.

use crate::phit::Phit;
use crate::router::CircuitRouter;
use std::collections::VecDeque;

/// A message as the application sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// One unframed data word (streaming communication).
    Stream(u16),
    /// A framed block of words (block communication, e.g. an OFDM symbol).
    Block(Vec<u16>),
    /// An out-of-band control word.
    Control(u16),
}

impl Message {
    /// Payload words this message occupies on the lane.
    pub fn word_count(&self) -> usize {
        match self {
            Message::Stream(_) | Message::Control(_) => 1,
            Message::Block(words) => words.len(),
        }
    }
}

/// Transmit adapter: queues messages and pumps them into a tile lane as
/// the router's serialiser and flow-control window allow.
#[derive(Debug, Clone)]
pub struct MessageTx {
    lane: usize,
    queue: VecDeque<Phit>,
    /// Word counts of queued messages, for the sent counter.
    message_lengths: VecDeque<usize>,
    /// Words left in the message currently draining.
    remaining_in_message: usize,
    /// Messages fully handed to the router.
    pub messages_sent: u64,
}

impl MessageTx {
    /// An adapter bound to tile lane `lane`.
    pub fn new(lane: usize) -> MessageTx {
        MessageTx {
            lane,
            queue: VecDeque::new(),
            message_lengths: VecDeque::new(),
            remaining_in_message: 0,
            messages_sent: 0,
        }
    }

    /// Queue a message for transmission.
    ///
    /// # Panics
    /// Panics on an empty block — a block with no words has no boundaries
    /// to mark and is a caller bug.
    pub fn enqueue(&mut self, msg: &Message) {
        match msg {
            Message::Stream(w) => self.queue.push_back(Phit::data(*w)),
            Message::Control(w) => self.queue.push_back(Phit::control(*w)),
            Message::Block(words) => {
                assert!(!words.is_empty(), "blocks need at least one word");
                let last = words.len() - 1;
                for (i, &w) in words.iter().enumerate() {
                    self.queue.push_back(Phit::block(w, i == 0, i == last));
                }
            }
        }
        self.message_lengths.push_back(msg.word_count());
    }

    /// Offer queued phits to the router; call once per cycle before
    /// stepping. Returns the number of phits accepted this cycle (0 or 1 —
    /// the tile interface is 16 bits wide).
    pub fn pump(&mut self, router: &mut CircuitRouter) -> usize {
        let Some(&phit) = self.queue.front() else {
            return 0;
        };
        if !router.tile_can_send(self.lane) {
            return 0;
        }
        let ok = router.tile_send(self.lane, phit);
        debug_assert!(ok, "tile_can_send implies acceptance");
        self.queue.pop_front();
        if self.remaining_in_message == 0 {
            self.remaining_in_message = self
                .message_lengths
                .pop_front()
                .expect("every queued phit belongs to a message");
        }
        self.remaining_in_message -= 1;
        if self.remaining_in_message == 0 {
            self.messages_sent += 1;
        }
        1
    }

    /// Phits still queued.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// `true` when everything enqueued has been handed to the router.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Errors the receive adapter can detect in a framed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingError {
    /// A start-of-block arrived while a block was already open.
    NestedBlock,
    /// An end-of-block arrived with no block open.
    UnmatchedEnd,
}

/// Receive adapter: drains a tile lane and reassembles messages.
#[derive(Debug, Clone, Default)]
pub struct MessageRx {
    lane: usize,
    open_block: Option<Vec<u16>>,
    completed: VecDeque<Message>,
    /// Framing violations observed (0 on a healthy circuit).
    pub framing_errors: u64,
    /// The most recent framing violation, for diagnostics.
    pub last_error: Option<FramingError>,
}

impl MessageRx {
    /// An adapter bound to tile lane `lane`.
    pub fn new(lane: usize) -> MessageRx {
        MessageRx {
            lane,
            ..Default::default()
        }
    }

    /// Drain everything the router has received on this lane; call once
    /// per cycle after stepping.
    pub fn pump(&mut self, router: &mut CircuitRouter) {
        while let Some(phit) = router.tile_recv(self.lane) {
            self.absorb(phit);
        }
    }

    fn absorb(&mut self, phit: Phit) {
        let h = phit.header;
        if h.is_control() {
            // Control words are out-of-band: deliverable even mid-block.
            self.completed.push_back(Message::Control(phit.data));
            return;
        }
        match (
            &mut self.open_block,
            h.is_start_of_block(),
            h.is_end_of_block(),
        ) {
            (None, true, false) => self.open_block = Some(vec![phit.data]),
            (None, true, true) => self.completed.push_back(Message::Block(vec![phit.data])),
            (None, false, true) => {
                self.framing_errors += 1;
                self.record_error(FramingError::UnmatchedEnd);
                self.completed.push_back(Message::Stream(phit.data));
            }
            (None, false, false) => self.completed.push_back(Message::Stream(phit.data)),
            (Some(block), false, false) => block.push(phit.data),
            (Some(block), false, true) => {
                block.push(phit.data);
                let block = self.open_block.take().expect("just matched Some");
                self.completed.push_back(Message::Block(block));
            }
            (Some(_), true, _) => {
                // A new block opened inside an open block: close the old
                // one as damaged, start fresh.
                self.framing_errors += 1;
                self.record_error(FramingError::NestedBlock);
                let dropped = self.open_block.take().expect("just matched Some");
                self.completed.push_back(Message::Block(dropped));
                if h.is_end_of_block() {
                    self.completed.push_back(Message::Block(vec![phit.data]));
                } else {
                    self.open_block = Some(vec![phit.data]);
                }
            }
        }
    }

    fn record_error(&mut self, e: FramingError) {
        self.last_error = Some(e);
    }

    /// Pop the next fully received message.
    pub fn recv(&mut self) -> Option<Message> {
        self.completed.pop_front()
    }

    /// Messages waiting to be popped.
    pub fn pending(&self) -> usize {
        self.completed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Port;
    use crate::params::RouterParams;
    use noc_sim::kernel::step;

    /// A loopback rig: tile lane 0 -> East, fed back externally into
    /// North -> tile lane 0, with the bench returning acks for East.
    struct Loopback {
        router: CircuitRouter,
        wire: std::collections::VecDeque<noc_sim::bits::Nibble>,
        acked: u32,
    }

    impl Loopback {
        fn new() -> Loopback {
            let mut router = CircuitRouter::new(RouterParams::paper());
            router.connect(Port::Tile, 0, Port::East, 0).unwrap();
            router.connect(Port::North, 0, Port::Tile, 0).unwrap();
            Loopback {
                router,
                wire: [noc_sim::bits::Nibble::ZERO; 2].into(),
                acked: 0,
            }
        }

        fn cycle(&mut self, tx: &mut MessageTx, rx: &mut MessageRx) {
            tx.pump(&mut self.router);
            // External loop: East output re-enters at North after a delay.
            let out = self.router.link_output(Port::East, 0);
            self.wire.push_back(out);
            let inject = self.wire.pop_front().unwrap();
            self.router.set_link_input(Port::North, 0, inject);
            // Bench acks East once per 4 delivered nibble-phits... use the
            // router's own received count via rx pump after step.
            step(&mut self.router);
            rx.pump(&mut self.router);
            // Window refill: ack East per consumed phit batch of 4.
            let consumed = rx.pending() as u32 + self.acked;
            let _ = consumed;
            // Simpler: ack every 20 cycles (one phit per 5 cycles => X=4).
        }
    }

    /// Run a message set through the loopback until received or budget out.
    fn roundtrip(messages: &[Message]) -> (Vec<Message>, u64) {
        let mut rig = Loopback::new();
        let mut tx = MessageTx::new(0);
        let mut rx = MessageRx::new(0);
        for m in messages {
            tx.enqueue(m);
        }
        let total_words: usize = messages.iter().map(|m| m.word_count()).sum();
        let mut received = Vec::new();
        let mut ack_timer = 0;
        for _ in 0..total_words * 40 + 200 {
            rig.cycle(&mut tx, &mut rx);
            // Return acks to keep the window open: pulse every 20 cycles.
            ack_timer += 1;
            if ack_timer == 20 {
                ack_timer = 0;
                rig.router.set_ack_input(Port::East, 0, true);
            } else {
                rig.router.set_ack_input(Port::East, 0, false);
            }
            while let Some(m) = rx.recv() {
                received.push(m);
            }
            if received.len() >= expected_count(messages) {
                break;
            }
        }
        (received, rx.framing_errors)
    }

    fn expected_count(messages: &[Message]) -> usize {
        messages.len()
    }

    #[test]
    fn stream_words_pass_one_by_one() {
        let msgs = vec![Message::Stream(1), Message::Stream(2), Message::Stream(3)];
        let (got, errs) = roundtrip(&msgs);
        assert_eq!(got, msgs);
        assert_eq!(errs, 0);
    }

    #[test]
    fn block_framing_roundtrip() {
        let msgs = vec![Message::Block(vec![10, 20, 30, 40])];
        let (got, errs) = roundtrip(&msgs);
        assert_eq!(got, msgs);
        assert_eq!(errs, 0);
    }

    #[test]
    fn ofdm_symbol_sized_block() {
        // A HiperLAN/2 OFDM symbol: 160 words (80 complex 32-bit samples).
        let words: Vec<u16> = (0..160).collect();
        let msgs = vec![Message::Block(words)];
        let (got, errs) = roundtrip(&msgs);
        assert_eq!(got, msgs);
        assert_eq!(errs, 0);
    }

    #[test]
    fn control_words_interleave_with_data() {
        let msgs = vec![
            Message::Stream(0xAAAA),
            Message::Control(0x000F),
            Message::Block(vec![1, 2]),
            Message::Control(0x00F0),
        ];
        let (got, errs) = roundtrip(&msgs);
        assert_eq!(got, msgs);
        assert_eq!(errs, 0);
    }

    #[test]
    fn mixed_traffic_preserves_order_per_kind() {
        let msgs = vec![
            Message::Block(vec![5, 6, 7]),
            Message::Stream(9),
            Message::Block(vec![8]),
        ];
        let (got, errs) = roundtrip(&msgs);
        assert_eq!(got, msgs);
        assert_eq!(errs, 0);
    }

    #[test]
    fn single_word_block_uses_both_marks() {
        let mut tx = MessageTx::new(0);
        tx.enqueue(&Message::Block(vec![42]));
        // Inspect the queued phit directly.
        let phit = tx.queue.front().copied().unwrap();
        assert!(phit.header.is_start_of_block());
        assert!(phit.header.is_end_of_block());
    }

    #[test]
    fn unmatched_end_detected() {
        let mut rx = MessageRx::new(0);
        rx.absorb(Phit::block(7, false, true));
        assert_eq!(rx.framing_errors, 1);
        // The word is still delivered (as a stream) rather than lost.
        assert_eq!(rx.recv(), Some(Message::Stream(7)));
    }

    #[test]
    fn nested_block_detected_and_salvaged() {
        let mut rx = MessageRx::new(0);
        rx.absorb(Phit::block(1, true, false));
        rx.absorb(Phit::block(2, false, false));
        rx.absorb(Phit::block(3, true, false)); // nested start
        rx.absorb(Phit::block(4, false, true));
        assert_eq!(rx.framing_errors, 1);
        assert_eq!(rx.recv(), Some(Message::Block(vec![1, 2])));
        assert_eq!(rx.recv(), Some(Message::Block(vec![3, 4])));
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_block_rejected() {
        let mut tx = MessageTx::new(0);
        tx.enqueue(&Message::Block(vec![]));
    }
}
