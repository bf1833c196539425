//! Virtual-channel state: input-side wormhole tracking and output-side
//! credit counters.
//!
//! Each input port owns `vcs` independent FIFOs; a wormhole occupies one
//! input VC per hop from head to tail. The output side tracks, per
//! `(output port, VC)`, whether the VC is allocated to a wormhole and how
//! many credits (free downstream buffer slots) remain.

use crate::fifo::FlitFifo;
use crate::params::PacketPort;

/// Identifier of a virtual channel within a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId(pub u8);

impl VcId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// State of one input virtual channel.
#[derive(Debug, Clone)]
pub struct InputVc {
    /// The input buffer.
    pub fifo: FlitFifo,
    /// Output port of the wormhole currently occupying this VC.
    pub route: Option<PacketPort>,
    /// Output VC allocated on `route`.
    pub out_vc: Option<VcId>,
}

impl InputVc {
    /// An idle input VC with a buffer of `depth` flits.
    pub fn new(depth: usize) -> InputVc {
        InputVc {
            fifo: FlitFifo::new(depth),
            route: None,
            out_vc: None,
        }
    }

    /// `true` when no wormhole occupies this VC and its buffer is empty.
    pub fn is_idle(&self) -> bool {
        self.route.is_none() && self.fifo.is_empty()
    }

    /// Release the wormhole (tail flit has departed).
    pub fn release(&mut self) {
        self.route = None;
        self.out_vc = None;
    }

    /// Architectural state bits besides the FIFO storage: 3-bit route,
    /// 2-bit out VC, 2 valid bits.
    pub const STATE_BITS: u32 = 3 + 2 + 2;
}

/// State of one output virtual channel.
#[derive(Debug, Clone, Copy)]
pub struct OutputVc {
    /// Allocated to an upstream wormhole.
    pub busy: bool,
    /// Downstream buffer credits remaining.
    pub credits: u8,
    /// Credit capacity (the downstream FIFO depth).
    pub max_credits: u8,
}

impl OutputVc {
    /// A free output VC with a full credit allowance of `depth`.
    pub fn new(depth: usize) -> OutputVc {
        OutputVc {
            busy: false,
            credits: depth as u8,
            max_credits: depth as u8,
        }
    }

    /// Spend one credit (a flit was forwarded downstream).
    pub fn consume_credit(&mut self) {
        debug_assert!(self.credits > 0, "sent without credit");
        self.credits -= 1;
    }

    /// A credit returned from downstream.
    pub fn return_credit(&mut self) {
        debug_assert!(
            self.credits < self.max_credits,
            "credit overflow: downstream returned more than it holds"
        );
        self.credits = (self.credits + 1).min(self.max_credits);
    }

    /// Architectural state bits: busy + credit counter.
    pub const STATE_BITS: u32 = 1 + 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_vc_lifecycle() {
        let mut vc = InputVc::new(4);
        assert!(vc.is_idle());
        vc.route = Some(PacketPort::East);
        vc.out_vc = Some(VcId(2));
        assert!(!vc.is_idle());
        vc.release();
        assert!(vc.is_idle());
    }

    #[test]
    fn output_vc_credits() {
        let mut vc = OutputVc::new(4);
        assert_eq!(vc.credits, 4);
        vc.consume_credit();
        vc.consume_credit();
        assert_eq!(vc.credits, 2);
        vc.return_credit();
        assert_eq!(vc.credits, 3);
    }

    #[test]
    fn credits_capped_at_depth() {
        let mut vc = OutputVc::new(2);
        vc.consume_credit();
        vc.return_credit();
        assert_eq!(vc.credits, 2);
    }

    #[test]
    fn vc_id_index() {
        assert_eq!(VcId(3).index(), 3);
    }
}
