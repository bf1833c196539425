//! Technology constants for a 0.13 µm-class standard-cell process.
//!
//! Values marked `CALIBRATED` are fitted once against the paper's published
//! synthesis results (Table 4) and frozen; the remainder are standard
//! textbook figures for a 130 nm low-voltage process. All constants live
//! here, in one struct, so no model file hides a magic number.

use noc_sim::units::{MegaHertz, Picoseconds};

/// Process/library parameters used by the area, timing and power models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Supply voltage \[V\]. TCB013LVHP is a 1.2 V low-voltage library.
    pub vdd: f64,

    /// Layout area of one NAND2-equivalent gate \[µm²\], including its share
    /// of row overhead. Typical 0.13 µm high-density libraries place
    /// 190–200 kGates/mm²; 5.1 µm²/gate ≈ 196 kGates/mm².
    pub gate_area_um2: f64,

    /// Leakage power density [µW per mm²] at nominal VT and room
    /// temperature. Sets the small static bars of Fig. 9; chosen so the
    /// static share stays single-digit percent as in the paper. CALIBRATED.
    pub leakage_uw_per_mm2: f64,

    /// Clocking overhead per register stage \[ps\]: clk→Q plus setup plus
    /// skew margin. CALIBRATED together with `logic_level_ps` so the two
    /// published frequencies (1075 MHz / 507 MHz) are reproduced by the
    /// structural logic depths of `timing`.
    pub clock_overhead_ps: f64,

    /// Delay of one logic level \[ps\] (≈ 2 FO4 at 0.13 µm). CALIBRATED, see
    /// `clock_overhead_ps`.
    pub logic_level_ps: f64,
}

impl Technology {
    /// The 0.13 µm TSMC low-voltage nominal-VT point of the paper.
    ///
    /// `clock_overhead_ps` and `logic_level_ps` solve the two-equation
    /// system of `timing::{circuit,packet}_router_fmax` for the published
    /// 1075 MHz (circuit, depth 5) and 507 MHz (packet, depth 17):
    /// `T = overhead + depth × level` gives `level = 86.8 ps` (≈ 1.9 FO4,
    /// plausible) and `overhead = 496 ps` (clk→Q + setup + margin).
    pub fn tsmc_0_13um() -> Technology {
        Technology {
            vdd: 1.2,
            gate_area_um2: 5.1,
            leakage_uw_per_mm2: 150.0,
            clock_overhead_ps: 496.2,
            logic_level_ps: 86.8,
        }
    }

    /// Cycle period achievable with `depth` logic levels between registers.
    pub fn period_for_depth(&self, depth: u32) -> Picoseconds {
        Picoseconds(self.clock_overhead_ps + f64::from(depth) * self.logic_level_ps)
    }

    /// Maximum clock frequency with `depth` logic levels between registers.
    pub fn fmax_for_depth(&self, depth: u32) -> MegaHertz {
        MegaHertz::from_period(self.period_for_depth(depth))
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::tsmc_0_13um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_density_is_plausible() {
        let t = Technology::tsmc_0_13um();
        let kgates_per_mm2 = 1e6 / t.gate_area_um2 / 1e3;
        assert!(
            (150.0..250.0).contains(&kgates_per_mm2),
            "0.13um density should be 150-250 kGates/mm2, got {kgates_per_mm2}"
        );
    }

    #[test]
    fn fmax_monotonically_decreasing_in_depth() {
        let t = Technology::tsmc_0_13um();
        let f5 = t.fmax_for_depth(5);
        let f17 = t.fmax_for_depth(17);
        assert!(f5.value() > f17.value());
    }

    #[test]
    fn logic_level_is_about_two_fo4() {
        // FO4 at 0.13um is ~45 ps; one 'level' of our model is a gate plus
        // wire, so ~1.5-2.5 FO4 is the sane window.
        let t = Technology::tsmc_0_13um();
        let fo4 = 45.0;
        let ratio = t.logic_level_ps / fo4;
        assert!((1.0..3.0).contains(&ratio), "level = {ratio} FO4");
    }

    #[test]
    fn period_formula() {
        let t = Technology::tsmc_0_13um();
        let p = t.period_for_depth(5);
        assert!((p.value() - (496.2 + 5.0 * 86.8)).abs() < 1e-9);
    }
}
