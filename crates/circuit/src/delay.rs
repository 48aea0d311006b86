//! Voltage-dependent gate delay models.
//!
//! Undervolting slows CMOS logic: lower supply voltage means smaller
//! voltage swings and slower transistor switching, which stretches the
//! `T_src` and `T_prop` terms of the paper's Eq. 1 while leaving `T_clk`,
//! `T_setup` and `T_ε` untouched. The standard first-order description is
//! the **alpha-power law** (Sakurai–Newton):
//!
//! ```text
//! D(V) = K · V / (V − V_th)^α
//! ```
//!
//! with threshold voltage `V_th` and velocity-saturation index `α`
//! (≈ 1.3–1.5 for modern short-channel processes). As `V → V_th` the delay
//! diverges — the physical root cause of every DVFS fault attack.

use serde::{Deserialize, Serialize};

/// Millivolts, the unit of every supply/threshold voltage in this crate.
pub type Millivolts = f64;

/// Picoseconds, the unit of every delay in this crate.
pub type Picoseconds = f64;

/// Sakurai–Newton alpha-power-law delay model.
///
/// # Examples
///
/// ```
/// use plugvolt_circuit::delay::AlphaPowerModel;
///
/// let m = AlphaPowerModel::new(60.0, 320.0, 1.4);
/// // Undervolting slows the gate down:
/// assert!(m.delay_ps(900.0) > m.delay_ps(1_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaPowerModel {
    k_ps: f64,
    vth_mv: Millivolts,
    alpha: f64,
}

impl AlphaPowerModel {
    /// Creates a model with drive constant `k_ps` (picoseconds · volts^(α−1)),
    /// threshold voltage `vth_mv` and index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `alpha < 1`.
    #[must_use]
    pub fn new(k_ps: f64, vth_mv: Millivolts, alpha: f64) -> Self {
        assert!(k_ps > 0.0, "drive constant must be positive");
        assert!(vth_mv > 0.0, "threshold voltage must be positive");
        assert!(alpha >= 1.0, "alpha below 1 is unphysical");
        AlphaPowerModel {
            k_ps,
            vth_mv,
            alpha,
        }
    }

    /// Calibrates the drive constant so the stage exhibits `delay_ps` at
    /// supply `v_mv`, keeping `vth_mv` and `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `v_mv <= vth_mv` or `delay_ps <= 0`.
    #[must_use]
    pub fn calibrated(
        delay_ps: Picoseconds,
        v_mv: Millivolts,
        vth_mv: Millivolts,
        alpha: f64,
    ) -> Self {
        assert!(v_mv > vth_mv, "calibration point must be above threshold");
        assert!(delay_ps > 0.0, "calibration delay must be positive");
        let shape = (v_mv / 1000.0) / ((v_mv - vth_mv) / 1000.0).powf(alpha);
        AlphaPowerModel::new(delay_ps / shape, vth_mv, alpha)
    }

    /// The threshold voltage.
    #[must_use]
    pub fn vth_mv(&self) -> Millivolts {
        self.vth_mv
    }

    /// The velocity-saturation index.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The drive constant.
    #[must_use]
    pub fn k_ps(&self) -> f64 {
        self.k_ps
    }

    /// Propagation delay of the stage at supply voltage `v_mv`.
    ///
    /// Returns [`f64::INFINITY`] when the stage cannot switch at all
    /// (supply at or below threshold).
    #[must_use]
    pub fn delay_ps(&self, v_mv: Millivolts) -> Picoseconds {
        if v_mv <= self.vth_mv {
            return f64::INFINITY;
        }
        let v = v_mv / 1000.0;
        let overdrive = (v_mv - self.vth_mv) / 1000.0;
        self.k_ps * v / overdrive.powf(self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AlphaPowerModel {
        AlphaPowerModel::new(60.0, 320.0, 1.4)
    }

    #[test]
    fn delay_monotonically_decreases_with_voltage() {
        let m = model();
        let mut prev = f64::INFINITY;
        for v in (400..1300).step_by(25) {
            let d = m.delay_ps(f64::from(v));
            assert!(d < prev, "delay not monotone at {v} mV");
            prev = d;
        }
    }

    #[test]
    fn delay_diverges_at_threshold() {
        let m = model();
        assert!(m.delay_ps(320.0).is_infinite());
        assert!(m.delay_ps(100.0).is_infinite());
        assert!(m.delay_ps(321.0) > m.delay_ps(400.0) * 10.0);
    }

    #[test]
    fn calibration_reproduces_anchor_point() {
        let m = AlphaPowerModel::calibrated(250.0, 1_000.0, 320.0, 1.4);
        assert!((m.delay_ps(1_000.0) - 250.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn alpha_below_one_rejected() {
        let _ = AlphaPowerModel::new(10.0, 300.0, 0.9);
    }
}
