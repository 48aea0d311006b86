//! The simulated backend: pure delegation onto [`CpuPackage`].
//!
//! This is the pre-HAL wiring behind the trait seam — every call is a
//! one-line forward, so the simulated stack stays bit-identical to the
//! direct `Machine → CpuPackage` plumbing it replaces.

use crate::backend::{drive_freq_via_msr, DvfsBackend, MachineBackend, MsrBackend};
use crate::error::HalError;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::CpuPackage;
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;

/// The deterministic simulated substrate: a [`CpuPackage`] behind the
/// backend traits.
#[derive(Debug)]
pub struct SimBackend {
    cpu: CpuPackage,
}

impl SimBackend {
    /// Boots a fresh median-silicon package for `model`, seeded.
    #[must_use]
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self {
            cpu: CpuPackage::new(model, seed),
        }
    }

    /// Boots a specific silicon unit (per-unit margin lottery).
    #[must_use]
    pub fn new_unit(model: CpuModel, seed: u64, unit: u64) -> Self {
        Self {
            cpu: CpuPackage::new_unit(model, seed, unit),
        }
    }

    /// Wraps an already-configured package.
    #[must_use]
    pub fn from_package(cpu: CpuPackage) -> Self {
        Self { cpu }
    }

    /// Unwraps the backend back into its package.
    #[must_use]
    pub fn into_package(self) -> CpuPackage {
        self.cpu
    }
}

impl MsrBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn reads_are_pure(&self) -> bool {
        true
    }

    fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, HalError> {
        self.cpu.rdmsr(now, core, msr).map_err(HalError::Package)
    }

    fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, HalError> {
        self.cpu
            .wrmsr(now, core, msr, value)
            .map_err(HalError::Package)
    }
}

impl DvfsBackend for SimBackend {
    fn core_count(&self) -> usize {
        self.cpu.core_count()
    }

    fn current_freq(&mut self, core: CoreId) -> Result<FreqMhz, HalError> {
        self.cpu.core_freq(core).map_err(HalError::Package)
    }

    fn set_freq(&mut self, now: SimTime, core: CoreId, freq: FreqMhz) -> Result<FreqMhz, HalError> {
        drive_freq_via_msr(self, now, core, freq)
    }
}

impl MachineBackend for SimBackend {
    fn cpu(&self) -> &CpuPackage {
        &self.cpu
    }

    fn cpu_mut(&mut self) -> &mut CpuPackage {
        &mut self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegates_bit_identically() {
        let seed = 0xDAC;
        let model = CpuModel::SkyLake;
        let direct = CpuPackage::new(model, seed);
        let mut hal = SimBackend::new(model, seed);
        let t = SimTime::ZERO;

        let a = direct.rdmsr(t, CoreId(0), Msr::IA32_PERF_STATUS);
        let b = MsrBackend::rdmsr(&mut hal, t, CoreId(0), Msr::IA32_PERF_STATUS);
        assert_eq!(a.ok(), b.ok());
        assert_eq!(direct.core_count(), hal.core_count());
    }

    #[test]
    fn set_freq_quantizes_like_the_table() {
        let mut hal = SimBackend::new(CpuModel::SkyLake, 7);
        let want = hal.cpu().spec().freq_table.quantize(FreqMhz(2650));
        let got = hal
            .set_freq(SimTime::ZERO, CoreId(0), FreqMhz(2650))
            .expect("sim set_freq");
        assert_eq!(got, want);
    }
}
