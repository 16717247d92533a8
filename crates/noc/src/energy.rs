//! DSENT-style per-event NoC energy model.
//!
//! DSENT decomposes router+link energy into per-event costs; we use the
//! same decomposition with 32 nm-class coefficients for a 512-bit
//! (64-byte) flit datapath. Absolute joules are indicative; the paper's
//! reported metric — the energy *ratio* between parallelization schemes —
//! depends only on relative event counts, which the flit simulator
//! provides exactly.

use crate::stats::{EventCounts, SimReport};
use serde::{Deserialize, Serialize};

/// Per-event energy coefficients in picojoules.
///
/// # Examples
///
/// ```
/// use lts_noc::traffic::Message;
/// use lts_noc::{EnergyModel, NocConfig, Simulator};
///
/// # fn main() -> Result<(), lts_noc::NocError> {
/// let mut sim = Simulator::new(NocConfig::paper_16core())?;
/// let report = sim.run(&[Message::new(0, 5, 4096, 0)])?;
/// let energy = EnergyModel::default().report(&report, 16);
/// assert!(energy.dynamic_pj() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Writing one flit into an input buffer.
    pub buffer_write_pj: f64,
    /// Reading one flit out of an input buffer.
    pub buffer_read_pj: f64,
    /// One flit through the crossbar.
    pub crossbar_pj: f64,
    /// One arbitration decision (VC or switch).
    pub arbiter_pj: f64,
    /// One flit across one inter-router link (~1 mm at 32 nm).
    pub link_pj: f64,
    /// Static/leakage power per router in milliwatts (charged over the
    /// makespan at the clock below).
    pub router_leakage_mw: f64,
    /// Clock frequency in GHz (converts cycles to time for leakage).
    pub clock_ghz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 64-byte flit, 32 nm-class numbers in the DSENT/ORION range.
        Self {
            buffer_write_pj: 1.6,
            buffer_read_pj: 1.2,
            crossbar_pj: 2.4,
            arbiter_pj: 0.1,
            link_pj: 2.0,
            router_leakage_mw: 1.0,
            clock_ghz: 1.0,
        }
    }
}

/// Energy breakdown of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Dynamic buffer energy (pJ).
    pub buffer_pj: f64,
    /// Dynamic crossbar energy (pJ).
    pub crossbar_pj: f64,
    /// Arbitration energy (pJ).
    pub arbiter_pj: f64,
    /// Link energy (pJ).
    pub link_pj: f64,
    /// Leakage energy over the makespan (pJ).
    pub leakage_pj: f64,
}

impl EnergyReport {
    /// Total NoC energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.buffer_pj + self.crossbar_pj + self.arbiter_pj + self.link_pj + self.leakage_pj
    }

    /// Dynamic (traffic-proportional) energy only.
    pub fn dynamic_pj(&self) -> f64 {
        self.total_pj() - self.leakage_pj
    }
}

impl EnergyModel {
    /// Evaluates the model on raw event counts plus a makespan and router
    /// count (for leakage).
    pub fn evaluate(&self, events: &EventCounts, makespan: u64, routers: usize) -> EnergyReport {
        let seconds = makespan as f64 / (self.clock_ghz * 1e9);
        EnergyReport {
            buffer_pj: events.buffer_writes as f64 * self.buffer_write_pj
                + events.buffer_reads as f64 * self.buffer_read_pj,
            crossbar_pj: events.crossbar_traversals as f64 * self.crossbar_pj,
            arbiter_pj: events.arbitrations as f64 * self.arbiter_pj,
            link_pj: events.link_traversals as f64 * self.link_pj,
            leakage_pj: self.router_leakage_mw * 1e-3 * seconds * routers as f64 * 1e12,
        }
    }

    /// Convenience: evaluates straight from a [`SimReport`].
    pub fn report(&self, sim: &SimReport, routers: usize) -> EnergyReport {
        self.evaluate(&sim.events, sim.makespan, routers)
    }

    /// Closed-form dynamic energy of moving `flits` over `hops` hops
    /// (per-hop: one buffer write+read, one crossbar, one link, one
    /// arbitration; plus the injection buffer write and ejection
    /// read/crossbar).
    pub fn flit_hop_energy_pj(&self, flits: u64, hops: u64) -> f64 {
        let per_hop = self.buffer_write_pj
            + self.buffer_read_pj
            + self.crossbar_pj
            + self.link_pj
            + self.arbiter_pj;
        let endpoint = self.buffer_write_pj + self.buffer_read_pj + self.crossbar_pj;
        flits as f64 * (hops as f64 * per_hop + endpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> EventCounts {
        EventCounts {
            buffer_writes: 100,
            buffer_reads: 100,
            crossbar_traversals: 100,
            link_traversals: 60,
            arbitrations: 50,
            ejections: 40,
        }
    }

    #[test]
    fn totals_sum_components() {
        let m = EnergyModel::default();
        let r = m.evaluate(&events(), 1000, 16);
        let total = r.buffer_pj + r.crossbar_pj + r.arbiter_pj + r.link_pj + r.leakage_pj;
        assert!((r.total_pj() - total).abs() < 1e-9);
        assert!(r.dynamic_pj() < r.total_pj());
    }

    #[test]
    fn energy_scales_with_traffic() {
        let m = EnergyModel::default();
        let small = m.evaluate(&events(), 1000, 16);
        let mut big_events = events();
        big_events.buffer_writes *= 3;
        big_events.buffer_reads *= 3;
        big_events.crossbar_traversals *= 3;
        big_events.link_traversals *= 3;
        let big = m.evaluate(&big_events, 1000, 16);
        assert!(big.dynamic_pj() > 2.5 * small.dynamic_pj());
        // Leakage unchanged.
        assert_eq!(big.leakage_pj, small.leakage_pj);
    }

    #[test]
    fn zero_makespan_means_zero_leakage() {
        let m = EnergyModel::default();
        let r = m.evaluate(&EventCounts::default(), 0, 16);
        assert_eq!(r.total_pj(), 0.0);
    }

    #[test]
    fn flit_hop_energy_grows_with_distance() {
        let m = EnergyModel::default();
        assert!(m.flit_hop_energy_pj(10, 4) > m.flit_hop_energy_pj(10, 1));
        assert!(m.flit_hop_energy_pj(10, 1) > m.flit_hop_energy_pj(1, 1));
        // Zero hops still costs the endpoint events.
        assert!(m.flit_hop_energy_pj(1, 0) > 0.0);
    }

    #[test]
    fn each_component_is_count_times_coefficient() {
        let m = EnergyModel::default();
        let r = m.evaluate(&events(), 0, 16);
        assert_eq!(r.buffer_pj, 100.0 * 1.6 + 100.0 * 1.2);
        assert_eq!(r.crossbar_pj, 100.0 * 2.4);
        assert_eq!(r.arbiter_pj, 50.0 * 0.1);
        assert_eq!(r.link_pj, 60.0 * 2.0);
        assert_eq!(r.leakage_pj, 0.0);
        assert_eq!(r.dynamic_pj(), r.total_pj());
    }

    #[test]
    fn leakage_is_power_times_makespan_times_routers() {
        // 1 mW per router for 1000 cycles at 1 GHz on 16 routers:
        // 1e-3 W x 1e-6 s x 16 = 16 nJ.
        let m = EnergyModel::default();
        let r = m.evaluate(&EventCounts::default(), 1000, 16);
        assert!((r.leakage_pj - 16_000.0).abs() < 1e-6, "{}", r.leakage_pj);
        // A faster clock finishes the same cycles sooner and leaks less.
        let fast = EnergyModel { clock_ghz: 2.0, ..m }.evaluate(&EventCounts::default(), 1000, 16);
        assert!((fast.leakage_pj - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn flit_hop_energy_has_the_documented_closed_form() {
        let m = EnergyModel::default();
        let endpoint = 1.6 + 1.2 + 2.4;
        let per_hop = 1.6 + 1.2 + 2.4 + 2.0 + 0.1;
        assert!((m.flit_hop_energy_pj(1, 0) - endpoint).abs() < 1e-12);
        assert!((m.flit_hop_energy_pj(3, 5) - 3.0 * (5.0 * per_hop + endpoint)).abs() < 1e-9);
        assert_eq!(m.flit_hop_energy_pj(0, 7), 0.0);
    }
}
