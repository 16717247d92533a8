//! NoC configuration and error type.

use crate::topology::{Direction, HopClass, McmTopology, Mesh2d, Topo, Topology};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Packet routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Dimension-ordered XY (Table II's "dimensional-ordered routing").
    #[default]
    XyDor,
    /// Dimension-ordered YX.
    YxDor,
    /// O1TURN: each packet picks XY or YX (balanced, deterministic by
    /// packet id); the two orders use disjoint VC classes so the
    /// combination stays deadlock-free. Needs at least 2 VCs.
    O1Turn,
}

/// Deepest input-VC buffer a configuration may ask for, in flits.
const MAX_VC_BUFFER_FLITS: usize = 1024;
/// Largest package a configuration may describe, in nodes.
const MAX_NODES: usize = 4096;

/// Errors produced by the NoC simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocError {
    /// An invalid configuration value.
    BadConfig(String),
    /// A message references a node outside the mesh.
    BadNode {
        /// Offending node id.
        node: usize,
        /// Number of nodes in the mesh.
        nodes: usize,
    },
    /// The simulation exceeded its cycle budget — almost always a
    /// deadlock, a fault configuration too hostile to ever deliver, or an
    /// unreasonably small budget.
    CycleLimitExceeded {
        /// The configured cycle cap.
        limit: u64,
        /// Messages still undelivered when the cap hit.
        undelivered: usize,
    },
    /// Permanent faults leave no surviving path between two endpoints
    /// (or an endpoint router is itself dead).
    Unreachable {
        /// Source node of the rejected message.
        src: usize,
        /// Destination node of the rejected message.
        dst: usize,
    },
    /// Credit flow control broke at one input virtual channel: a flit
    /// arrived with the VC's buffer full, or left on a mesh output
    /// without holding a downstream VC. The run stops with this error
    /// instead of overwriting or misrouting a buffered flit.
    FlowControl {
        /// Router of the VC.
        node: usize,
        /// Input port of the VC ([`crate::topology::Direction::index`]).
        port: usize,
        /// Virtual channel within the port.
        vc: usize,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::BadConfig(msg) => write!(f, "bad NoC configuration: {msg}"),
            NocError::BadNode { node, nodes } => {
                write!(f, "node {node} out of range for mesh of {nodes} nodes")
            }
            NocError::CycleLimitExceeded { limit, undelivered } => write!(
                f,
                "simulation exceeded {limit} cycles with {undelivered} messages undelivered"
            ),
            NocError::Unreachable { src, dst } => {
                write!(f, "no surviving route from node {src} to node {dst} under the fault model")
            }
            NocError::FlowControl { node, port, vc } => {
                write!(f, "flow control broke at node {node}, input port {port}, VC {vc}")
            }
        }
    }
}

impl Error for NocError {}

/// Interposer link parameters of an MCM package: inter-chiplet hops are
/// *slower* (more cycles of link latency) but *wider* (more phit bits, so
/// fewer serialization cycles per flit) than on-chip mesh links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterposerConfig {
    /// Link traversal latency in cycles (on-chip default is 1).
    pub link_cycles: u64,
    /// Physical link (phit) width in bits (on-chip default is 64).
    pub phit_bits: usize,
}

impl Default for InterposerConfig {
    fn default() -> Self {
        // 4× the on-chip link latency, 4× the on-chip phit width: a
        // 512-bit flit serializes in 2 cycles instead of 8 but pays the
        // longer die-to-die wire.
        Self { link_cycles: 4, phit_bits: 256 }
    }
}

/// Which topology the `width × height` per-chip geometry is instantiated
/// on. `Mesh` (the default, and the only pre-MCM behaviour) is one chip;
/// `Mcm` tiles a package grid of identical chiplets joined by interposer
/// links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TopologySpec {
    /// A single-chip 2-D mesh of `width × height` cores.
    #[default]
    Mesh,
    /// A `grid_width × grid_height` package of `width × height` chiplets.
    Mcm {
        /// Chiplet columns on the package.
        grid_width: usize,
        /// Chiplet rows on the package.
        grid_height: usize,
        /// Interposer link parameters.
        interposer: InterposerConfig,
    },
}

/// Full NoC configuration (defaults reproduce Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (columns) — per chiplet under [`TopologySpec::Mcm`].
    pub width: usize,
    /// Mesh height (rows) — per chiplet under [`TopologySpec::Mcm`].
    pub height: usize,
    /// Flit size in bytes (Table II: 512-bit flits = 64 B).
    pub flit_bytes: usize,
    /// Physical link (phit) width in bits. A flit occupies a link/lane
    /// for `flit_bits / phit_bits` cycles. The default of 64 bits (8
    /// cycles per 512-bit flit) is calibrated so that traditional
    /// parallelization of AlexNet on 16 cores spends ~23 % of a single
    /// pass communicating, the paper's §III-B measurement.
    pub phit_bits: usize,
    /// Maximum flits per packet (Table II: 20).
    pub max_packet_flits: usize,
    /// Virtual channels per input port (Table II: 3).
    pub vcs: usize,
    /// Input buffer depth per VC, in flits.
    pub vc_buffer_flits: usize,
    /// Router pipeline depth in cycles (Table II: 3 stages).
    pub router_stages: u64,
    /// Link traversal latency in cycles.
    pub link_cycles: u64,
    /// Physical channels per link (Table II: 2); modelled as the number of
    /// flits a link can move per cycle.
    pub physical_channels: usize,
    /// Packet routing policy (Table II: dimension-ordered, i.e. XY).
    pub routing: RoutingPolicy,
    /// Hard cap on simulated cycles (deadlock guard).
    pub max_cycles: u64,
    /// The topology the geometry lives on. Defaults to a single-chip
    /// mesh, so pre-MCM configs (and their serialized forms, which feed
    /// the simcache keys) are unchanged.
    pub topology: TopologySpec,
}

impl NocConfig {
    /// The paper's 16-core configuration: 4×4 mesh, 512-bit flits,
    /// 20-flit packets, 3 VCs, 3-stage routers, 2 physical channels.
    pub fn paper_16core() -> Self {
        Self::paper_mesh(4, 4)
    }

    /// The paper's configuration on an arbitrary mesh (used by the
    /// 4/8/32-core scalability experiments).
    pub fn paper_mesh(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            flit_bytes: 64,
            phit_bits: 64,
            max_packet_flits: 20,
            vcs: 3,
            vc_buffer_flits: 4,
            router_stages: 3,
            link_cycles: 1,
            physical_channels: 2,
            routing: RoutingPolicy::XyDor,
            max_cycles: 50_000_000,
            topology: TopologySpec::Mesh,
        }
    }

    /// Mesh geometry for a core count, as used in the paper's scalability
    /// study: 4 → 2×2, 8 → 4×2, 16 → 4×4, 32 → 8×4; other counts get the
    /// most square factorization (via [`Mesh2d::for_nodes`]).
    pub fn paper_cores(cores: usize) -> Result<Self, NocError> {
        if cores == 0 {
            return Err(NocError::BadConfig("core count must be positive".into()));
        }
        let mesh = Mesh2d::for_nodes(cores);
        Ok(Self::paper_mesh(mesh.width(), mesh.height()))
    }

    /// The paper's per-chip configuration scaled out to a multi-chip
    /// module: `chiplets` chips of `cores_per_chiplet` cores each, chip
    /// and package grids both chosen by [`Mesh2d::for_nodes`], joined by
    /// default interposer links.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadConfig`] if either count is zero.
    pub fn paper_mcm(chiplets: usize, cores_per_chiplet: usize) -> Result<Self, NocError> {
        if chiplets == 0 {
            return Err(NocError::BadConfig("chiplet count must be positive".into()));
        }
        let mut config = Self::paper_cores(cores_per_chiplet)?;
        let grid = Mesh2d::for_nodes(chiplets);
        config.topology = TopologySpec::Mcm {
            grid_width: grid.width(),
            grid_height: grid.height(),
            interposer: InterposerConfig::default(),
        };
        Ok(config)
    }

    /// The concrete topology this configuration describes.
    pub fn topo(&self) -> Topo {
        match self.topology {
            TopologySpec::Mesh => Topo::Mesh(Mesh2d::new(self.width, self.height)),
            TopologySpec::Mcm { grid_width, grid_height, .. } => {
                Topo::Mcm(McmTopology::new(self.width, self.height, grid_width, grid_height))
            }
        }
    }

    /// Number of chiplets (1 for a plain mesh).
    pub fn chiplets(&self) -> usize {
        match self.topology {
            TopologySpec::Mesh => 1,
            TopologySpec::Mcm { grid_width, grid_height, .. } => grid_width * grid_height,
        }
    }

    /// Number of nodes across the whole topology.
    pub fn nodes(&self) -> usize {
        self.width * self.height * self.chiplets()
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadConfig`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), NocError> {
        let positive: [(&str, usize); 8] = [
            ("width", self.width),
            ("height", self.height),
            ("flit_bytes", self.flit_bytes),
            ("max_packet_flits", self.max_packet_flits),
            ("vcs", self.vcs),
            ("vc_buffer_flits", self.vc_buffer_flits),
            ("physical_channels", self.physical_channels),
            ("phit_bits", self.phit_bits),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(NocError::BadConfig(format!("{name} must be positive")));
            }
        }
        // A router's input VCs (every port's) share one 64-bit
        // switch-allocation mask.
        let max_vcs = 64 / Direction::ALL.len();
        if self.vcs > max_vcs {
            return Err(NocError::BadConfig(format!(
                "vcs must be at most {max_vcs}, got {}",
                self.vcs
            )));
        }
        // The simulator counts a packet's flits in 32 bits.
        if u32::try_from(self.max_packet_flits).is_err() {
            return Err(NocError::BadConfig("max_packet_flits must fit in 32 bits".into()));
        }
        // A simulator's next-hop table holds 2 × nodes² entries.
        let grid = match self.topology {
            TopologySpec::Mesh => [1, 1],
            TopologySpec::Mcm { grid_width, grid_height, .. } => [grid_width, grid_height],
        };
        let nodes =
            [self.width, self.height, grid[0], grid[1]].into_iter().try_fold(1, usize::checked_mul);
        if nodes.is_none_or(|n| n > MAX_NODES) {
            return Err(NocError::BadConfig(format!(
                "a package may have at most {MAX_NODES} nodes"
            )));
        }
        // Every VC's buffer is allocated up front when a simulator is built.
        if self.vc_buffer_flits > MAX_VC_BUFFER_FLITS {
            return Err(NocError::BadConfig(format!(
                "vc_buffer_flits must be at most {MAX_VC_BUFFER_FLITS}, got {}",
                self.vc_buffer_flits
            )));
        }
        if self.router_stages == 0 {
            return Err(NocError::BadConfig("router_stages must be positive".into()));
        }
        if self.max_cycles == 0 {
            return Err(NocError::BadConfig("max_cycles must be positive".into()));
        }
        if self.routing == RoutingPolicy::O1Turn && self.vcs < 2 {
            return Err(NocError::BadConfig(
                "O1TURN routing needs at least 2 VCs for deadlock freedom".into(),
            ));
        }
        if let TopologySpec::Mcm { grid_width, grid_height, interposer } = self.topology {
            if grid_width == 0 || grid_height == 0 {
                return Err(NocError::BadConfig("package grid dimensions must be positive".into()));
            }
            if interposer.link_cycles == 0 {
                return Err(NocError::BadConfig("interposer link_cycles must be positive".into()));
            }
            if interposer.phit_bits == 0 {
                return Err(NocError::BadConfig("interposer phit_bits must be positive".into()));
            }
        }
        Ok(())
    }

    /// The virtual channels a packet of the given dimension order may
    /// use. Under O1TURN the VC space is split between the two orders;
    /// under a single fixed order every VC is available.
    pub fn vc_class(&self, yx: bool) -> std::ops::Range<usize> {
        match self.routing {
            RoutingPolicy::O1Turn => {
                let split = self.vcs.div_ceil(2);
                if yx {
                    split..self.vcs
                } else {
                    0..split
                }
            }
            _ => 0..self.vcs,
        }
    }

    /// The dimension order the policy assigns to a packet.
    pub fn packet_order_is_yx(&self, packet_id: u64) -> bool {
        match self.routing {
            RoutingPolicy::XyDor => false,
            RoutingPolicy::YxDor => true,
            RoutingPolicy::O1Turn => packet_id % 2 == 1,
        }
    }

    /// Flits needed to carry `bytes` of payload.
    pub fn flits_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.flit_bytes as u64).max(1)
    }

    /// Cycles one flit occupies a link lane (`flit_bits / phit_bits`).
    pub fn serialization_cycles(&self) -> u64 {
        ((self.flit_bytes * 8).div_ceil(self.phit_bits)) as u64
    }

    /// Link traversal latency of a hop of the given class.
    pub fn link_cycles_for(&self, class: HopClass) -> u64 {
        match (class, self.topology) {
            (HopClass::Inter, TopologySpec::Mcm { interposer, .. }) => interposer.link_cycles,
            _ => self.link_cycles,
        }
    }

    /// Serialization cycles of a hop of the given class (interposer links
    /// are wider, so a flit occupies them for fewer cycles).
    pub fn serialization_cycles_for(&self, class: HopClass) -> u64 {
        match (class, self.topology) {
            (HopClass::Inter, TopologySpec::Mcm { interposer, .. }) => {
                ((self.flit_bytes * 8).div_ceil(interposer.phit_bits)) as u64
            }
            _ => self.serialization_cycles(),
        }
    }

    /// Uncongested head-flit latency of the XY route from `src` to
    /// `dst`, excluding injection serialization: one router pipeline plus
    /// one (class-priced) link traversal per hop.
    pub fn uncongested_route_cycles(&self, src: usize, dst: usize) -> u64 {
        let topo = self.topo();
        let mut here = src;
        let mut cycles = 0u64;
        while here != dst {
            let dir = topo.route_xy(here, dst);
            cycles += self.router_stages + self.link_cycles_for(topo.hop_class(here, dir));
            here = topo.neighbor(here, dir).expect("XY routing never leaves the topology");
        }
        cycles
    }
}

/// The factor pair of `n` closest to a square, wider than tall (the
/// geometry rule of [`Mesh2d::for_nodes`]).
pub fn squarest_factors(n: usize) -> (usize, usize) {
    let mesh = Mesh2d::for_nodes(n);
    (mesh.width(), mesh.height())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_ii() {
        let c = NocConfig::paper_16core();
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.flit_bytes * 8, 512);
        assert_eq!(c.max_packet_flits, 20);
        assert_eq!(c.vcs, 3);
        assert_eq!(c.router_stages, 3);
        assert_eq!(c.physical_channels, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn squarest_factors_examples() {
        assert_eq!(squarest_factors(4), (2, 2));
        assert_eq!(squarest_factors(8), (4, 2));
        assert_eq!(squarest_factors(16), (4, 4));
        assert_eq!(squarest_factors(32), (8, 4));
        assert_eq!(squarest_factors(7), (7, 1));
    }

    #[test]
    fn flits_for_bytes_rounds_up() {
        let c = NocConfig::paper_16core();
        assert_eq!(c.flits_for_bytes(1), 1);
        assert_eq!(c.flits_for_bytes(64), 1);
        assert_eq!(c.flits_for_bytes(65), 2);
        assert_eq!(c.flits_for_bytes(0), 1); // at least a head flit
    }

    #[test]
    fn validation_bounds_the_vc_count() {
        let c = NocConfig { vcs: 12, ..NocConfig::paper_16core() };
        assert!(c.validate().is_ok());
        let c = NocConfig { vcs: 13, ..NocConfig::paper_16core() };
        assert!(matches!(c.validate(), Err(NocError::BadConfig(_))));
    }

    #[test]
    fn validation_bounds_the_node_count() {
        assert!(NocConfig::paper_mesh(64, 64).validate().is_ok());
        let c = NocConfig::paper_mesh(64, 65);
        assert!(matches!(c.validate(), Err(NocError::BadConfig(_))));
    }

    #[test]
    fn validation_bounds_the_buffer_depth() {
        let c = NocConfig { vc_buffer_flits: MAX_VC_BUFFER_FLITS, ..NocConfig::paper_16core() };
        assert!(c.validate().is_ok());
        let c = NocConfig { vc_buffer_flits: MAX_VC_BUFFER_FLITS + 1, ..NocConfig::paper_16core() };
        assert!(matches!(c.validate(), Err(NocError::BadConfig(_))));
    }

    #[test]
    fn validation_catches_zero_fields() {
        let mut c = NocConfig::paper_16core();
        c.vcs = 0;
        assert!(c.validate().is_err());
        let mut c2 = NocConfig::paper_16core();
        c2.width = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn error_display() {
        let e = NocError::BadNode { node: 20, nodes: 16 };
        assert!(e.to_string().contains("20"));
    }

    #[test]
    fn paper_cores_follows_topology_geometry_for_non_square_counts() {
        for cores in [2, 6, 7, 8, 12, 18, 24] {
            let c = NocConfig::paper_cores(cores).unwrap();
            let mesh = Mesh2d::for_nodes(cores);
            assert_eq!((c.width, c.height), (mesh.width(), mesh.height()), "{cores} cores");
            assert_eq!(c.nodes(), cores);
            assert!(c.width >= c.height, "{cores} cores: wider than tall");
            assert!(c.validate().is_ok());
        }
        assert!(NocConfig::paper_cores(0).is_err());
    }

    #[test]
    fn paper_mcm_geometry_and_nodes() {
        let c = NocConfig::paper_mcm(2, 16).unwrap();
        assert_eq!((c.width, c.height), (4, 4));
        assert_eq!(c.chiplets(), 2);
        assert_eq!(c.nodes(), 32);
        assert!(c.validate().is_ok());
        match c.topo() {
            Topo::Mcm(m) => {
                assert_eq!(Topology::width(&m), 8);
                assert_eq!(Topology::height(&m), 4);
            }
            Topo::Mesh(_) => panic!("expected MCM topology"),
        }
        // chiplets = 1 keeps the single-chip node count and geometry.
        let one = NocConfig::paper_mcm(1, 16).unwrap();
        assert_eq!(one.nodes(), 16);
        assert_eq!(one.chiplets(), 1);
    }

    #[test]
    fn hop_class_pricing_defaults_and_interposer() {
        let mesh = NocConfig::paper_16core();
        assert_eq!(mesh.link_cycles_for(HopClass::Inter), mesh.link_cycles);
        assert_eq!(mesh.serialization_cycles_for(HopClass::Inter), mesh.serialization_cycles());
        let mcm = NocConfig::paper_mcm(2, 16).unwrap();
        assert_eq!(mcm.link_cycles_for(HopClass::Intra), 1);
        assert_eq!(mcm.link_cycles_for(HopClass::Inter), 4);
        assert_eq!(mcm.serialization_cycles_for(HopClass::Intra), 8);
        assert_eq!(mcm.serialization_cycles_for(HopClass::Inter), 2);
    }

    #[test]
    fn uncongested_route_prices_interposer_hops() {
        let mesh = NocConfig::paper_16core();
        // 4x4 mesh, 0 -> 15 is 6 hops of (3 router + 1 link) cycles.
        assert_eq!(mesh.uncongested_route_cycles(0, 15), 6 * 4);
        let mcm = NocConfig::paper_mcm(2, 4).unwrap(); // two 2x2 chips, 4x2 global
                                                       // 0 -> 3 crosses the seam between x=1 and x=2: two intra hops at
                                                       // 3+1, one interposer hop at 3+4.
        assert_eq!(mcm.uncongested_route_cycles(0, 3), 2 * 4 + 7);
    }

    #[test]
    fn mcm_validation_catches_bad_interposer() {
        let mut c = NocConfig::paper_mcm(2, 16).unwrap();
        if let TopologySpec::Mcm { ref mut interposer, .. } = c.topology {
            interposer.link_cycles = 0;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn topology_spec_round_trips_through_serde() {
        let mesh = NocConfig::paper_16core();
        let json = serde_json::to_string(&mesh).unwrap();
        assert_eq!(serde_json::from_str::<NocConfig>(&json).unwrap(), mesh);
        let mcm = NocConfig::paper_mcm(4, 16).unwrap();
        let json = serde_json::to_string(&mcm).unwrap();
        assert_eq!(serde_json::from_str::<NocConfig>(&json).unwrap(), mcm);
        // Distinct topologies must serialize distinctly (simcache keys hash
        // this encoding).
        let other = serde_json::to_string(&NocConfig::paper_mcm(2, 32).unwrap()).unwrap();
        assert_ne!(json, other);
    }
}
