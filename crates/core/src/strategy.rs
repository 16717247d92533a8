//! The three parallelization strategies of §IV.

use lts_nn::prune::PruneCriterion;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the group-Lasso sparsity strength is distributed over
/// producer→consumer weight blocks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SparsityScheme {
    /// **SS**: one strength for every block of a layer — structured
    /// sparsification without distance awareness.
    Ss,
    /// **SS_Mask**: per-block strength proportional to
    /// `hop_distance^power` (the paper's factor mask is `power = 1`;
    /// other powers are ablation points). Diagonal blocks get strength 0.
    SsMask {
        /// Exponent on the hop distance.
        power: f32,
    },
}

impl SparsityScheme {
    /// The paper's SS_Mask (linear distance weighting).
    pub fn mask() -> Self {
        SparsityScheme::SsMask { power: 1.0 }
    }

    /// Short display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            SparsityScheme::Ss => "SS",
            SparsityScheme::SsMask { .. } => "SS_Mask",
        }
    }
}

impl fmt::Display for SparsityScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A complete parallelization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// §IV-A: partition every layer, broadcast all feature maps between
    /// layers. The baseline all others are normalized against.
    Traditional,
    /// §IV-B: turn designated conv layers into `groups`-way grouped
    /// convolutions; grouped layers need no inter-core traffic.
    StructureLevel {
        /// Grouping degree `n` (the paper sets `n = cores`).
        groups: usize,
    },
    /// §IV-C: train with group Lasso, prune zero blocks, transmit only
    /// surviving producer→consumer feature maps.
    Sparsified {
        /// SS or SS_Mask.
        scheme: SparsityScheme,
        /// Group-Lasso coefficient λ_g.
        lambda: f32,
        /// Post-training prune rule.
        prune: PruneCriterion,
    },
}

impl Strategy {
    /// Table-style label.
    pub fn label(&self) -> String {
        match self {
            Strategy::Traditional => "Baseline".to_string(),
            Strategy::StructureLevel { groups } => format!("Grouped(n={groups})"),
            Strategy::Sparsified { scheme, .. } => scheme.label().to_string(),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(Strategy::Traditional.label(), "Baseline");
        assert_eq!(Strategy::StructureLevel { groups: 16 }.label(), "Grouped(n=16)");
        let ss = Strategy::Sparsified {
            scheme: SparsityScheme::Ss,
            lambda: 0.01,
            prune: PruneCriterion::RmsBelow(0.01),
        };
        assert_eq!(ss.label(), "SS");
        let mask = Strategy::Sparsified {
            scheme: SparsityScheme::mask(),
            lambda: 0.01,
            prune: PruneCriterion::RmsBelow(0.01),
        };
        assert_eq!(mask.label(), "SS_Mask");
    }

    #[test]
    fn default_mask_power_is_linear() {
        assert_eq!(SparsityScheme::mask(), SparsityScheme::SsMask { power: 1.0 });
    }

    #[test]
    fn display_is_the_label() {
        let strategies = [
            Strategy::Traditional,
            Strategy::StructureLevel { groups: 4 },
            Strategy::Sparsified {
                scheme: SparsityScheme::SsMask { power: 2.0 },
                lambda: 0.1,
                prune: PruneCriterion::RmsBelow(0.5),
            },
        ];
        for s in strategies {
            assert_eq!(s.to_string(), s.label());
        }
        assert_eq!(SparsityScheme::Ss.to_string(), "SS");
        // The mask power does not change the table label.
        assert_eq!(SparsityScheme::SsMask { power: 3.0 }.to_string(), "SS_Mask");
    }

    #[test]
    fn strategies_round_trip_through_serde() {
        let s = Strategy::Sparsified {
            scheme: SparsityScheme::SsMask { power: 1.5 },
            lambda: 0.02,
            prune: PruneCriterion::RmsBelow(0.01),
        };
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<Strategy>(&json).unwrap(), s);
        let grouped = Strategy::StructureLevel { groups: 8 };
        let json = serde_json::to_string(&grouped).unwrap();
        assert_eq!(serde_json::from_str::<Strategy>(&json).unwrap(), grouped);
    }
}
