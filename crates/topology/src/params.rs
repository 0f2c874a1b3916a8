//! Dragonfly sizing parameters.
//!
//! A *canonical* Dragonfly (complete graphs at both hierarchy levels) is
//! fully described by three integers, following Kim et al. (ISCA'08):
//!
//! * `p` — compute nodes attached to every router,
//! * `a` — routers per group,
//! * `h` — global (inter-group) links per router.
//!
//! For the network to be *balanced* the usual recommendation is
//! `a = 2p = 2h`; the paper's system uses `p = h = 6`, `a = 12`.

use serde::{Deserialize, Serialize};

/// Sizing parameters of a canonical Dragonfly network.
///
/// Invariants enforced by [`DragonflyParams::new`]:
/// * all parameters are nonzero,
/// * the second-level graph is complete: with `g = a*h + 1` groups, every
///   group has exactly `a*h` global links, one per other group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DragonflyParams {
    /// Nodes per router.
    pub p: u32,
    /// Routers per group.
    pub a: u32,
    /// Global links per router.
    pub h: u32,
}

impl DragonflyParams {
    /// The widest router the simulator builds: its per-router port sets
    /// are 64-bit masks.
    pub const MAX_RADIX: u32 = 64;

    /// Create a parameter set, validating basic invariants.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(p: u32, a: u32, h: u32) -> Self {
        assert!(p > 0 && a > 0 && h > 0, "dragonfly parameters must be nonzero");
        Self { p, a, h }
    }

    /// Whether the simulator can build this machine: every parameter
    /// nonzero (what [`Self::new`] asserts, and what a deserialized set
    /// skips) and a radix of at most [`Self::MAX_RADIX`] ports. Checked
    /// before any other derived quantity, so a hostile set overflows
    /// nothing.
    pub fn check(&self) -> Result<(), String> {
        let Self { p, a, h } = *self;
        if p == 0 || a == 0 || h == 0 {
            return Err(format!("dragonfly parameters must be nonzero (p {p}, a {a}, h {h})"));
        }
        let radix = u64::from(p) + u64::from(a) - 1 + u64::from(h);
        if radix > u64::from(Self::MAX_RADIX) {
            return Err(format!(
                "radix {radix} (p {p} + a-1 {} + h {h}) exceeds the simulator's {} ports",
                a - 1,
                Self::MAX_RADIX
            ));
        }
        Ok(())
    }

    /// The paper's full-scale system: `p=6, a=12, h=6` → 73 groups,
    /// 876 routers, 5,256 nodes (Table I).
    pub fn paper() -> Self {
        Self::new(6, 12, 6)
    }

    /// A balanced reduced-scale network (`a = 2h`, `p = h`) used as the
    /// default for fast experiment runs: `p=3, a=6, h=3` → 19 groups,
    /// 114 routers, 342 nodes.
    pub fn small() -> Self {
        Self::new(3, 6, 3)
    }

    /// The minimal example of the paper's Figure 1: `p=2, a=4, h=2` →
    /// 9 groups, 36 routers, 72 nodes.
    pub fn figure1() -> Self {
        Self::new(2, 4, 2)
    }

    /// Number of groups in the canonical (maximum-size) Dragonfly:
    /// `a*h + 1`.
    #[inline]
    pub fn groups(&self) -> u32 {
        self.a * self.h + 1
    }

    /// Total number of routers: `a * groups`.
    #[inline]
    pub fn routers(&self) -> u32 {
        self.a * self.groups()
    }

    /// Total number of compute nodes: `p * a * groups`.
    #[inline]
    pub fn nodes(&self) -> u32 {
        self.p * self.routers()
    }

    /// Router radix: `p` injection + `a-1` local + `h` global ports.
    #[inline]
    pub fn radix(&self) -> u32 {
        self.p + (self.a - 1) + self.h
    }

    /// Number of local ports per router (`a - 1`).
    #[inline]
    pub fn local_ports(&self) -> u32 {
        self.a - 1
    }

    /// Global links per group (`a * h`), equals `groups - 1`.
    #[inline]
    pub fn global_links_per_group(&self) -> u32 {
        self.a * self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table1() {
        let p = DragonflyParams::paper();
        assert_eq!(p.groups(), 73);
        assert_eq!(p.routers(), 876);
        assert_eq!(p.nodes(), 5256);
        assert_eq!(p.radix(), 23); // 6 injection + 11 local + 6 global
    }

    #[test]
    fn figure1_scale() {
        let p = DragonflyParams::figure1();
        assert_eq!(p.groups(), 9);
        assert_eq!(p.nodes(), 72);
    }

    #[test]
    fn small_is_balanced() {
        let p = DragonflyParams::small();
        assert_eq!(p.a, 2 * p.h);
        assert_eq!(p.p, p.h);
        assert_eq!(p.nodes(), 342);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_parameter_rejected() {
        DragonflyParams::new(0, 4, 2);
    }

    #[test]
    fn check_names_the_radix_and_zero_parameters() {
        for d in [DragonflyParams::paper(), DragonflyParams::small(), DragonflyParams::figure1()] {
            d.check().unwrap();
        }
        // 31 + 32 + 1 = 64 ports builds; one more does not.
        DragonflyParams { p: 31, a: 33, h: 1 }.check().unwrap();
        let err = DragonflyParams { p: 30, a: 36, h: 2 }.check().unwrap_err();
        assert!(err.contains("radix 67") && err.contains("64 ports"), "{err}");
        let err = DragonflyParams { p: 6, a: 0, h: 6 }.check().unwrap_err();
        assert!(err.contains("nonzero") && err.contains("a 0"), "{err}");
        let huge = DragonflyParams { p: u32::MAX, a: u32::MAX, h: u32::MAX };
        assert!(huge.check().unwrap_err().contains("radix 12884901884"));
    }

    #[test]
    fn global_links_complete_graph() {
        for (p, a, h) in [(2, 4, 2), (3, 6, 3), (6, 12, 6)] {
            let d = DragonflyParams::new(p, a, h);
            assert_eq!(d.global_links_per_group(), d.groups() - 1);
        }
    }
}
