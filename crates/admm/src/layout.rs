//! Consensus-constraint layout of the component-based decomposition.
//!
//! Every coupling (consensus) constraint of Section II-C has the form
//! `u_k − v_k + z_k = 0`, where `u_k` is produced by a generator or branch
//! subproblem (the *x* block of the two-level formulation) and `v_k` by a bus
//! subproblem (the *x̄* block). This module assigns a dense index `k` to every
//! constraint, records which component produces each side, and groups the
//! constraints owned by every bus so the bus QP (7) can be assembled.
//!
//! Ordering: the two generator constraints of generator `g` occupy
//! `2g, 2g+1`; the eight constraints of branch `l` occupy
//! `2·ngen + 8l .. 2·ngen + 8l + 8` in the order
//! `[p_ij, q_ij, p_ji, q_ji, w_i, θ_i, w_j, θ_j]`.

use crate::params::AdmmParams;
use gridsim_grid::Network;

/// What a consensus constraint couples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConstraintKind {
    /// Generator real power vs its bus copy.
    GenP,
    /// Generator reactive power vs its bus copy.
    GenQ,
    /// Branch from-side real power flow vs its bus copy.
    FlowPij,
    /// Branch from-side reactive power flow vs its bus copy.
    FlowQij,
    /// Branch to-side real power flow vs its bus copy.
    FlowPji,
    /// Branch to-side reactive power flow vs its bus copy.
    FlowQji,
    /// Branch from-side squared voltage magnitude vs the bus variable `w_i`.
    Wi,
    /// Branch from-side angle copy vs the bus variable `θ_i`.
    ThetaI,
    /// Branch to-side squared voltage magnitude vs `w_j`.
    Wj,
    /// Branch to-side angle copy vs `θ_j`.
    ThetaJ,
}

/// Where the bus side of a constraint comes from inside the bus state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BusSlot {
    /// One of the bus's duplicated copies (index into its copy array).
    Copy(usize),
    /// The bus variable `w` (squared voltage magnitude).
    W,
    /// The bus variable `θ`.
    Theta,
}

/// Per-constraint metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConstraintInfo {
    /// What this constraint couples.
    pub kind: ConstraintKind,
    /// The bus that owns the x̄ side.
    pub bus: usize,
    /// Where in the bus state the x̄ side lives.
    pub slot: BusSlot,
    /// ADMM penalty ρ of this constraint.
    pub rho: f64,
}

/// Everything the bus-update kernel needs to know about one bus.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BusPlan {
    /// Constraint indices of the real-power copies (generators first, then
    /// branch ends, in copy order).
    pub p_copies: Vec<usize>,
    /// Constraint indices of the reactive-power copies (same order).
    pub q_copies: Vec<usize>,
    /// Constraint indices of the `w` consensus constraints at this bus.
    pub w_constraints: Vec<usize>,
    /// Constraint indices of the `θ` consensus constraints at this bus.
    pub theta_constraints: Vec<usize>,
    /// Total number of copies stored by this bus (`2 * (gens + branch ends)`).
    pub num_copies: usize,
}

/// The complete constraint layout of a network.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Per-constraint metadata, length [`Layout::num_constraints`].
    pub constraints: Vec<ConstraintInfo>,
    /// Per-bus assembly plan.
    pub bus_plans: Vec<BusPlan>,
    /// Number of generators.
    pub ngen: usize,
    /// Number of branches.
    pub nbranch: usize,
}

impl Layout {
    /// Index of generator `g`'s real-power constraint.
    #[inline]
    pub(crate) fn gen_p(&self, g: usize) -> usize {
        2 * g
    }

    /// Index of generator `g`'s reactive-power constraint.
    #[inline]
    pub(crate) fn gen_q(&self, g: usize) -> usize {
        2 * g + 1
    }

    /// Base index of branch `l`'s eight constraints.
    #[inline]
    pub(crate) fn branch_base(&self, l: usize) -> usize {
        2 * self.ngen + 8 * l
    }

    /// Total number of consensus constraints.
    pub(crate) fn num_constraints(&self) -> usize {
        2 * self.ngen + 8 * self.nbranch
    }

    /// Build the layout for a network with the given penalties.
    pub(crate) fn build(net: &Network, params: &AdmmParams) -> Layout {
        let ngen = net.ngen;
        let nbranch = net.nbranch;
        let m = 2 * ngen + 8 * nbranch;
        let mut constraints = Vec::with_capacity(m);
        let mut bus_plans = vec![BusPlan::default(); net.nbus];
        // Track the next copy slot of each bus.
        let mut next_copy = vec![0usize; net.nbus];

        // Generators.
        for g in 0..ngen {
            let bus = net.gen_bus[g];
            let slot_p = next_copy[bus];
            let slot_q = slot_p + 1;
            next_copy[bus] += 2;
            constraints.push(ConstraintInfo {
                kind: ConstraintKind::GenP,
                bus,
                slot: BusSlot::Copy(slot_p),
                rho: params.rho_pq,
            });
            constraints.push(ConstraintInfo {
                kind: ConstraintKind::GenQ,
                bus,
                slot: BusSlot::Copy(slot_q),
                rho: params.rho_pq,
            });
            bus_plans[bus].p_copies.push(2 * g);
            bus_plans[bus].q_copies.push(2 * g + 1);
        }
        // Branches.
        for l in 0..nbranch {
            let f = net.br_from[l];
            let t = net.br_to[l];
            let base = 2 * ngen + 8 * l;
            // From-side flow copies live on bus f.
            let slot_pf = next_copy[f];
            let slot_qf = slot_pf + 1;
            next_copy[f] += 2;
            // To-side flow copies live on bus t.
            let slot_pt = next_copy[t];
            let slot_qt = slot_pt + 1;
            next_copy[t] += 2;
            let entries = [
                (
                    ConstraintKind::FlowPij,
                    f,
                    BusSlot::Copy(slot_pf),
                    params.rho_pq,
                ),
                (
                    ConstraintKind::FlowQij,
                    f,
                    BusSlot::Copy(slot_qf),
                    params.rho_pq,
                ),
                (
                    ConstraintKind::FlowPji,
                    t,
                    BusSlot::Copy(slot_pt),
                    params.rho_pq,
                ),
                (
                    ConstraintKind::FlowQji,
                    t,
                    BusSlot::Copy(slot_qt),
                    params.rho_pq,
                ),
                (ConstraintKind::Wi, f, BusSlot::W, params.rho_va),
                (ConstraintKind::ThetaI, f, BusSlot::Theta, params.rho_va),
                (ConstraintKind::Wj, t, BusSlot::W, params.rho_va),
                (ConstraintKind::ThetaJ, t, BusSlot::Theta, params.rho_va),
            ];
            for (kind, bus, slot, rho) in entries {
                constraints.push(ConstraintInfo {
                    kind,
                    bus,
                    slot,
                    rho,
                });
            }
            bus_plans[f].p_copies.push(base);
            bus_plans[f].q_copies.push(base + 1);
            bus_plans[t].p_copies.push(base + 2);
            bus_plans[t].q_copies.push(base + 3);
            bus_plans[f].w_constraints.push(base + 4);
            bus_plans[f].theta_constraints.push(base + 5);
            bus_plans[t].w_constraints.push(base + 6);
            bus_plans[t].theta_constraints.push(base + 7);
        }
        for (b, plan) in bus_plans.iter_mut().enumerate() {
            plan.num_copies = next_copy[b];
        }
        Layout {
            constraints,
            bus_plans,
            ngen,
            nbranch,
        }
    }

    /// The per-constraint penalty vector ρ.
    pub(crate) fn rho_vector(&self) -> Vec<f64> {
        self.constraints.iter().map(|c| c.rho).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::BranchEnd;

    fn layout9() -> (gridsim_grid::Network, Layout) {
        let net = gridsim_grid::case9().compile().unwrap();
        let layout = Layout::build(&net, &AdmmParams::default());
        (net, layout)
    }

    #[test]
    fn constraint_count_matches_formula() {
        let (net, layout) = layout9();
        assert_eq!(layout.num_constraints(), 2 * net.ngen + 8 * net.nbranch);
        assert_eq!(layout.constraints.len(), layout.num_constraints());
    }

    #[test]
    fn generator_constraints_point_at_their_bus() {
        let (net, layout) = layout9();
        for g in 0..net.ngen {
            let kp = layout.gen_p(g);
            let kq = layout.gen_q(g);
            assert_eq!(layout.constraints[kp].kind, ConstraintKind::GenP);
            assert_eq!(layout.constraints[kq].kind, ConstraintKind::GenQ);
            assert_eq!(layout.constraints[kp].bus, net.gen_bus[g]);
            assert_eq!(layout.constraints[kp].rho, 10.0);
        }
    }

    #[test]
    fn branch_constraints_follow_documented_order() {
        let (net, layout) = layout9();
        let l = 3;
        let base = layout.branch_base(l);
        let kinds: Vec<ConstraintKind> =
            (0..8).map(|k| layout.constraints[base + k].kind).collect();
        assert_eq!(
            kinds,
            vec![
                ConstraintKind::FlowPij,
                ConstraintKind::FlowQij,
                ConstraintKind::FlowPji,
                ConstraintKind::FlowQji,
                ConstraintKind::Wi,
                ConstraintKind::ThetaI,
                ConstraintKind::Wj,
                ConstraintKind::ThetaJ
            ]
        );
        // From-side constraints sit on the from bus, to-side on the to bus.
        assert_eq!(layout.constraints[base].bus, net.br_from[l]);
        assert_eq!(layout.constraints[base + 2].bus, net.br_to[l]);
        assert_eq!(layout.constraints[base + 4].bus, net.br_from[l]);
        assert_eq!(layout.constraints[base + 6].bus, net.br_to[l]);
        // Voltage constraints use the voltage penalty.
        assert_eq!(layout.constraints[base + 4].rho, 1000.0);
    }

    #[test]
    fn bus_plans_cover_every_copy_exactly_once() {
        let (net, layout) = layout9();
        for (b, plan) in layout.bus_plans.iter().enumerate() {
            let ends = net.branches_at_bus[b].len();
            let gens = net.gens_at_bus[b].len();
            assert_eq!(plan.p_copies.len(), gens + ends);
            assert_eq!(plan.q_copies.len(), gens + ends);
            assert_eq!(plan.w_constraints.len(), ends);
            assert_eq!(plan.theta_constraints.len(), ends);
            assert_eq!(plan.num_copies, 2 * (gens + ends));
        }
        // Every copy slot of every bus is referenced by exactly one
        // constraint.
        let mut seen = vec![std::collections::HashSet::new(); net.nbus];
        for info in &layout.constraints {
            if let BusSlot::Copy(s) = info.slot {
                assert!(seen[info.bus].insert(s), "duplicate slot {s}");
            }
        }
        for (b, set) in seen.iter().enumerate() {
            assert_eq!(set.len(), layout.bus_plans[b].num_copies);
        }
    }

    #[test]
    fn rho_vector_has_expected_split() {
        let (net, layout) = layout9();
        let rho = layout.rho_vector();
        let n_pq = rho.iter().filter(|&&r| r == 10.0).count();
        let n_va = rho.iter().filter(|&&r| r == 1000.0).count();
        assert_eq!(n_pq, 2 * net.ngen + 4 * net.nbranch);
        assert_eq!(n_va, 4 * net.nbranch);
    }

    #[test]
    fn end_kind_consistency_with_network_adjacency() {
        // Constraints attributed to a bus through BranchEnd must match the
        // network adjacency lists.
        let (net, layout) = layout9();
        for b in 0..net.nbus {
            let from_ends = net.branches_at_bus[b]
                .iter()
                .filter(|(_, e)| *e == BranchEnd::From)
                .count();
            let wi_here = layout.bus_plans[b]
                .w_constraints
                .iter()
                .filter(|&&k| layout.constraints[k].kind == ConstraintKind::Wi)
                .count();
            assert_eq!(from_ends, wi_here);
        }
    }
}
