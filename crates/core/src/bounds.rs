//! Lower bounds on the optimal weighted completion time (Definitions 5–7,
//! Lemma 1 of the paper).
//!
//! * [`squashed_area_bound`] — `A(I)`: the optimum of the relaxation where
//!   every `δᵢ = P`. Sorting by Smith ratio `Vᵢ/wᵢ` and "squashing" each
//!   task onto the whole machine gives
//!   `A(I) = Σᵢ (Σ_{j≥i} wⱼ) · Vᵢ/P` (tasks indexed in Smith order).
//! * [`height_bound`] — `H(I) = Σ wᵢ·Vᵢ/δᵢ`: the optimum when `P = ∞`
//!   (every task runs flat-out at its cap).
//! * [`mixed_bound`] — Lemma 1: for any volume split `Vᵢ = Vᵢ¹ + Vᵢ²`,
//!   `OPT(I) ≥ A(I[V¹]) + H(I[V²])`.
//!
//! All bounds are generic over the scalar: instantiated at
//! `bigratio::Rational` they are *exact* lower bounds, so certified
//! comparisons against them need no epsilon.
//!
//! The WDEQ run produces the specific split used in the proof of Theorem 4
//! (volume processed while *limited* vs while *at full allocation*); see
//! [`crate::algos::wdeq::wdeq_certificate`].

use crate::instance::Instance;
use numkit::Scalar;
use std::cmp::Ordering;

/// The squashed-area bound `A(I)`: optimal `Σ wᵢCᵢ` when parallelism caps
/// are ignored (`δᵢ = P`), i.e. preemptive WSPT on a single machine of
/// speed `P`. Zero-volume tasks (from subinstance splits) contribute
/// nothing and are skipped.
///
/// ```
/// use malleable_core::bounds::squashed_area_bound;
/// use malleable_core::instance::Instance;
///
/// // Smith order on P = 1: ratios 0.5 then 2 → A = 1·(2+1) + 2·1 = 5.
/// let inst = Instance::builder(1.0)
///     .task(1.0, 2.0, 1.0)
///     .task(2.0, 1.0, 1.0)
///     .build()
///     .unwrap();
/// assert!((squashed_area_bound(&inst) - 5.0).abs() < 1e-12);
/// ```
pub fn squashed_area_bound<S: Scalar>(instance: &Instance<S>) -> S {
    squashed_area_of(
        instance.p.clone(),
        instance
            .tasks
            .iter()
            .map(|t| (t.volume.clone(), t.weight.clone()))
            .collect(),
    )
}

/// `A` over explicit `(volume, weight)` pairs on a machine of capacity `p`.
pub fn squashed_area_of<S: Scalar>(p: S, mut vw: Vec<(S, S)>) -> S {
    vw.retain(|(v, _)| v.is_positive());
    // Smith order: V/w ascending under the scalar's total order, weightless
    // tasks last, ties in input order (the sort is stable). The key is one
    // rounded quotient per task. A cross-multiplied comparator is not
    // transitive in floating point once many ratios are equal — WDEQ's
    // limited volumes are wᵢ·v — and the std sort panics on it. In exact
    // arithmetic both orders coincide.
    let mut keyed: Vec<(Option<S>, (S, S))> = vw
        .into_iter()
        .map(|(v, w)| (w.is_positive().then(|| v.clone() / w.clone()), (v, w)))
        .collect();
    keyed.sort_by(|(a, _), (b, _)| match (a, b) {
        (Some(a), Some(b)) => a.total_cmp_s(b),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    });
    // A = Σᵢ Vᵢ/P · (suffix weight from i) — computed back to front,
    // accumulated through Scalar::sum (Kahan-compensated for f64, exact for
    // exact fields).
    let mut suffix_w = S::zero();
    S::sum(keyed.iter().rev().map(|(_, (v, w))| {
        suffix_w = suffix_w.clone() + w.clone();
        v.clone() / p.clone() * suffix_w.clone()
    }))
}

/// The height bound `H(I) = Σ wᵢ·hᵢ` with `hᵢ = Vᵢ/min(δᵢ, P)` on
/// identical machines — and, on heterogeneous capacity models, the tighter
/// `hᵢ = Vᵢ/rate_cap_for(i, δᵢ)` (no task can outrun the fastest `δᵢ`
/// machines it may use): no task can finish before its minimal running time.
pub fn height_bound<S: Scalar>(instance: &Instance<S>) -> S {
    S::sum(instance.tasks.iter().enumerate().filter_map(|(i, t)| {
        if t.volume.is_positive() {
            Some(
                t.weight.clone() * t.volume.clone()
                    / instance.machine.rate_cap_for(i, t.delta.clone()),
            )
        } else {
            None
        }
    }))
}

/// The mixed lower bound of Lemma 1: given per-task split volumes
/// `v1[i] ∈ [0, Vᵢ]`, returns `A(I[V¹]) + H(I[V²])` with `V² = V − V¹`,
/// which is `≤ OPT(I)`.
///
/// # Panics
/// Panics when `v1` has the wrong length or entries outside `[0, Vᵢ]`
/// beyond the scalar's natural slack (programming error in callers — the
/// split always comes from a schedule run).
pub fn mixed_bound<S: Scalar>(instance: &Instance<S>, v1: &[S]) -> S {
    assert_eq!(v1.len(), instance.n(), "split length mismatch");
    let tol = S::default_tolerance();
    let mut vw1 = Vec::with_capacity(instance.n());
    let mut h2_terms = Vec::with_capacity(instance.n());
    for (i, (t, a)) in instance.tasks.iter().zip(v1).enumerate() {
        assert!(
            tol.ge(a.clone(), S::zero()) && tol.le(a.clone(), t.volume.clone()),
            "split volume {a:?} outside [0, {:?}]",
            t.volume
        );
        let a = a.clone().clamp_to(S::zero(), t.volume.clone());
        let rest = t.volume.clone() - a.clone();
        vw1.push((a, t.weight.clone()));
        if rest.is_positive() {
            h2_terms
                .push(t.weight.clone() * rest / instance.machine.rate_cap_for(i, t.delta.clone()));
        }
    }
    squashed_area_of(instance.p.clone(), vw1) + S::sum(h2_terms)
}

/// `max(A(I), H(I))` — the classic combined lower bound (both are valid,
/// so their max is).
pub fn combined_lower_bound<S: Scalar>(instance: &Instance<S>) -> S {
    squashed_area_bound(instance).max_of(height_bound(instance))
}

/// Release-time refinement of the height bound: `Σ wᵢ·(rᵢ + hᵢ)` — no task
/// can complete before its arrival plus its minimal running time. Collapses
/// to [`height_bound`] when the instance carries no arrivals.
pub fn arrival_height_bound<S: Scalar>(instance: &Instance<S>) -> S {
    S::sum(instance.iter().filter_map(|(id, t)| {
        if t.volume.is_positive() {
            let h = t.volume.clone() / instance.machine.rate_cap_for(id.0, t.delta.clone());
            Some(t.weight.clone() * (instance.arrival(id) + h))
        } else {
            None
        }
    }))
}

/// Arrival-aware combined lower bound `max(A(I), H(I), Σ wᵢ(rᵢ + hᵢ))`.
///
/// `A` and `H` ignore release times but remain valid lower bounds on the
/// arrival-constrained optimum (releases only shrink the feasible set), so
/// the max of all three lower-bounds `OPT`. Schedule cost divided by this
/// bound is the *empirical competitive ratio* reported by the online
/// benchmarks.
pub fn arrival_aware_lower_bound<S: Scalar>(instance: &Instance<S>) -> S {
    combined_lower_bound(instance).max_of(arrival_height_bound(instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn squashed_area_single_task() {
        // One task: A = w·V/P.
        let inst = Instance::builder(2.0).task(4.0, 3.0, 1.0).build().unwrap();
        assert!(close(squashed_area_bound(&inst), 6.0));
    }

    #[test]
    fn squashed_area_orders_by_smith_ratio() {
        // Tasks (V=1,w=2) and (V=2,w=1) on P=1.
        // Smith order: ratio 0.5 then 2. A = 1·(2+1)/1? No:
        // A = V₁/P·(w₁+w₂) + V₂/P·w₂ = 1·3 + 2·1 = 5.
        let inst = Instance::builder(1.0)
            .task(1.0, 2.0, 1.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        assert!(close(squashed_area_bound(&inst), 5.0));
        // Wrong order would give 2·3 + 1·2 = 8 > 5: sorting matters.
    }

    #[test]
    fn squashed_area_is_order_invariant_of_input() {
        let a = Instance::builder(1.0)
            .task(2.0, 1.0, 1.0)
            .task(1.0, 2.0, 1.0)
            .build()
            .unwrap();
        let b = Instance::builder(1.0)
            .task(1.0, 2.0, 1.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        assert!(close(squashed_area_bound(&a), squashed_area_bound(&b)));
    }

    #[test]
    fn height_bound_uses_effective_delta() {
        // δ = 4 > P = 2 clamps to 2.
        let inst = Instance::builder(2.0).task(4.0, 1.0, 4.0).build().unwrap();
        assert!(close(height_bound(&inst), 2.0));
    }

    #[test]
    fn mixed_bound_extremes_reduce_to_pure_bounds() {
        let inst = Instance::builder(2.0)
            .task(4.0, 1.0, 1.0)
            .task(2.0, 3.0, 2.0)
            .build()
            .unwrap();
        let all = vec![4.0, 2.0];
        let none = vec![0.0, 0.0];
        assert!(close(mixed_bound(&inst, &all), squashed_area_bound(&inst)));
        assert!(close(mixed_bound(&inst, &none), height_bound(&inst)));
    }

    #[test]
    fn mixed_bound_can_beat_both_pure_bounds() {
        // One wide cheap task + one tall constrained task: splitting lets A
        // count the wide part and H the tall part.
        let inst = Instance::builder(10.0)
            .task(100.0, 1.0, 10.0) // wide
            .task(10.0, 1.0, 1.0) // tall: h = 10
            .build()
            .unwrap();
        let a = squashed_area_bound(&inst);
        let h = height_bound(&inst);
        let mixed = mixed_bound(&inst, &[100.0, 0.0]);
        assert!(mixed >= a.max(h) - 1e-9, "mixed {mixed} vs A {a}, H {h}");
    }

    #[test]
    fn weightless_tasks_sort_last_and_contribute_their_area_only() {
        let inst = Instance::builder(1.0)
            .task(1.0, 0.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        // Weighted task first: A = 1·1 (its own) + 1·0 = 1.
        assert!(close(squashed_area_bound(&inst), 1.0));
    }

    #[test]
    fn combined_bound_is_max() {
        let inst = Instance::builder(2.0).task(4.0, 1.0, 1.0).build().unwrap();
        // A = 2, H = 4.
        assert!(close(combined_lower_bound(&inst), 4.0));
    }

    #[test]
    fn arrival_bound_refines_height() {
        // One task arriving at t = 3 with h = 2: C ≥ 5 while A = H = 2.
        let inst = Instance::builder(2.0)
            .task(4.0, 1.0, 2.0)
            .arrivals(vec![3.0])
            .build()
            .unwrap();
        assert!(close(squashed_area_bound(&inst), 2.0));
        assert!(close(height_bound(&inst), 2.0));
        assert!(close(arrival_height_bound(&inst), 5.0));
        assert!(close(arrival_aware_lower_bound(&inst), 5.0));
        // Without arrivals the refinement collapses to H.
        let offline = Instance::builder(2.0).task(4.0, 1.0, 2.0).build().unwrap();
        assert!(close(
            arrival_height_bound(&offline),
            height_bound(&offline)
        ));
        assert!(close(
            arrival_aware_lower_bound(&offline),
            combined_lower_bound(&offline)
        ));
    }

    #[test]
    fn exact_bounds_are_exact() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(1.0))
            .task(q(1.0), q(2.0), q(1.0))
            .task(q(2.0), q(1.0), q(1.0))
            .build()
            .unwrap();
        assert_eq!(squashed_area_bound(&inst), Rational::from_int(5));
        assert_eq!(height_bound(&inst), Rational::from_int(4));
        assert_eq!(mixed_bound(&inst, &[q(1.0), q(2.0)]), Rational::from_int(5));
    }

    #[test]
    #[should_panic(expected = "split length mismatch")]
    fn mixed_bound_length_checked() {
        let inst = Instance::builder(1.0).task(1.0, 1.0, 1.0).build().unwrap();
        mixed_bound(&inst, &[0.5, 0.5]);
    }
}
