//! Checks the simplex against an independent oracle: brute-force
//! enumeration of the basic solutions of small boxed LPs.
//!
//! With every variable boxed the feasible region is a polytope, so it is
//! empty exactly when no vertex is feasible, and otherwise some vertex is
//! optimal. A vertex is the intersection of `n` linearly independent active
//! hyperplanes, each a constraint row or a variable bound; the oracle solves
//! every such `n × n` system and keeps the best feasible point.

use mfa_linprog::{LpProblem, Relation, Sense, SolverStatus};
use proptest::prelude::*;

/// Slack allowed when the oracle tests a vertex for feasibility.
const FEAS_TOL: f64 = 1e-7;

/// A generated LP over `bounds.len()` variables.
#[derive(Debug)]
struct SmallLp {
    maximize: bool,
    objective: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl SmallLp {
    fn from_parts(
        num_vars: usize,
        maximize: bool,
        objective: Vec<f64>,
        boxes: Vec<(f64, f64)>,
        rows: Vec<(Vec<f64>, usize, f64)>,
    ) -> Self {
        const RELATIONS: [Relation; 3] = [Relation::LessEq, Relation::GreaterEq, Relation::Equal];
        SmallLp {
            maximize,
            objective: objective[..num_vars].to_vec(),
            bounds: boxes[..num_vars]
                .iter()
                .map(|&(lower, width)| (lower, lower + width))
                .collect(),
            rows: rows
                .into_iter()
                .map(|(coeffs, rel, rhs)| (coeffs[..num_vars].to_vec(), RELATIONS[rel], rhs))
                .collect(),
        }
    }

    fn to_problem(&self) -> LpProblem {
        let sense = if self.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut lp = LpProblem::new(sense);
        let vars: Vec<_> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| lp.add_var(format!("x{i}"), lo, hi).unwrap())
            .collect();
        for (&var, &c) in vars.iter().zip(&self.objective) {
            lp.set_objective_coefficient(var, c).unwrap();
        }
        for (k, (coeffs, relation, rhs)) in self.rows.iter().enumerate() {
            let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
            lp.add_constraint(format!("r{k}"), &terms, *relation, *rhs)
                .unwrap();
        }
        lp
    }

    fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    fn is_feasible(&self, x: &[f64]) -> bool {
        let in_box = self
            .bounds
            .iter()
            .zip(x)
            .all(|(&(lo, hi), &v)| v >= lo - FEAS_TOL && v <= hi + FEAS_TOL);
        in_box
            && self.rows.iter().all(|(coeffs, relation, rhs)| {
                let lhs: f64 = coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
                match relation {
                    Relation::LessEq => lhs <= rhs + FEAS_TOL,
                    Relation::GreaterEq => lhs >= rhs - FEAS_TOL,
                    Relation::Equal => (lhs - rhs).abs() <= FEAS_TOL,
                }
            })
    }

    /// Every hyperplane `a·x = b` that can be active at a vertex.
    fn hyperplanes(&self) -> Vec<(Vec<f64>, f64)> {
        let n = self.bounds.len();
        let mut planes: Vec<(Vec<f64>, f64)> = self
            .rows
            .iter()
            .map(|(coeffs, _, rhs)| (coeffs.clone(), *rhs))
            .collect();
        for (i, &(lo, hi)) in self.bounds.iter().enumerate() {
            let mut unit = vec![0.0; n];
            unit[i] = 1.0;
            planes.push((unit.clone(), lo));
            planes.push((unit, hi));
        }
        planes
    }

    /// Best objective over the feasible vertices (in the model's own sense),
    /// or `None` when no vertex is feasible.
    fn best_vertex_objective(&self) -> Option<f64> {
        let n = self.bounds.len();
        let planes = self.hyperplanes();
        let mut best: Option<f64> = None;
        for subset in subsets(planes.len(), n) {
            let system: Vec<&(Vec<f64>, f64)> = subset.iter().map(|&k| &planes[k]).collect();
            let Some(x) = solve_square(&system) else {
                continue;
            };
            if !self.is_feasible(&x) {
                continue;
            }
            let value = self.objective_at(&x);
            let better = match best {
                None => true,
                Some(b) if self.maximize => value > b,
                Some(b) => value < b,
            };
            if better {
                best = Some(value);
            }
        }
        best
    }
}

/// All `k`-element subsets of `0..n`, in lexicographic order.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn extend(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            extend(i + 1, n, k, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    extend(0, n, k, &mut Vec::with_capacity(k), &mut out);
    out
}

/// Solves the square system by Gaussian elimination with partial pivoting;
/// `None` when it is (numerically) singular.
fn solve_square(system: &[&(Vec<f64>, f64)]) -> Option<Vec<f64>> {
    let n = system.len();
    let mut m: Vec<Vec<f64>> = system
        .iter()
        .map(|(a, b)| {
            let mut row = a.clone();
            row.push(*b);
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_row = m[col].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != col {
                let factor = row[col] / pivot_row[col];
                for (a, p) in row.iter_mut().zip(&pivot_row).skip(col) {
                    *a -= factor * p;
                }
            }
        }
    }
    Some(
        m.iter()
            .enumerate()
            .map(|(i, row)| row[n] / row[i])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn simplex_matches_vertex_enumeration(
        num_vars in 2usize..4,
        maximize in 0usize..2,
        objective in proptest::collection::vec(-3.0..3.0f64, 3),
        boxes in proptest::collection::vec((-5.0..2.0f64, 0.5..8.0f64), 3),
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4.0..4.0f64, 3), 0usize..3, -6.0..6.0f64),
            1..5,
        ),
    ) {
        let model = SmallLp::from_parts(num_vars, maximize == 1, objective, boxes, rows);
        let solution = model.to_problem().solve().unwrap();
        let oracle = model.best_vertex_objective();
        match solution.status() {
            SolverStatus::Optimal => {
                let Some(best) = oracle else {
                    return Err(TestCaseError::fail(format!(
                        "simplex optimal at {} but no feasible vertex: {model:?}",
                        solution.objective()
                    )));
                };
                prop_assert!(
                    (solution.objective() - best).abs() <= 1e-7,
                    "simplex {} vs vertex oracle {best}: {model:?}",
                    solution.objective()
                );
                prop_assert!(model.is_feasible(solution.values()), "infeasible answer: {model:?}");
            }
            SolverStatus::Infeasible => {
                prop_assert!(oracle.is_none(), "simplex infeasible, oracle {oracle:?}: {model:?}");
            }
            status => {
                return Err(TestCaseError::fail(format!("boxed LP reported {status:?}: {model:?}")));
            }
        }
    }
}
