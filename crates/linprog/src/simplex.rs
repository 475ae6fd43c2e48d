//! Dense two-phase tableau simplex.
//!
//! The solver first rewrites the user model into standard form
//! `min cᵀx  s.t.  A x = b, x ≥ 0, b ≥ 0` by shifting/splitting bounded
//! variables and adding slack, surplus and artificial columns, then runs the
//! classic two-phase tableau method. Dantzig's rule is used for speed with a
//! switch to Bland's rule after a pivot budget to guarantee termination.
//!
//! The tableau is one flat row-major `Vec<f64>` with stride
//! `total_cols + 1` (the right-hand side closes each row), built in place.
//! Two things keep an iteration cheap on the sparse rows the MINLP node
//! relaxations produce:
//!
//! - reduced costs are accumulated row by row into a reused buffer, and
//!   rows whose basic cost is zero are skipped;
//! - a pivot normalizes the pivot row once, records its nonzero columns and
//!   updates every other row at those columns only.
//!
//! **Bit-identity contract.** Both are reorderings that leave every
//! floating-point operation that produces a nonzero value unchanged: each
//! reduced cost still receives its terms in increasing row order (Rust never
//! fuses a multiply-add), and a skipped pivot-row zero would only have
//! subtracted `factor · 0`, which can change nothing but the sign of a zero
//! that no comparison reads. The right-hand side is always updated, so the
//! solution values keep even the sign of their zeros. Pivot sequences,
//! pivot counts and every value are therefore those of a plain dense
//! tableau, and the branch-and-bound node counts and golden sweep outputs
//! built on them do not move; unit tests pin them bit for bit.

use crate::model::{LpProblem, Relation, Sense};
use crate::solution::{LpSolution, SolverStatus};
use crate::LpError;

const EPS: f64 = 1e-9;
/// Pivot budget after which the solver switches to Bland's rule.
const DANTZIG_PIVOTS: usize = 5_000;
/// Default hard pivot limit (both phases combined).
const MAX_PIVOTS: usize = 50_000;

/// Options controlling the simplex solver.
///
/// # Example
///
/// ```
/// use mfa_linprog::{LpProblem, Sense, SimplexOptions};
///
/// # fn main() -> Result<(), mfa_linprog::LpError> {
/// let mut lp = LpProblem::new(Sense::Minimize);
/// let x = lp.add_var("x", 0.0, 1.0)?;
/// lp.set_objective_coefficient(x, 1.0)?;
/// let solution = lp.solve_with(&SimplexOptions::default())?;
/// assert!(solution.is_optimal());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplexOptions {
    /// Hard pivot budget, phase 1 and phase 2 combined. When the budget is
    /// exhausted the solve stops with [`LpError::PivotBudgetExceeded`]
    /// (`crate::LpError::PivotBudgetExceeded`) rather than iterating further
    /// — a structured stop, never a hang. The default (50 000) is far above
    /// any well-posed model in this workspace; lower it to bound the cost of
    /// feasibility probes on potentially degenerate models.
    pub max_pivots: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_pivots: MAX_PIVOTS,
        }
    }
}

impl SimplexOptions {
    /// Default options with the given pivot budget.
    pub fn with_max_pivots(max_pivots: usize) -> Self {
        SimplexOptions { max_pivots }
    }
}

/// How a user variable was mapped into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + column`, optional upper-bound row added separately.
    Shifted { col: usize, lower: f64 },
    /// `x = upper − column` (used when only an upper bound is finite).
    Reflected { col: usize, upper: f64 },
    /// `x = plus − minus` (free variable).
    Split { plus: usize, minus: usize },
}

/// A single standard-form row `Σ a_j x_j (≤,≥,=) rhs` with `rhs ≥ 0` ensured
/// later during tableau construction.
#[derive(Debug, Clone)]
struct StdRow {
    coeffs: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

/// Standard-form representation of a user problem.
#[derive(Debug)]
struct StandardForm {
    /// Number of structural (non-slack) columns.
    num_cols: usize,
    /// Objective coefficients for structural columns (minimization).
    costs: Vec<f64>,
    rows: Vec<StdRow>,
    var_map: Vec<VarMap>,
}

fn build_standard_form(problem: &LpProblem) -> StandardForm {
    let sign = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut var_map = Vec::with_capacity(problem.vars.len());
    let mut costs: Vec<f64> = Vec::new();
    let mut extra_rows: Vec<StdRow> = Vec::new();

    for v in &problem.vars {
        let c = sign * v.objective;
        if v.lower.is_finite() {
            let col = costs.len();
            costs.push(c);
            var_map.push(VarMap::Shifted {
                col,
                lower: v.lower,
            });
            if v.upper.is_finite() {
                extra_rows.push(StdRow {
                    coeffs: vec![(col, 1.0)],
                    relation: Relation::LessEq,
                    rhs: v.upper - v.lower,
                });
            }
        } else if v.upper.is_finite() {
            // Only an upper bound: reflect so the new column is nonnegative.
            let col = costs.len();
            costs.push(-c);
            var_map.push(VarMap::Reflected {
                col,
                upper: v.upper,
            });
        } else {
            let plus = costs.len();
            costs.push(c);
            let minus = costs.len();
            costs.push(-c);
            var_map.push(VarMap::Split { plus, minus });
        }
    }

    let mut rows: Vec<StdRow> = Vec::with_capacity(problem.constraints.len() + extra_rows.len());
    for c in &problem.constraints {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
        let mut rhs = c.rhs;
        for &(j, a) in &c.terms {
            match var_map[j] {
                VarMap::Shifted { col, lower } => {
                    rhs -= a * lower;
                    push_coeff(&mut coeffs, col, a);
                }
                VarMap::Reflected { col, upper } => {
                    rhs -= a * upper;
                    push_coeff(&mut coeffs, col, -a);
                }
                VarMap::Split { plus, minus } => {
                    push_coeff(&mut coeffs, plus, a);
                    push_coeff(&mut coeffs, minus, -a);
                }
            }
        }
        rows.push(StdRow {
            coeffs,
            relation: c.relation,
            rhs,
        });
    }
    rows.extend(extra_rows);

    StandardForm {
        num_cols: costs.len(),
        costs,
        rows,
        var_map,
    }
}

fn push_coeff(coeffs: &mut Vec<(usize, f64)>, col: usize, a: f64) {
    if a == 0.0 {
        return;
    }
    match coeffs.iter_mut().find(|(j, _)| *j == col) {
        Some((_, existing)) => *existing += a,
        None => coeffs.push((col, a)),
    }
}

/// Orientation of a standard-form row in the tableau: rows with a negative
/// right-hand side are negated (`sign = −1`), which swaps `≤` and `≥`.
fn orient(row: &StdRow) -> (f64, Relation) {
    if row.rhs < 0.0 {
        let relation = match row.relation {
            Relation::LessEq => Relation::GreaterEq,
            Relation::GreaterEq => Relation::LessEq,
            Relation::Equal => Relation::Equal,
        };
        (-1.0, relation)
    } else {
        (1.0, row.relation)
    }
}

/// Dense tableau with an explicit basis, stored flat and row-major.
struct Tableau {
    /// `rows × (total_cols + 1)` entries; the last entry of each row is its
    /// right-hand side.
    data: Vec<f64>,
    /// Basic column index per row.
    basis: Vec<usize>,
    total_cols: usize,
    /// Indices of artificial columns (never allowed to re-enter in phase 2).
    artificial: Vec<bool>,
    pivots: usize,
    /// Hard pivot budget (both phases combined).
    max_pivots: usize,
    /// Reduced costs of the current iteration (reused buffer).
    reduced: Vec<f64>,
    /// Columns of the last pivot row that are updated in the other rows:
    /// its nonzero entries plus the right-hand side (reused buffer).
    pivot_cols: Vec<usize>,
}

impl Tableau {
    fn width(&self) -> usize {
        self.total_cols + 1
    }

    fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.width() + col]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.at(row, self.total_cols)
    }

    /// Pivots on `(row, col)`. Entries of the normalized pivot row that are
    /// exactly zero would only subtract `factor · 0` from the other rows,
    /// which leaves every value unchanged (at most the sign of a zero), so
    /// they are skipped. The right-hand side is always updated: it is what
    /// the solution is read from, and so keeps the dense update's bits.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width();
        let rhs_col = self.total_cols;
        let (before, rest) = self.data.split_at_mut(row * width);
        let (pivot_row, after) = rest.split_at_mut(width);
        let pivot_val = pivot_row[col];
        self.pivot_cols.clear();
        for (j, a) in pivot_row.iter_mut().enumerate() {
            *a /= pivot_val;
            if *a != 0.0 || j == rhs_col {
                self.pivot_cols.push(j);
            }
        }
        for other in before
            .chunks_exact_mut(width)
            .chain(after.chunks_exact_mut(width))
        {
            let factor = other[col];
            if factor.abs() < EPS {
                continue;
            }
            for &j in &self.pivot_cols {
                other[j] -= factor * pivot_row[j];
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Runs the simplex iteration on the current tableau for the given cost
    /// vector (length `total_cols`). Returns `None` if the LP is unbounded.
    fn optimize(&mut self, costs: &[f64], forbid_artificial: bool) -> Result<Option<()>, LpError> {
        loop {
            if self.pivots >= self.max_pivots {
                return Err(LpError::PivotBudgetExceeded {
                    pivots: self.pivots,
                });
            }
            self.update_reduced_costs(costs);
            let use_bland = self.pivots >= DANTZIG_PIVOTS;
            let entering = self.pick_entering(forbid_artificial, use_bland);
            let Some(col) = entering else {
                return Ok(Some(()));
            };
            // Ratio test.
            let mut best_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (r, row) in self.data.chunks_exact(self.width()).enumerate() {
                let a = row[col];
                if a > EPS {
                    let ratio = row[self.total_cols] / a;
                    let better = match best_row {
                        None => true,
                        Some(br) => {
                            ratio < best_ratio - EPS
                                || ((ratio - best_ratio).abs() <= EPS
                                    && self.basis[r] < self.basis[br])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        best_row = Some(r);
                    }
                }
            }
            let Some(row) = best_row else {
                return Ok(None); // unbounded direction
            };
            self.pivot(row, col);
        }
    }

    /// Fills `self.reduced` with `c_j − c_Bᵀ B⁻¹ A_j`. With a full tableau,
    /// `B⁻¹A_j` is just the current column and `c_B` are the costs of the
    /// basic columns. Rows are walked outermost, so every entry still
    /// receives its terms in increasing row order.
    fn update_reduced_costs(&mut self, costs: &[f64]) {
        let width = self.width();
        self.reduced.clear();
        self.reduced.extend_from_slice(costs);
        for (row, &basic) in self.data.chunks_exact(width).zip(&self.basis) {
            let cb = costs[basic];
            if cb == 0.0 {
                continue;
            }
            for (red, &a) in self.reduced.iter_mut().zip(row) {
                *red -= cb * a;
            }
        }
    }

    fn pick_entering(&self, forbid_artificial: bool, use_bland: bool) -> Option<usize> {
        let mut candidates = self
            .reduced
            .iter()
            .enumerate()
            .filter(|&(j, &rc)| !(forbid_artificial && self.artificial[j]) && rc < -EPS);
        if use_bland {
            candidates.next().map(|(j, _)| j)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for (j, &rc) in candidates {
                match best {
                    Some((_, b)) if rc >= b => {}
                    _ => best = Some((j, rc)),
                }
            }
            best.map(|(j, _)| j)
        }
    }
}

/// Solves the problem; the public entry point used by [`LpProblem::solve`]
/// and [`LpProblem::solve_with`].
pub(crate) fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    let std_form = build_standard_form(problem);
    let n = std_form.num_cols;
    let m = std_form.rows.len();

    if m == 0 {
        return solve_unconstrained(problem);
    }

    // Column layout: [structural | slack/surplus | artificial]. Every
    // inequality gets a slack or surplus column; every row that is `≥` or
    // `=` once oriented gets an artificial column.
    let num_slack = std_form
        .rows
        .iter()
        .filter(|row| row.relation != Relation::Equal)
        .count();
    let num_artificial = std_form
        .rows
        .iter()
        .filter(|row| orient(row).1 != Relation::LessEq)
        .count();
    let total_cols = n + num_slack + num_artificial;
    let width = total_cols + 1;

    let mut data = vec![0.0; m * width];
    let mut basis: Vec<usize> = vec![usize::MAX; m];
    let mut artificial = vec![false; total_cols];
    let mut next_slack = n;
    let mut next_artificial = n + num_slack;

    for ((row, dense), basic) in std_form
        .rows
        .iter()
        .zip(data.chunks_exact_mut(width))
        .zip(&mut basis)
    {
        let (sign, relation) = orient(row);
        for &(j, a) in &row.coeffs {
            dense[j] += sign * a;
        }
        dense[total_cols] = sign * row.rhs;
        if relation != Relation::Equal {
            dense[next_slack] = if relation == Relation::LessEq {
                1.0
            } else {
                -1.0
            };
            *basic = next_slack;
            next_slack += 1;
        }
        if relation != Relation::LessEq {
            dense[next_artificial] = 1.0;
            artificial[next_artificial] = true;
            *basic = next_artificial;
            next_artificial += 1;
        }
    }

    let mut tableau = Tableau {
        data,
        basis,
        total_cols,
        artificial,
        pivots: 0,
        max_pivots: options.max_pivots,
        reduced: Vec::with_capacity(total_cols),
        pivot_cols: Vec::with_capacity(width),
    };

    // Phase 1: minimize the sum of artificial variables.
    if num_artificial > 0 {
        let phase1_costs: Vec<f64> = tableau
            .artificial
            .iter()
            .map(|&flag| if flag { 1.0 } else { 0.0 })
            .collect();
        let outcome = tableau.optimize(&phase1_costs, false)?;
        if outcome.is_none() {
            // Phase 1 objective is bounded below by zero, so this cannot
            // happen; treat defensively as infeasible.
            return Ok(LpSolution::new(
                SolverStatus::Infeasible,
                0.0,
                vec![0.0; problem.num_vars()],
                tableau.pivots,
            ));
        }
        let phase1_value: f64 = (0..m)
            .map(|r| {
                if tableau.artificial[tableau.basis[r]] {
                    tableau.rhs(r)
                } else {
                    0.0
                }
            })
            .sum();
        if phase1_value > 1e-7 {
            return Ok(LpSolution::new(
                SolverStatus::Infeasible,
                0.0,
                vec![0.0; problem.num_vars()],
                tableau.pivots,
            ));
        }
        // Drive remaining artificial variables out of the basis when possible.
        for r in 0..m {
            if tableau.artificial[tableau.basis[r]] {
                let col = (0..n + num_slack)
                    .find(|&j| tableau.at(r, j).abs() > 1e-7 && !tableau.artificial[j]);
                if let Some(col) = col {
                    tableau.pivot(r, col);
                }
                // If no pivot column exists the row is redundant; the
                // artificial stays basic at value ~0, which is harmless.
            }
        }
    }

    // Phase 2: original (minimization) costs on structural columns.
    let mut phase2_costs = vec![0.0; total_cols];
    phase2_costs[..n].copy_from_slice(&std_form.costs);
    let outcome = tableau.optimize(&phase2_costs, true)?;
    if outcome.is_none() {
        return Ok(LpSolution::new(
            SolverStatus::Unbounded,
            0.0,
            vec![0.0; problem.num_vars()],
            tableau.pivots,
        ));
    }

    // Read structural column values from the basis.
    let mut col_values = vec![0.0; total_cols];
    for r in 0..m {
        col_values[tableau.basis[r]] = tableau.rhs(r);
    }
    let mut user_values = vec![0.0; problem.num_vars()];
    for (i, vm) in std_form.var_map.iter().enumerate() {
        user_values[i] = match *vm {
            VarMap::Shifted { col, lower } => lower + col_values[col],
            VarMap::Reflected { col, upper } => upper - col_values[col],
            VarMap::Split { plus, minus } => col_values[plus] - col_values[minus],
        };
    }
    let objective = problem
        .objective_value(&user_values)
        .expect("solver produced values for every variable");
    Ok(LpSolution::new(
        SolverStatus::Optimal,
        objective,
        user_values,
        tableau.pivots,
    ))
}

/// Handles the degenerate case of a problem with no constraint rows: each
/// variable independently moves to whichever bound its cost prefers.
fn solve_unconstrained(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let sign = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut values = vec![0.0; problem.num_vars()];
    for (i, v) in problem.vars.iter().enumerate() {
        let c = sign * v.objective;
        let target = if c > 0.0 {
            v.lower
        } else if c < 0.0 {
            v.upper
        } else if v.lower.is_finite() {
            v.lower
        } else if v.upper.is_finite() {
            v.upper
        } else {
            0.0
        };
        if !target.is_finite() && c != 0.0 {
            return Ok(LpSolution::new(
                SolverStatus::Unbounded,
                0.0,
                vec![0.0; problem.num_vars()],
                0,
            ));
        }
        values[i] = if target.is_finite() { target } else { 0.0 };
    }
    let objective = problem.objective_value(&values)?;
    Ok(LpSolution::new(SolverStatus::Optimal, objective, values, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpProblem, Relation, Sense};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 3.0).unwrap();
        lp.set_objective_coefficient(y, 5.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0)], Relation::LessEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(y, 2.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 36.0, 1e-8);
        assert_close(s.value(x), 2.0, 1e-8);
        assert_close(s.value(y), 6.0, 1e-8);
    }

    #[test]
    fn minimization_with_geq_rows_needs_phase_one() {
        // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6, x,y >= 0 — optimum at (3,1): 9.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 2.0).unwrap();
        lp.set_objective_coefficient(y, 3.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::GreaterEq, 6.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 9.0, 1e-8);
        assert_close(s.value(x), 3.0, 1e-8);
        assert_close(s.value(y), 1.0, 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 10.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Equal, 10.0)
            .unwrap();
        lp.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Equal, 2.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 6.0, 1e-8);
        assert_close(s.value(y), 4.0, 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("lo", &[(x, 1.0)], Relation::GreaterEq, 5.0)
            .unwrap();
        lp.add_constraint("hi", &[(x, 1.0)], Relation::LessEq, 3.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.status(), SolverStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.status(), SolverStatus::Unbounded);
    }

    #[test]
    fn respects_variable_upper_bounds() {
        // max x + y with x,y in [0, 2] and x + y <= 3.5 → 3.5.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 2.0).unwrap();
        let y = lp.add_var("y", 0.0, 2.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Relation::LessEq, 3.5)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 3.5, 1e-8);
        assert!(s.value(x) <= 2.0 + 1e-9);
        assert!(s.value(y) <= 2.0 + 1e-9);
    }

    #[test]
    fn handles_nonzero_lower_bounds() {
        // min x + y with x >= 2, y >= 3, x + y >= 7 → 7.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 3.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 7.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 7.0, 1e-8);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn handles_free_variables() {
        // min |style| problem: min x s.t. x >= -5 as a free var with a >= row.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0)], Relation::GreaterEq, -5.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), -5.0, 1e-8);
    }

    #[test]
    fn handles_upper_bounded_only_variable() {
        // max x with x <= 7 (no lower bound) → 7.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 7.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, 1.0)], Relation::LessEq, 100.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 7.0, 1e-8);
    }

    #[test]
    fn no_constraints_moves_to_bounds() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0, 4.0).unwrap();
        let y = lp.add_var("y", -2.0, 2.0).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, -1.0).unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 1.0, 1e-12);
        assert_close(s.value(y), 2.0, 1e-12);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.add_constraint("c", &[(x, -1.0)], Relation::LessEq, -3.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.value(x), 3.0, 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classically degenerate LP; checks anti-cycling protection.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x1 = lp.add_var("x1", 0.0, f64::INFINITY).unwrap();
        let x2 = lp.add_var("x2", 0.0, f64::INFINITY).unwrap();
        let x3 = lp.add_var("x3", 0.0, f64::INFINITY).unwrap();
        let x4 = lp.add_var("x4", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x1, -0.75).unwrap();
        lp.set_objective_coefficient(x2, 150.0).unwrap();
        lp.set_objective_coefficient(x3, -0.02).unwrap();
        lp.set_objective_coefficient(x4, 6.0).unwrap();
        lp.add_constraint(
            "r1",
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint(
            "r2",
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint("r3", &[(x3, 1.0)], Relation::LessEq, 1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), -0.05, 1e-6);
    }

    #[test]
    fn pivot_budget_stops_the_solve_with_a_structured_error() {
        // The textbook maximization needs a handful of pivots; a budget of
        // one cannot finish and must surface as PivotBudgetExceeded.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 3.0).unwrap();
        lp.set_objective_coefficient(y, 5.0).unwrap();
        lp.add_constraint("c1", &[(x, 1.0)], Relation::LessEq, 4.0)
            .unwrap();
        lp.add_constraint("c2", &[(y, 2.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0)
            .unwrap();
        let err = lp
            .solve_with(&SimplexOptions::with_max_pivots(1))
            .unwrap_err();
        assert!(
            matches!(err, LpError::PivotBudgetExceeded { pivots: 1 }),
            "expected PivotBudgetExceeded, got {err}"
        );
        // A sufficient budget solves identically to the default path and
        // reports its pivot count.
        let s = lp.solve_with(&SimplexOptions::default()).unwrap();
        assert!(s.is_optimal());
        assert_close(s.objective(), 36.0, 1e-8);
        assert!(s.pivots() > 1);
        assert_eq!(s.pivots(), s.iterations());
    }

    #[test]
    fn solution_satisfies_original_model() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 10.0).unwrap();
        let y = lp.add_var("y", 1.0, 8.0).unwrap();
        let z = lp.add_var("z", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 2.0).unwrap();
        lp.set_objective_coefficient(z, 1.5).unwrap();
        lp.add_constraint("a", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::LessEq, 12.0)
            .unwrap();
        lp.add_constraint("b", &[(x, 2.0), (z, 1.0)], Relation::LessEq, 9.0)
            .unwrap();
        lp.add_constraint("c", &[(y, 1.0), (z, -1.0)], Relation::GreaterEq, 0.5)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert!(lp.is_feasible(s.values(), 1e-6).unwrap());
        // Bit-level pin: every pivot's arithmetic is part of the contract,
        // so the pivot count and the bits of the objective and values are
        // those the dense nested-row tableau produced.
        assert_eq!(s.pivots(), 2);
        assert_eq!(s.objective().to_bits(), 22.0f64.to_bits());
        let bits: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0.0f64, 8.0, 4.0].map(f64::to_bits));
    }

    #[test]
    fn redundant_equalities_keep_an_artificial_basic() {
        // min x + 3y s.t. x + y = 2, 2x + 2y = 4 (redundant), x + y >= 2.
        // Phase 1 ends with the redundant row's artificial basic at zero
        // and no column to drive it out on, and drives the `≥` row's
        // artificial out by pivoting on its surplus column (element −1).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var("y", 0.0, f64::INFINITY).unwrap();
        lp.set_objective_coefficient(x, 1.0).unwrap();
        lp.set_objective_coefficient(y, 3.0).unwrap();
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Equal, 2.0)
            .unwrap();
        lp.add_constraint("twice", &[(x, 2.0), (y, 2.0)], Relation::Equal, 4.0)
            .unwrap();
        lp.add_constraint("floor", &[(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert!(s.is_optimal());
        assert!(lp.is_feasible(s.values(), 1e-9).unwrap());
        assert_eq!(s.objective().to_bits(), 2.0f64.to_bits());
        assert_eq!(s.value(x).to_bits(), 2.0f64.to_bits());
        assert_eq!(s.value(y).to_bits(), 0.0f64.to_bits());
        // One phase-1 pivot plus the drive-out pivot; phase 2 is optimal.
        assert_eq!(s.pivots(), 2);
    }
}
