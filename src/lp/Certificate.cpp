//===- lp/Certificate.cpp - Engine-independent LP answer check ------------===//
//
// See Certificate.h for the conditions checked. Everything here is
// recomputed from the model: reduced costs, row activities, both
// objectives and the Farkas intervals.
//
//===----------------------------------------------------------------------===//

#include "lp/Certificate.h"

#include <algorithm>
#include <cmath>

using namespace modsched;
using namespace modsched::lp;

namespace {

std::string describe(const std::string &What, double Have, double Want) {
  return What + ": " + std::to_string(Have) + " vs " + std::to_string(Want);
}

/// A closed interval of the extended reals, accumulated term by term.
struct Range {
  double Lo = 0.0, Hi = 0.0;
  /// Adds Coeff * [A, B] (either end may be infinite).
  void add(double Coeff, double A, double B) {
    const double P = Coeff * A, Q = Coeff * B;
    Lo += std::min(P, Q);
    Hi += std::max(P, Q);
  }
};

std::optional<std::string> checkOptimal(const Model &M,
                                        const std::vector<double> &Lower,
                                        const std::vector<double> &Upper,
                                        const LpResult &R, double Tol) {
  const int N = M.numVariables(), Rows = M.numConstraints();
  if (static_cast<int>(R.Values.size()) != N)
    return std::string("optimal verdict without primal values");
  if (static_cast<int>(R.Duals.size()) != Rows)
    return std::string("optimal verdict without row duals");
  const std::vector<double> &X = R.Values, &Y = R.Duals;

  // Primal feasibility: bounds, then row activities against the senses.
  for (int J = 0; J < N; ++J) {
    const std::string Var = "variable " + std::to_string(J);
    if (!std::isfinite(X[J]))
      return Var + " has no finite value";
    if (X[J] < Lower[J] - Tol * (1 + std::abs(Lower[J])))
      return describe(Var + " below its lower bound", X[J], Lower[J]);
    if (X[J] > Upper[J] + Tol * (1 + std::abs(Upper[J])))
      return describe(Var + " above its upper bound", X[J], Upper[J]);
  }
  for (int I = 0; I < Rows; ++I) {
    const Constraint &C = M.constraint(I);
    double Activity = 0.0;
    for (const Term &T : C.Terms)
      Activity += T.second * X[T.first];
    const double Slop = Tol * (1 + std::abs(C.Rhs));
    if ((C.Sense != ConstraintSense::GE && Activity > C.Rhs + Slop) ||
        (C.Sense != ConstraintSense::LE && Activity < C.Rhs - Slop))
      return describe("row " + std::to_string(I) + " violated", Activity,
                      C.Rhs);
  }
  double PrimalObj = M.evaluateObjective(X);
  if (std::abs(R.Objective - PrimalObj) > Tol * (1 + std::abs(PrimalObj)))
    return describe("reported objective is not c'x", R.Objective,
                    PrimalObj);

  // Dual feasibility: row-dual signs, then reduced costs d = c - A'y
  // against the bounds they point at.
  double DualObj = 0.0;
  std::vector<double> D(N);
  for (int J = 0; J < N; ++J)
    D[J] = M.variable(J).Objective;
  for (int I = 0; I < Rows; ++I) {
    const Constraint &C = M.constraint(I);
    if ((C.Sense == ConstraintSense::LE && Y[I] > Tol) ||
        (C.Sense == ConstraintSense::GE && Y[I] < -Tol))
      return describe("dual of row " + std::to_string(I) +
                          " has the wrong sign for its sense",
                      Y[I], 0.0);
    for (const Term &T : C.Terms)
      D[T.first] -= Y[I] * T.second;
    DualObj += Y[I] * C.Rhs;
  }
  for (int J = 0; J < N; ++J) {
    double Bound = X[J]; // |d_j| within Tol: counts as zero.
    if (D[J] > Tol)
      Bound = Lower[J];
    else if (D[J] < -Tol)
      Bound = Upper[J];
    if (!std::isfinite(Bound))
      return describe("reduced cost of variable " + std::to_string(J) +
                          " points at an infinite bound",
                      D[J], Bound);
    DualObj += D[J] * Bound;
  }

  // Weak duality closes the argument once the gap vanishes.
  if (std::abs(PrimalObj - DualObj) > Tol * (1 + std::abs(PrimalObj)))
    return describe("duality gap open, primal vs dual objective",
                    PrimalObj, DualObj);
  return std::nullopt;
}

std::optional<std::string> checkInfeasible(const Model &M,
                                           const std::vector<double> &Lower,
                                           const std::vector<double> &Upper,
                                           const LpResult &R, double Tol) {
  const int N = M.numVariables(), Rows = M.numConstraints();
  for (int J = 0; J < N; ++J)
    if (Lower[J] > Upper[J])
      return std::nullopt; // The empty box is its own certificate.
  if (static_cast<int>(R.Duals.size()) != Rows)
    return std::string("infeasible verdict without a Farkas ray");
  double Scale = 0.0;
  for (double V : R.Duals)
    Scale = std::max(Scale, std::abs(V));
  if (Scale == 0.0)
    return std::string("Farkas ray is zero");

  // Normalized ray y; G = y'A and the range of sum_i y_i r_i.
  std::vector<double> G(N, 0.0);
  Range Rhs;
  for (int I = 0; I < Rows; ++I) {
    const double Yi = R.Duals[I] / Scale;
    if (Yi == 0.0)
      continue;
    const Constraint &C = M.constraint(I);
    for (const Term &T : C.Terms)
      G[T.first] += Yi * T.second;
    const double RowLo =
        C.Sense == ConstraintSense::LE ? -infinity() : C.Rhs;
    const double RowHi = C.Sense == ConstraintSense::GE ? infinity() : C.Rhs;
    Rhs.add(Yi, RowLo, RowHi);
  }
  // Range of (y'A)x over the box; coefficients at rounding-noise level
  // count as zero so they cannot stretch the range to infinity.
  Range Lhs;
  for (int J = 0; J < N; ++J)
    if (std::abs(G[J]) > Tol * 1e-3)
      Lhs.add(G[J], Lower[J], Upper[J]);

  // Disjoint by more than the tolerance on one side or the other.
  if (Lhs.Hi < Rhs.Lo - Tol * (1 + std::abs(Rhs.Lo)) ||
      Rhs.Hi < Lhs.Lo - Tol * (1 + std::abs(Rhs.Hi)))
    return std::nullopt;
  return "Farkas ray does not separate: y'Ax ranges over [" +
         std::to_string(Lhs.Lo) + ", " + std::to_string(Lhs.Hi) +
         "], y'r over [" + std::to_string(Rhs.Lo) + ", " +
         std::to_string(Rhs.Hi) + "]";
}

} // namespace

std::optional<std::string>
lp::checkLpCertificate(const Model &M, const std::vector<double> &Lower,
                       const std::vector<double> &Upper, const LpResult &R,
                       double Tol) {
  switch (R.Status) {
  case LpStatus::Optimal:
    return checkOptimal(M, Lower, Upper, R, Tol);
  case LpStatus::Infeasible:
    return checkInfeasible(M, Lower, Upper, R, Tol);
  case LpStatus::Unbounded:
  case LpStatus::IterationLimit:
    break;
  }
  return std::string("status '") + toString(R.Status) +
         "' carries no certificate";
}
