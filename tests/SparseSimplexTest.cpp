//===- tests/SparseSimplexTest.cpp - LP engine and certificate tests -----===//
//
// Tests of the LP engine (lp/SparseRevisedSimplex.h behind
// lp/Simplex.h) against an oracle that trusts no engine: every verdict
// on random bounded LPs, on warm-started branch-and-bound chains and on
// every Formulation-built scheduling relaxation must pass the
// certificate check of lp/Certificate.h (primal and dual feasibility
// plus a closed duality gap, or a separating Farkas ray), and tampered
// certificates must be rejected. Also unit-tests the sparse
// linear-algebra substrate (SparseMatrix compilation caching, LU
// factorization, eta updates, FTRAN/BTRAN at scheduler-sized
// dimensions) and the anti-cycling Bland fallback on Beale's cycling
// LP.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/Formulation.h"
#include "lp/Certificate.h"
#include "lp/LuFactor.h"
#include "lp/Model.h"
#include "lp/Simplex.h"
#include "lp/SolveContext.h"
#include "lp/SparseMatrix.h"
#include "machine/MachineModel.h"
#include "sched/Mii.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace modsched;
using namespace modsched::lp;

namespace {

/// A solver that exports the certificate of every verdict.
SimplexSolver certifyingSolver() {
  SimplexOptions Opts;
  Opts.CollectCertificate = true;
  return SimplexSolver(Opts);
}

/// Builds a random bounded LP; roughly half the instances are
/// 0-1-structured like the paper's formulations (the same generator
/// shape as tests/SimplexWarmStartTest.cpp).
Model randomModel(Rng &R) {
  Model M;
  int NumVars = static_cast<int>(R.nextInRange(3, 12));
  bool ZeroOne = R.nextBool(0.5);
  bool Anchored = R.nextBool(0.7);
  std::vector<double> Anchor;
  for (int V = 0; V < NumVars; ++V) {
    double Lo, Up;
    if (ZeroOne) {
      Lo = 0.0;
      Up = 1.0;
    } else {
      Lo = static_cast<double>(R.nextInRange(-5, 3));
      Up = Lo + static_cast<double>(R.nextInRange(0, 9));
    }
    double Obj = static_cast<double>(R.nextInRange(-5, 5));
    M.addVariable("x" + std::to_string(V), Lo, Up, Obj);
    Anchor.push_back(static_cast<double>(
        R.nextInRange(static_cast<int64_t>(Lo), static_cast<int64_t>(Up))));
  }
  int NumCons = static_cast<int>(R.nextInRange(2, 10));
  for (int C = 0; C < NumCons; ++C) {
    std::vector<Term> Terms;
    int NumTerms = static_cast<int>(R.nextInRange(1, std::min(NumVars, 6)));
    for (int T = 0; T < NumTerms; ++T) {
      int Var = static_cast<int>(R.nextBelow(NumVars));
      double Coeff = ZeroOne ? (R.nextBool(0.5) ? 1.0 : -1.0)
                             : static_cast<double>(R.nextInRange(-3, 3));
      if (Coeff != 0.0)
        Terms.push_back({Var, Coeff});
    }
    if (Terms.empty())
      continue;
    ConstraintSense Sense =
        C % 3 == 0 ? ConstraintSense::LE
                   : (C % 3 == 1 ? ConstraintSense::GE : ConstraintSense::EQ);
    double Rhs;
    if (Anchored) {
      double Activity = 0.0;
      for (const Term &T : Terms)
        Activity += T.second * Anchor[T.first];
      double Slack = static_cast<double>(R.nextInRange(0, 4));
      Rhs = Sense == ConstraintSense::LE   ? Activity + Slack
            : Sense == ConstraintSense::GE ? Activity - Slack
                                           : Activity;
    } else {
      Rhs = static_cast<double>(Sense == ConstraintSense::EQ
                                    ? R.nextInRange(-2, 2)
                                    : R.nextInRange(-6, 8));
    }
    M.addConstraint(std::move(Terms), Sense, Rhs);
  }
  return M;
}

/// Asserts that \p R, a solve of \p M under \p Lower / \p Upper, passes
/// the certificate check.
void expectCertified(const Model &M, const std::vector<double> &Lower,
                     const std::vector<double> &Upper, const LpResult &R,
                     const std::string &What) {
  std::optional<std::string> Why = checkLpCertificate(M, Lower, Upper, R);
  EXPECT_FALSE(Why.has_value())
      << What << " (" << toString(R.Status) << "): " << Why.value_or("")
      << "\n"
      << M.toString();
}

/// Solves \p M under its own bounds with certificate export, checks the
/// certificate, and returns the result.
LpResult solveCertified(const Model &M, const std::string &What) {
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  LpResult R = certifyingSolver().solve(M, Lower, Upper);
  expectCertified(M, Lower, Upper, R, What);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// SparseMatrix: compilation, hygiene, and revision-keyed caching
//===----------------------------------------------------------------------===//

TEST(SparseMatrix, CompileMirrorsCanonicalModel) {
  // Model hygiene: duplicated terms merge and zero coefficients drop on
  // addConstraint, so the compiled CSC/CSR must mirror the canonical
  // constraint data exactly — the engine and the certificate checker
  // read the same coefficients or every check below is meaningless.
  Model M;
  int X = M.addVariable("x", 0, 10);
  int Y = M.addVariable("y", 0, 10);
  int Z = M.addVariable("z", 0, 10);
  M.addConstraint({{X, 1.0}, {X, 2.0}, {Y, 0.5}, {Y, -0.5}, {Z, 4.0}},
                  ConstraintSense::LE, 5.0); // => 3x + 4z <= 5
  M.addConstraint({{Y, -1.0}, {Z, 0.0}}, ConstraintSense::GE, -2.0);
  // => -y >= -2

  SparseMatrix A;
  A.compile(M);
  ASSERT_EQ(A.NumRows, 2);
  ASSERT_EQ(A.NumCols, 3);
  ASSERT_EQ(A.numNonzeros(), 3);

  // CSC: column x holds {row 0: 3}, y holds {row 1: -1}, z {row 0: 4}.
  ASSERT_EQ(A.ColStart[X + 1] - A.ColStart[X], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[X]], 0);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[X]], 3.0);
  ASSERT_EQ(A.ColStart[Y + 1] - A.ColStart[Y], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[Y]], 1);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[Y]], -1.0);
  ASSERT_EQ(A.ColStart[Z + 1] - A.ColStart[Z], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[Z]], 0);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[Z]], 4.0);

  // CSR row 0 must list exactly the canonical terms of constraint 0.
  const Constraint &C0 = M.constraint(0);
  ASSERT_EQ(A.RowStart[1] - A.RowStart[0],
            static_cast<int>(C0.Terms.size()));
  for (int P = A.RowStart[0]; P < A.RowStart[1]; ++P) {
    const Term &T = C0.Terms[P - A.RowStart[0]];
    EXPECT_EQ(A.ColIndex[P], T.first);
    EXPECT_DOUBLE_EQ(A.RValue[P], T.second);
  }
}

TEST(SparseMatrix, CacheKeyedOnModelRevision) {
  Model M;
  int X = M.addVariable("x", 0, 1);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 1.0);
  SparseMatrix A;
  EXPECT_FALSE(A.matches(M));
  A.compile(M);
  EXPECT_TRUE(A.matches(M));
  // Out-of-band bound arrays (the branch-and-bound pattern) do not
  // mutate the model, so the compiled matrix stays valid; a structural
  // mutation bumps the revision and invalidates it.
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, 0.0);
  EXPECT_FALSE(A.matches(M));
  A.compile(M);
  EXPECT_TRUE(A.matches(M));
}

//===----------------------------------------------------------------------===//
// LuFactor: factorization, solves, eta updates
//===----------------------------------------------------------------------===//

namespace {

/// CSC triplet helper for tiny LU tests.
struct TinyBasis {
  int Dim;
  std::vector<int> ColStart, Rows;
  std::vector<double> Vals;
};

TinyBasis tinyBasis(int Dim,
                    const std::vector<std::vector<std::pair<int, double>>>
                        &Cols) {
  TinyBasis B;
  B.Dim = Dim;
  B.ColStart.push_back(0);
  for (const auto &Col : Cols) {
    for (const auto &[Row, V] : Col) {
      B.Rows.push_back(Row);
      B.Vals.push_back(V);
    }
    B.ColStart.push_back(static_cast<int>(B.Rows.size()));
  }
  return B;
}

} // namespace

TEST(LuFactor, FtranBtranRoundTrip) {
  // B = [[2,1,0],[0,1,0],[1,0,3]] (columns in basis-position order).
  TinyBasis B = tinyBasis(
      3, {{{0, 2.0}, {2, 1.0}}, {{0, 1.0}, {1, 1.0}}, {{2, 3.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(B.Dim, B.ColStart, B.Rows, B.Vals, 1e-10));
  EXPECT_TRUE(Lu.valid());

  // FTRAN: solve B x = e0 + e2; exact solution by hand:
  //   2x0 + x1 = 1; x1 = 0; x0 + 3x2 = 1 => x = (1/2, 0, 1/6).
  ScatteredVector X;
  X.resize(3);
  X.set(0, 1.0);
  X.set(2, 1.0);
  Lu.ftran(X);
  EXPECT_NEAR(X.Val[0], 0.5, 1e-12);
  EXPECT_NEAR(X.Val[1], 0.0, 1e-12);
  EXPECT_NEAR(X.Val[2], 1.0 / 6.0, 1e-12);

  // BTRAN: solve B^T y = e1 (basis position 1):
  //   col 1 of B is (1,1,0) => y0*1 + y1*1 = 1 with y from
  //   B^T y = e1: 2y0 + 0 + y2 = 0; y0 + y1 = 1; 3y2 = 0
  //   => y2 = 0, y0 = 0, y1 = 1.
  ScatteredVector Y;
  Y.resize(3);
  Y.set(1, 1.0);
  Lu.btran(Y);
  EXPECT_NEAR(Y.Val[0], 0.0, 1e-12);
  EXPECT_NEAR(Y.Val[1], 1.0, 1e-12);
  EXPECT_NEAR(Y.Val[2], 0.0, 1e-12);
}

TEST(LuFactor, DetectsSingularBasis) {
  // Two identical columns: structurally nonsingular, numerically rank 1.
  TinyBasis B = tinyBasis(2, {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}});
  LuFactor Lu;
  EXPECT_FALSE(Lu.factor(B.Dim, B.ColStart, B.Rows, B.Vals, 1e-10));
  EXPECT_FALSE(Lu.valid());
}

TEST(LuFactor, EtaUpdateMatchesRefactorization) {
  // Start from B0 = I (3x3), replace position 1 with column (1, 2, 1):
  // B1 = [[1,1,0],[0,2,0],[0,1,1]]. An FTRAN through the eta file must
  // equal the FTRAN of a fresh factorization of B1.
  TinyBasis I3 = tinyBasis(3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(I3.Dim, I3.ColStart, I3.Rows, I3.Vals, 1e-10));

  // W = B0^-1 * a = a for B0 = I.
  ScatteredVector W;
  W.resize(3);
  W.set(0, 1.0);
  W.set(1, 2.0);
  W.set(2, 1.0);
  ASSERT_TRUE(Lu.update(1, W, 1e-10));
  EXPECT_EQ(Lu.etaCount(), 1);

  ScatteredVector X;
  X.resize(3);
  X.set(0, 3.0);
  X.set(1, 4.0);
  X.set(2, 5.0);
  Lu.ftran(X);

  TinyBasis B1 = tinyBasis(
      3, {{{0, 1.0}}, {{0, 1.0}, {1, 2.0}, {2, 1.0}}, {{2, 1.0}}});
  LuFactor Fresh;
  ASSERT_TRUE(Fresh.factor(B1.Dim, B1.ColStart, B1.Rows, B1.Vals, 1e-10));
  ScatteredVector X2;
  X2.resize(3);
  X2.set(0, 3.0);
  X2.set(1, 4.0);
  X2.set(2, 5.0);
  Fresh.ftran(X2);

  for (int K = 0; K < 3; ++K)
    EXPECT_NEAR(X.Val[K], X2.Val[K], 1e-12) << "position " << K;

  // And the BTRAN images must agree too.
  ScatteredVector Y, Y2;
  Y.resize(3);
  Y2.resize(3);
  Y.set(1, 1.0);
  Y2.set(1, 1.0);
  Lu.btran(Y);
  Fresh.btran(Y2);
  for (int K = 0; K < 3; ++K)
    EXPECT_NEAR(Y.Val[K], Y2.Val[K], 1e-12) << "row " << K;
}

TEST(LuFactor, RejectsZeroPivotEta) {
  TinyBasis I2 = tinyBasis(2, {{{0, 1.0}}, {{1, 1.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(I2.Dim, I2.ColStart, I2.Rows, I2.Vals, 1e-10));
  ScatteredVector W;
  W.resize(2);
  W.set(0, 1.0); // W[1] == 0: pivot for position 1 unacceptable.
  EXPECT_FALSE(Lu.update(1, W, 1e-10));
  EXPECT_EQ(Lu.etaCount(), 0); // Factorization left unchanged.
}

namespace {

/// Explicit sparse basis for checking LU solves: column Pos holds the
/// (constraint row, value) entries of basis position Pos.
using ExplicitBasis = std::vector<std::vector<std::pair<int, double>>>;

/// A random column of ~6 entries of +-1 with a nonzero at \p Home, or
/// (one time in three) a signed unit slack column e_Home.
std::vector<std::pair<int, double>> randomColumn(Rng &R, int Dim, int Home) {
  std::vector<std::pair<int, double>> Col;
  auto Sign = [&] { return R.nextBool(0.5) ? 1.0 : -1.0; };
  Col.push_back({Home, Sign()});
  if (R.nextBool(1.0 / 3.0))
    return Col;
  for (int K = 0; K < 5; ++K) {
    const int Row = static_cast<int>(R.nextBelow(Dim));
    bool Seen = false;
    for (const auto &[Existing, V] : Col)
      Seen |= Existing == Row;
    if (!Seen)
      Col.push_back({Row, Sign()});
  }
  return Col;
}

/// ||B x - b||_inf: \p X by basis position, \p B by constraint row.
double ftranResidual(const ExplicitBasis &B, const ScatteredVector &X,
                     const std::vector<double> &Rhs) {
  std::vector<double> Bx(Rhs.size(), 0.0);
  for (size_t Pos = 0; Pos < B.size(); ++Pos)
    for (const auto &[Row, V] : B[Pos])
      Bx[Row] += V * X.Val[Pos];
  double Worst = 0.0;
  for (size_t Row = 0; Row < Rhs.size(); ++Row)
    Worst = std::max(Worst, std::abs(Bx[Row] - Rhs[Row]));
  return Worst;
}

/// ||B^T y - c||_inf: \p Y by constraint row, \p C by basis position.
double btranResidual(const ExplicitBasis &B, const ScatteredVector &Y,
                     const std::vector<double> &C) {
  double Worst = 0.0;
  for (size_t Pos = 0; Pos < B.size(); ++Pos) {
    double Dot = 0.0;
    for (const auto &[Row, V] : B[Pos])
      Dot += V * Y.Val[Row];
    Worst = std::max(Worst, std::abs(Dot - C[Pos]));
  }
  return Worst;
}

} // namespace

TEST(LuFactor, SchedulerSizedSolvesThroughEtaUpdates) {
  // Bases of the dimensions the scheduling LPs produce (50-400 rows),
  // factored and then updated through a full eta file (the default
  // SimplexOptions::RefactorEtaLimit), checking every FTRAN and BTRAN
  // against the explicitly assembled current basis, for a singleton
  // and a dense right-hand side. Budgeted by counts only.
  constexpr int EtaLimit = 64;
  constexpr double Tol = 1e-9;
  for (int Dim : {50, 137, 263, 400}) {
    Rng R(0x5eed0000u + static_cast<uint64_t>(Dim));
    // Each row is some column's home, so no row is empty.
    std::vector<int> Home(Dim);
    for (int I = 0; I < Dim; ++I)
      Home[I] = I;
    for (int I = Dim - 1; I > 0; --I)
      std::swap(Home[I], Home[R.nextBelow(I + 1)]);
    ExplicitBasis B(Dim);
    std::vector<int> ColStart{0}, Rows;
    std::vector<double> Vals;
    for (int Pos = 0; Pos < Dim; ++Pos) {
      B[Pos] = randomColumn(R, Dim, Home[Pos]);
      for (const auto &[Row, V] : B[Pos]) {
        Rows.push_back(Row);
        Vals.push_back(V);
      }
      ColStart.push_back(static_cast<int>(Rows.size()));
    }
    LuFactor Lu;
    ASSERT_TRUE(Lu.factor(Dim, ColStart, Rows, Vals, 1e-10))
        << "singular basis drawn at Dim " << Dim;

    ScatteredVector X;
    X.resize(Dim);
    std::vector<double> Rhs(Dim);
    auto LoadRhs = [&] {
      X.clear();
      for (int I = 0; I < Dim; ++I)
        if (Rhs[I] != 0.0)
          X.set(I, Rhs[I]);
    };
    auto CheckSolves = [&](int Updates) {
      for (bool Dense : {false, true}) {
        std::fill(Rhs.begin(), Rhs.end(), 0.0);
        if (Dense)
          for (double &V : Rhs)
            V = 2.0 * R.nextDouble() - 1.0;
        else
          Rhs[R.nextBelow(Dim)] = 1.0;
        LoadRhs();
        Lu.ftran(X);
        EXPECT_LE(ftranResidual(B, X, Rhs), Tol)
            << "FTRAN Dim " << Dim << " etas " << Updates << " dense "
            << Dense;
        LoadRhs();
        Lu.btran(X);
        EXPECT_LE(btranResidual(B, X, Rhs), Tol)
            << "BTRAN Dim " << Dim << " etas " << Updates << " dense "
            << Dense;
      }
    };

    CheckSolves(0);
    ScatteredVector W;
    W.resize(Dim);
    for (int U = 1; U <= EtaLimit; ++U) {
      // Entering column a; W = B^-1 a. Leave at a position whose W
      // entry is within a factor 2 of the largest, as a stable ratio
      // test would.
      std::vector<std::pair<int, double>> Enter =
          randomColumn(R, Dim, static_cast<int>(R.nextBelow(Dim)));
      W.clear();
      for (const auto &[Row, V] : Enter)
        W.set(Row, V);
      Lu.ftran(W);
      double MaxAbs = 0.0;
      for (int Pos : W.Idx)
        MaxAbs = std::max(MaxAbs, std::abs(W.Val[Pos]));
      std::vector<int> Eligible;
      for (int Pos : W.Idx)
        if (std::abs(W.Val[Pos]) >= 0.5 * MaxAbs)
          Eligible.push_back(Pos);
      ASSERT_FALSE(Eligible.empty());
      const int Leave = Eligible[R.nextBelow(Eligible.size())];
      ASSERT_TRUE(Lu.update(Leave, W, 1e-10));
      B[Leave] = Enter;
      EXPECT_EQ(Lu.etaCount(), U);
      CheckSolves(U);
    }
  }
}

//===----------------------------------------------------------------------===//
// Certified verdicts: random LPs and warm-start chains
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, RandomLpsPassCertificateCheck) {
  // ~200 random bounded LPs across two independent streams: every
  // verdict must come with a certificate that checks. Exporting it must
  // not change the solve: a default solve takes the same pivots to the
  // same verdict and objective.
  int Optimal = 0, Infeasible = 0;
  for (uint64_t Seed : {uint64_t(20260806), uint64_t(4242)}) {
    Rng R(Seed);
    for (int I = 0; I < 100; ++I) {
      Model M = randomModel(R);
      const std::string What =
          "seed " + std::to_string(Seed) + " model " + std::to_string(I);
      LpResult S = solveCertified(M, What);
      LpResult Plain = SimplexSolver().solve(M);
      EXPECT_EQ(Plain.Status, S.Status) << What;
      EXPECT_EQ(Plain.Iterations, S.Iterations) << What;
      EXPECT_TRUE(Plain.Duals.empty()) << What;
      if (S.Status == LpStatus::Optimal) {
        ++Optimal;
        EXPECT_EQ(Plain.Objective, S.Objective) << What;
      } else if (S.Status == LpStatus::Infeasible) {
        ++Infeasible;
      }
    }
  }
  // The generator must exercise both verdicts for the check to mean
  // anything.
  EXPECT_GE(Optimal, 100);
  EXPECT_GE(Infeasible, 10);
}

TEST(SparseSimplex, WarmStartChainsPassCertificateCheck) {
  // The branch-and-bound resolve pattern: parent solve, then chains of
  // bound tightenings warm-started from the parent basis. Each child's
  // certificate must check under its tightened bounds, and its verdict
  // must match a cold solve.
  Rng R(777);
  int Children = 0, WarmStarted = 0, WarmInfeasible = 0;
  for (int I = 0; I < 40; ++I) {
    Model M = randomModel(R);
    SolveContext Ctx;
    SimplexSolver Solver = certifyingSolver();
    std::vector<double> Lower, Upper;
    M.getBounds(Lower, Upper);
    LpResult Parent = Solver.solve(M, Lower, Upper, &Ctx);
    if (Parent.Status != LpStatus::Optimal || Parent.FinalBasis.empty())
      continue;
    Basis B = Parent.FinalBasis;
    std::vector<double> X = Parent.Values;
    for (int Level = 0; Level < 3; ++Level) {
      // Tighten one variable branch-style around its LP value.
      int Var = -1;
      for (int V = 0; V < M.numVariables(); ++V) {
        double F = std::floor(X[V]);
        if (F < Upper[V] && F >= Lower[V]) {
          Var = V;
          Upper[V] = F;
          break;
        }
      }
      if (Var < 0)
        break;
      ++Children;
      const std::string What = "model " + std::to_string(I) + " level " +
                               std::to_string(Level);
      LpResult WarmChild = Solver.solve(M, Lower, Upper, &Ctx, &B);
      expectCertified(M, Lower, Upper, WarmChild, "warm child, " + What);
      LpResult ColdChild = SimplexSolver().solve(M, Lower, Upper);
      ASSERT_EQ(WarmChild.Status, ColdChild.Status)
          << "warm vs cold disagree at " << What << "\n"
          << M.toString();
      if (WarmChild.WarmStarted)
        ++WarmStarted;
      if (WarmChild.Status != LpStatus::Optimal) {
        WarmInfeasible += WarmChild.WarmStarted &&
                          WarmChild.Status == LpStatus::Infeasible;
        break;
      }
      EXPECT_NEAR(WarmChild.Objective, ColdChild.Objective, 1e-6)
          << M.toString();
      if (WarmChild.FinalBasis.empty())
        break;
      B = WarmChild.FinalBasis;
      X = WarmChild.Values;
    }
  }
  EXPECT_GE(Children, 30) << "generator produced too few children";
  EXPECT_GE(WarmStarted, Children / 2)
      << "warm starts fell back to cold too often";
  // The dual simplex's Farkas ray must be among the rays checked.
  EXPECT_GE(WarmInfeasible, 1) << "no warm child ended infeasible";
}

TEST(SparseSimplex, TamperedCertificatesAreRejected) {
  // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18: optimum
  // (x, y) = (2, 6) with duals (0, -1.5, -1).
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  LpResult R = solveCertified(M, "textbook LP");
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  ASSERT_EQ(R.Duals.size(), 3u);
  EXPECT_NEAR(R.Duals[0], 0.0, 1e-9);
  EXPECT_NEAR(R.Duals[1], -1.5, 1e-9);
  EXPECT_NEAR(R.Duals[2], -1.0, 1e-9);

  // A perturbed dual leaves every sign intact but opens the gap.
  LpResult BadDual = R;
  BadDual.Duals[2] -= 0.1;
  EXPECT_TRUE(checkLpCertificate(M, Lower, Upper, BadDual).has_value());

  // A feasible but suboptimal primal point, reported consistently.
  LpResult BadPrimal = R;
  BadPrimal.Values[X] -= 0.1;
  BadPrimal.Objective = M.evaluateObjective(BadPrimal.Values);
  EXPECT_TRUE(checkLpCertificate(M, Lower, Upper, BadPrimal).has_value());

  // Breaking a row or a bound whose dual is zero keeps the gap closed:
  // only the primal checks can catch it.
  Model Slack;
  int U = Slack.addVariable("u", 0, 10, 1.0);
  int V = Slack.addVariable("v", 0, 10);
  Slack.addConstraint({{U, 1.0}}, ConstraintSense::GE, 1.0);
  Slack.addConstraint({{V, 1.0}}, ConstraintSense::LE, 2.0);
  Slack.getBounds(Lower, Upper);
  LpResult Loose = solveCertified(Slack, "zero-dual row");
  ASSERT_EQ(Loose.Status, LpStatus::Optimal);
  for (double BadV : {3.0, -1.0}) {
    LpResult BadPoint = Loose;
    BadPoint.Values[V] = BadV;
    EXPECT_TRUE(checkLpCertificate(Slack, Lower, Upper, BadPoint).has_value())
        << "v = " << BadV;
  }

  // x + y >= 4 against x <= 1, y <= 1: the ray needs all three rows, so
  // dropping any one of its multipliers breaks it.
  Model Inf;
  int A = Inf.addVariable("a", 0, 10);
  int B = Inf.addVariable("b", 0, 10);
  Inf.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::GE, 4.0);
  Inf.addConstraint({{A, 1.0}}, ConstraintSense::LE, 1.0);
  Inf.addConstraint({{B, 1.0}}, ConstraintSense::LE, 1.0);
  Inf.getBounds(Lower, Upper);
  LpResult Ray = solveCertified(Inf, "three-row conflict");
  ASSERT_EQ(Ray.Status, LpStatus::Infeasible);
  ASSERT_EQ(Ray.Duals.size(), 3u);
  for (int Row = 0; Row < 3; ++Row) {
    LpResult BadRay = Ray;
    BadRay.Duals[Row] = 0.0;
    EXPECT_TRUE(checkLpCertificate(Inf, Lower, Upper, BadRay).has_value())
        << "ray with row " << Row << " dropped";
  }
}

TEST(SparseSimplex, BealeCyclingLpTerminatesUnderBland) {
  // Beale's classic cycling example: Dantzig pricing cycles forever at
  // the degenerate origin vertex without an anti-cycling guard. Force
  // the Bland fallback almost immediately (DegenerateLimit = 1) and
  // require the true optimum -1/20.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -0.75);
  int Y = M.addVariable("y", 0, infinity(), 150.0);
  int Z = M.addVariable("z", 0, infinity(), -0.02);
  int W = M.addVariable("w", 0, infinity(), 6.0);
  M.addConstraint({{X, 0.25}, {Y, -60.0}, {Z, -0.04}, {W, 9.0}},
                  ConstraintSense::LE, 0.0);
  M.addConstraint({{X, 0.5}, {Y, -90.0}, {Z, -0.02}, {W, 3.0}},
                  ConstraintSense::LE, 0.0);
  M.addConstraint({{Z, 1.0}}, ConstraintSense::LE, 1.0);

  SimplexOptions Opts;
  Opts.DegenerateLimit = 1; // Switch to Bland's rule at once.
  Opts.MaxIterations = 10000;
  LpResult R = SimplexSolver(Opts).solve(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -0.05, 1e-9);
}

TEST(SparseSimplex, ContextDeadlineObserved) {
  // The engine polls its time budget: an already-expired deadline
  // reports IterationLimit.
  SimplexOptions Opts;
  Opts.TimeLimitSeconds = -1.0;
  Model M;
  int X = M.addVariable("x", 0, infinity(), -1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  EXPECT_EQ(SimplexSolver(Opts).solve(M).Status,
            LpStatus::IterationLimit);
}

TEST(SparseSimplex, ReportsFactorizationTelemetry) {
  // A solve must report at least one LU factorization.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  LpResult R = SimplexSolver().solve(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_GE(R.Refactorizations, 1);
}

//===----------------------------------------------------------------------===//
// Certified verdicts: Formulation-built scheduling models
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, FormulationRelaxationsPassCertificateCheck) {
  // Every kernel's structured and traditional LP relaxation at MII:
  // these are the exact matrices the branch-and-bound nodes solve.
  MachineModel M = MachineModel::cydraLike();
  int Checked = 0;
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii = mii(G, M);
    for (DependenceStyle Dep :
         {DependenceStyle::Structured, DependenceStyle::Traditional}) {
      FormulationOptions FOpts;
      FOpts.Obj = Objective::MinReg;
      FOpts.DepStyle = Dep;
      Formulation F(G, M, Mii, FOpts);
      if (!F.valid())
        continue;
      ++Checked;
      solveCertified(F.model(),
                     G.name() + (Dep == DependenceStyle::Structured
                                     ? " structured"
                                     : " traditional"));
    }
  }
  EXPECT_GE(Checked, 2 * 18) << "kernel library shrank";
}
