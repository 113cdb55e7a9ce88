//===- lp/Simplex.h - Bounded-variable primal simplex ------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LP solver interface: a bounded-variable simplex with two entry
/// points, a two-phase primal simplex for cold solves and a
/// warm-startable dual simplex for re-solves from a known basis after
/// bound changes. It is the LP engine underneath the branch-and-bound
/// MIP solver (src/ilp) that substitutes for the CPLEX solver used in
/// the paper — including CPLEX's defining trick of never cold-starting
/// an LP inside the branch-and-bound tree.
///
/// Implementation notes:
///  * One engine executes every solve: the sparse revised simplex of
///    lp/SparseRevisedSimplex.h (LU-factorized basis, eta updates,
///    partial pricing).
///  * Every constraint row gets a slack variable with bounds encoding the
///    sense (LE: [0, inf), GE: (-inf, 0], EQ: [0, 0]); the system becomes
///    Ax + Is = b.
///  * Warm starts: an optimal solve can export its Basis; a later solve
///    of the same model with tightened bounds (exactly the state after a
///    branch-and-bound bound change) restarts from that basis — which is
///    still dual-feasible — and runs the dual simplex until primal
///    feasibility is restored, typically in a handful of pivots. When the
///    caller also passes a persistent SimplexWorkspace the factorization
///    is reused in place whenever the workspace still holds the
///    requested basis.
///  * Answers are checkable without trusting the engine: under
///    SimplexOptions::CollectCertificate a result carries the row duals
///    (Optimal) or a Farkas ray (Infeasible) that lp/Certificate.h
///    verifies from the model alone.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_SIMPLEX_H
#define MODSCHED_LP_SIMPLEX_H

#include "lp/Model.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace modsched {
namespace lp {

struct SolveContext;        // lp/SolveContext.h
class SparseRevisedSimplex; // lp/SparseRevisedSimplex.h

/// Outcome of an LP solve.
enum class LpStatus {
  Optimal,       ///< Optimal basic solution found.
  Infeasible,    ///< Constraints admit no solution.
  Unbounded,     ///< Objective can decrease without limit.
  IterationLimit ///< Gave up after SimplexOptions::MaxIterations pivots.
};

/// Returns a printable name for \p Status.
const char *toString(LpStatus Status);

/// The LP engine executing a solve. There is one; the enum and the
/// option fields naming it remain so existing callers still compile.
enum class SimplexEngine : uint8_t { SparseRevised };

/// Where a column rests in an exported simplex basis (Basis::ColStatus
/// stores these raw values).
enum class ColState : uint8_t { Basic, AtLower, AtUpper, Free };

/// Tuning knobs for the simplex solver.
struct SimplexOptions {
  /// Hard cap on total pivots (both phases).
  int64_t MaxIterations = 200000;
  /// Wall-clock budget for one solve(), in seconds (checked every few
  /// pivots). Exceeding it reports LpStatus::IterationLimit. Outer time
  /// limits shared across many solves are expressed as the absolute
  /// deadline of the SolveContext instead (the MIP solver tightens its
  /// context's deadline once and every node LP observes it).
  double TimeLimitSeconds = 1e30;
  /// Primal feasibility tolerance.
  double FeasTol = 1e-7;
  /// Reduced-cost optimality tolerance.
  double OptTol = 1e-7;
  /// Smallest acceptable pivot magnitude.
  double PivotTol = 1e-8;
  /// Number of consecutive degenerate pivots before switching to Bland's
  /// rule.
  int DegenerateLimit = 512;
  /// Drift guard for warm starts: after this many pivots since the
  /// workspace's last fresh factorization, the next warm solve
  /// refactorizes the requested basis instead of reusing it in place.
  int64_t WarmRebuildPivots = 4096;
  /// Engine executing the solve; kept so callers that set it compile.
  SimplexEngine Engine = SimplexEngine::SparseRevised;
  /// Refactorize the basis after this many product-form eta updates.
  int RefactorEtaLimit = 64;
  /// Refactorize early when the eta file's nonzeros exceed this
  /// multiple of (rows + LU nonzeros) — the fill guard.
  double RefactorFillFactor = 4.0;
  /// Export the certificate of the verdict: LpResult::Duals on Optimal
  /// and Infeasible exits, plus the Farkas ray's row support in
  /// LpResult::FarkasRows on Infeasible ones. Off by default: the scan
  /// is cheap but not free, and only forensics consumers and tests want
  /// it.
  bool CollectCertificate = false;
};

/// An exported simplex basis: the resting status of every [structural |
/// slack] column plus the basic column of each row. Treat as opaque —
/// the fields are only meaningful to SimplexSolver::solve, and only for
/// re-solves of the same model (same constraints; bounds may differ).
/// Produced by an optimal solve that was given a SimplexWorkspace.
struct Basis {
  /// Per-column resting status (internal encoding), structural columns
  /// first, then one slack per row.
  std::vector<uint8_t> ColStatus;
  /// BasicCols[row] = column index basic in that row.
  std::vector<int> BasicCols;
  /// Workspace stamp identifying the engine state this basis was
  /// extracted from (0 = none); lets a warm solve detect in O(1) that
  /// the workspace already realizes this basis.
  uint64_t Id = 0;

  bool empty() const { return BasicCols.empty(); }
};

/// Persistent scratch state for a sequence of solves: the compiled
/// constraint matrix, the basis factorization, pricing and ratio-test
/// buffers, and the identity of the basis the engine currently
/// realizes. Hoisting one workspace out of the branch-and-bound node
/// loop eliminates per-node reallocation and enables
/// zero-refactorization warm starts whenever consecutive solves walk
/// parent -> child in the search tree.
class SimplexWorkspace {
public:
  SimplexWorkspace();
  ~SimplexWorkspace();
  SimplexWorkspace(SimplexWorkspace &&) noexcept;
  SimplexWorkspace &operator=(SimplexWorkspace &&) noexcept;
  SimplexWorkspace(const SimplexWorkspace &) = delete;
  SimplexWorkspace &operator=(const SimplexWorkspace &) = delete;

private:
  friend class SimplexSolver;
  std::unique_ptr<SparseRevisedSimplex> Engine;
};

/// Result of an LP solve.
struct LpResult {
  LpStatus Status = LpStatus::Infeasible;
  /// Objective value (valid when Status == Optimal).
  double Objective = 0.0;
  /// Value of each structural (model) variable.
  std::vector<double> Values;
  /// Number of simplex pivots performed (the paper's "simplex
  /// iterations" metric).
  int64_t Iterations = 0;

  // --- Telemetry detail (see docs/OBSERVABILITY.md) ---
  /// Pivots whose step length was ~0 (degeneracy; a long run of these
  /// triggers the switch to Bland's rule).
  int64_t DegeneratePivots = 0;
  /// Entering-variable bound flips (pivots that changed no basis entry).
  int64_t BoundFlips = 0;
  /// LU (re)factorizations of the basis, including the initial one.
  int64_t Refactorizations = 0;
  /// Pivots spent in phase 1 (driving artificials out of the basis).
  int64_t Phase1Iterations = 0;
  /// Pivots spent in the warm-start dual simplex (subset of Iterations).
  int64_t DualIterations = 0;
  /// Product-form eta nonzeros appended to the basis factorization.
  int64_t EtaNonzeros = 0;
  /// True when this solve restarted from a caller-provided basis and ran
  /// the dual simplex (false for cold two-phase primal solves, including
  /// warm attempts that had to fall back).
  bool WarmStarted = false;
  /// With SimplexOptions::CollectCertificate, on Status == Infeasible:
  /// the model rows supporting the infeasibility certificate — the
  /// nonzero slack columns of the dual simplex's terminal ray, or the
  /// residual artificial rows' slack supports after phase 1. A subset
  /// of rows that is itself infeasible under the solved bounds.
  std::vector<int> FarkasRows;
  /// With SimplexOptions::CollectCertificate, one multiplier per model
  /// row certifying the verdict (lp/Certificate.h checks it): the row
  /// duals y of the optimum when Status == Optimal (reduced costs are
  /// c - A'y), a Farkas ray when Status == Infeasible (y'(Ax) cannot
  /// reach y'r for any row activities r the row senses allow). Empty
  /// otherwise, and for the trivially infeasible empty bound box.
  std::vector<double> Duals;
  /// The optimal basis of this solve, exportable to warm-start a later
  /// solve of the same model with tightened bounds. Only populated when
  /// Status == Optimal and the solve was given a SimplexWorkspace; empty
  /// when the final basis is not reusable (e.g. a residual degenerate
  /// artificial could not be pivoted out).
  Basis FinalBasis;
};

/// Bounded-variable simplex: two-phase primal for cold solves, dual
/// simplex for warm re-solves from an exported basis.
class SimplexSolver {
public:
  explicit SimplexSolver(SimplexOptions Options = {}) : Opts(Options) {}

  /// Solves \p M (a minimization LP; integrality flags are ignored).
  LpResult solve(const Model &M);

  /// Solves \p M with the variable bounds replaced by \p Lower / \p Upper
  /// (used by branch-and-bound nodes to tighten integer bounds without
  /// copying the whole model).
  ///
  /// \p Ctx, when non-null, supplies the per-attempt solve environment
  /// (lp/SolveContext.h): its workspace persists the factorization and
  /// scratch buffers across calls (and enables FinalBasis export), its deadline
  /// bounds this solve's wall-clock, and its cancellation token is
  /// polled every 64 pivots (both report LpStatus::IterationLimit; the
  /// caller disambiguates by asking the context). \p Start, when
  /// non-null and non-empty, requests a warm start from that basis: the
  /// solver reuses the workspace factorization in place when it still
  /// realizes the basis (otherwise refactorizes it from the constraint
  /// matrix) and runs the dual simplex, which is exact for the
  /// branch-and-bound pattern of a dual-feasible but primal-infeasible
  /// basis after a bound tightening. Falls back to the cold two-phase
  /// primal whenever the basis is unusable (stale shape, singular
  /// refactorization, or dual infeasibility beyond tolerance).
  LpResult solve(const Model &M, const std::vector<double> &Lower,
                 const std::vector<double> &Upper,
                 SolveContext *Ctx = nullptr,
                 const Basis *Start = nullptr);

private:
  SimplexOptions Opts;
};

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_SIMPLEX_H
