//===- ilp/BranchAndBound.cpp - MIP solver over the simplex ---------------===//

#include "ilp/BranchAndBound.h"

#include "ilp/Presolve.h"
#include "lp/SolveContext.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <memory>
#include <utility>

using namespace modsched;
using namespace modsched::ilp;
using namespace modsched::lp;

const char *ilp::toString(MipStatus Status) {
  switch (Status) {
  case MipStatus::Optimal:
    return "optimal";
  case MipStatus::Infeasible:
    return "infeasible";
  case MipStatus::Limit:
    return "limit";
  case MipStatus::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

const char *ilp::toString(BbEvent Event) {
  switch (Event) {
  case BbEvent::RootLpSolved:
    return "root-lp-solved";
  case BbEvent::NodeVisited:
    return "node-visited";
  case BbEvent::NodeInfeasible:
    return "node-infeasible";
  case BbEvent::BoundPruned:
    return "bound-pruned";
  case BbEvent::IncumbentFound:
    return "incumbent-found";
  case BbEvent::Branched:
    return "branched";
  case BbEvent::PresolveFixed:
    return "presolve-fixed";
  }
  return "unknown";
}

void ilp::roundIntegralValues(std::vector<double> &X, double Tol) {
  for (double &V : X) {
    double R = std::round(V);
    if (std::abs(V - R) <= Tol)
      V = R;
  }
}

namespace {

telemetry::Counter StatSolves("ilp", "bb.solves", "MIP solves performed");
telemetry::Counter StatNodes("ilp", "bb.nodes",
                             "branch-and-bound nodes visited");
telemetry::Counter StatIncumbents("ilp", "bb.incumbents",
                                  "incumbent improvements");
telemetry::Counter StatPruned("ilp", "bb.bound_pruned",
                              "nodes pruned by the incumbent bound");
telemetry::Counter StatInfeasibleNodes("ilp", "bb.infeasible_nodes",
                                       "nodes proved infeasible");
telemetry::PhaseTimer TimeSolve("ilp", "bb.solve",
                                "wall time in MIP solves");

telemetry::Counter StatWarmNodeLps("ilp", "bb.warm_node_lps",
                                   "node LPs solved by warm-started dual "
                                   "simplex");

/// One open subproblem, stored as a delta against the depth-first bound
/// trail instead of full Lower/Upper vector copies: the trail mark at
/// which the parent's bound state ends, plus the single branching bound
/// this child tightens. Popping a node rewinds the shared CurLower /
/// CurUpper vectors to TrailMark and applies the delta — O(changes)
/// instead of O(variables) time and memory per node.
struct Node {
  /// Trail length at creation; the bound state of the parent (after its
  /// presolve) is exactly the first TrailMark trail entries.
  size_t TrailMark = 0;
  /// Variable tightened by this branch, or -1 for the root.
  int BranchVar = -1;
  /// New bound value for BranchVar (floor or floor+1 of the parent's LP
  /// value).
  double BranchBound = 0.0;
  /// True: BranchBound is a new upper bound (x <= floor child); false:
  /// a new lower bound (x >= floor+1 child).
  bool BranchIsUpper = false;
  /// Branching depth (root = 0).
  int Depth = 0;
  /// Optimal basis of the parent's LP relaxation, shared by both
  /// children; warm-starts this node's LP via the dual simplex. Null at
  /// the root or when the parent's basis was not exportable.
  std::shared_ptr<const lp::Basis> StartBasis;
};

/// Fans search events out to the user observer and, when tracing is on,
/// to the telemetry sink (instants for events, counter tracks for the
/// depth / open-list gauges). All calls are no-ops when neither consumer
/// is active — `if (Monitor.active())` guards every emission site.
class SearchMonitor {
public:
  explicit SearchMonitor(const BbObserver &Observer)
      : Observer(Observer),
        Active(static_cast<bool>(Observer) || telemetry::tracingEnabled()) {
  }

  bool active() const { return Active; }

  void notify(const BbEventInfo &Info) const {
    if (Observer)
      Observer(Info);
    if (!telemetry::tracingEnabled())
      return;
    telemetry::instant(
        "ilp", toString(Info.Kind),
        {{"node", Info.Node},
         {"depth", Info.Depth},
         {"open", static_cast<int64_t>(Info.OpenNodes)},
         {"lp_objective", Info.LpObjective},
         {"incumbent", Info.Incumbent >= 1e300 ? 0.0 : Info.Incumbent},
         {"branch_var", Info.BranchVariable},
         {"fixed", Info.FixedVariables},
         {"warm", int64_t(Info.Warm ? 1 : 0)}});
    telemetry::gauge("ilp", "bb.depth", Info.Depth);
    telemetry::gauge("ilp", "bb.open_nodes",
                     static_cast<double>(Info.OpenNodes));
  }

private:
  const BbObserver &Observer;
  bool Active;
};

/// Returns the index of the integer variable to branch on, or -1 if \p X
/// is integral on all integer variables. Only variables of the highest
/// priority class with a fractional member are considered.
int pickBranchVariable(const Model &M, const std::vector<double> &X,
                       double IntTol, BranchRule Rule) {
  int Best = -1;
  double BestScore = -1.0;
  int BestPriority = INT_MIN;
  for (int Var = 0; Var < M.numVariables(); ++Var) {
    const Variable &V = M.variable(Var);
    if (V.Kind != VarKind::Integer)
      continue;
    double Frac = X[Var] - std::floor(X[Var]);
    double Dist = std::min(Frac, 1.0 - Frac);
    if (Dist <= IntTol)
      continue;
    if (V.BranchPriority < BestPriority)
      continue;
    bool HigherClass = V.BranchPriority > BestPriority;
    if (HigherClass) {
      BestPriority = V.BranchPriority;
      BestScore = -1.0;
      Best = Var; // Any fractional var of the new class beats the old.
    }
    switch (Rule) {
    case BranchRule::FirstFractional:
      if (HigherClass)
        break; // Keep the first (smallest-index) one of this class.
      break;
    case BranchRule::LastFractional:
      Best = Var;
      break;
    case BranchRule::MostFractional:
      if (Dist > BestScore) {
        BestScore = Dist;
        Best = Var;
      }
      break;
    }
  }
  return Best;
}

} // namespace

MipResult MipSolver::solve(const Model &M) const {
  lp::SolveContext Ctx;
  return solve(M, Ctx);
}

MipResult MipSolver::solve(const Model &M, lp::SolveContext &Ctx) const {
  telemetry::TimerScope Time(
      TimeSolve, {{"variables", int64_t(M.numVariables())},
                  {"constraints", int64_t(M.numConstraints())}});
  ++StatSolves;
  Stopwatch Watch;
  MipResult Result;
  SearchMonitor Monitor(Opts.Observer);

  double Incumbent = 1e300;
  bool Aborted = false;

  // Lower bound on the objective value implied by an LP bound, after
  // integral-objective rounding.
  auto TightenBound = [this](double LpBound) {
    if (!Opts.IntegralObjective)
      return LpBound;
    return std::ceil(LpBound - 1e-6);
  };

  // Depth-first bound state: one pair of effective-bound vectors shared
  // by every node, plus the trail of individual bound writes (branch
  // deltas and presolve tightenings) along the current root-to-node
  // path. Popping a node rewinds the trail to the node's mark — marks
  // are monotone along the stack, so a rewind never undoes state a
  // still-open node depends on.
  std::vector<double> CurLower, CurUpper;
  M.getBounds(CurLower, CurUpper);
  std::vector<BoundChange> Trail;
  auto RewindTo = [&](size_t Mark) {
    while (Trail.size() > Mark) {
      const BoundChange &B = Trail.back();
      if (B.IsUpper)
        CurUpper[B.Var] = B.OldValue;
      else
        CurLower[B.Var] = B.OldValue;
      Trail.pop_back();
    }
  };

  // LP solver state hoisted out of the node loop: the solver's own
  // wall-clock budget is folded into the context deadline once (an
  // absolute deadline on the shared clock, restored on exit by the
  // scope — no per-node remaining-time arithmetic), and every node LP
  // reuses the context's persistent workspace. With depth-first search
  // the preferred child is solved immediately after its parent, so the
  // workspace usually still realizes the parent basis and the
  // warm start skips refactorization entirely.
  lp::DeadlineScope Deadline(Ctx, Opts.TimeLimitSeconds);
  lp::SimplexOptions LpOpts = Opts.Lp;
  if (Opts.CollectFarkas)
    LpOpts.CollectCertificate = true;
  SimplexSolver Lp(LpOpts);

  // Farkas support rows of every infeasible node LP (histogrammed into
  // MipResult::FarkasRows on an Infeasible verdict).
  std::vector<int> FarkasTally;

  std::vector<Node> Stack;
  Stack.emplace_back(); // Root: trail mark 0, no branch delta, no basis.
  bool IsRoot = true;

  while (!Stack.empty()) {
    if (Ctx.cancelled()) {
      Result.Cancelled = true;
      Aborted = true;
      break;
    }
    if (Watch.seconds() > Opts.TimeLimitSeconds || Ctx.deadlineExpired())
      Result.HitTimeLimit = true;
    if (Result.Nodes >= Opts.NodeLimit)
      Result.HitNodeLimit = true;
    if (Result.HitTimeLimit || Result.HitNodeLimit) {
      Aborted = true;
      break;
    }

    Node N = std::move(Stack.back());
    Stack.pop_back();
    if (!IsRoot)
      ++Result.Nodes;
    Result.MaxDepth = std::max(Result.MaxDepth, N.Depth);

    RewindTo(N.TrailMark);

    // Whether this node's LP was warm-started (set once it has run).
    bool NodeWarm = false;

    // Builds the common part of a search-event payload for this node.
    auto MakeInfo = [&](BbEvent Kind) {
      BbEventInfo Info;
      Info.Kind = Kind;
      Info.Node = Result.Nodes;
      Info.Depth = N.Depth;
      Info.OpenNodes = Stack.size();
      Info.Incumbent = Incumbent;
      Info.Warm = NodeWarm;
      return Info;
    };

    if (!IsRoot && Monitor.active())
      Monitor.notify(MakeInfo(BbEvent::NodeVisited));

    // Apply this node's branching delta to the shared bound state.
    if (N.BranchVar >= 0) {
      if (N.BranchIsUpper) {
        if (N.BranchBound < CurUpper[N.BranchVar]) {
          Trail.push_back({N.BranchVar, /*IsUpper=*/true,
                           CurUpper[N.BranchVar]});
          CurUpper[N.BranchVar] = N.BranchBound;
        }
      } else {
        if (N.BranchBound > CurLower[N.BranchVar]) {
          Trail.push_back({N.BranchVar, /*IsUpper=*/false,
                           CurLower[N.BranchVar]});
          CurLower[N.BranchVar] = N.BranchBound;
        }
      }
      if (CurLower[N.BranchVar] > CurUpper[N.BranchVar] + 1e-9) {
        // The branch emptied the variable's box (e.g. floor of the LP
        // value fell below an un-rounded fractional lower bound).
        ++Result.InfeasibleNodes;
        ++StatInfeasibleNodes;
        if (Monitor.active())
          Monitor.notify(MakeInfo(BbEvent::NodeInfeasible));
        continue;
      }
    }

    if (Opts.NodePresolve) {
      PropagationStats PStats;
      PropagationResult PR = propagateBounds(M, CurLower, CurUpper,
                                             /*MaxRounds=*/8, &PStats, &Trail);
      Result.PresolveFixedVariables += PStats.FixedVariables;
      if (Monitor.active() && PStats.FixedVariables > 0) {
        BbEventInfo Info = MakeInfo(BbEvent::PresolveFixed);
        Info.FixedVariables = PStats.FixedVariables;
        Monitor.notify(Info);
      }
      if (PR == PropagationResult::Infeasible) {
        ++Result.InfeasibleNodes;
        ++StatInfeasibleNodes;
        if (Monitor.active())
          Monitor.notify(MakeInfo(BbEvent::NodeInfeasible));
        if (IsRoot)
          break; // Root proved infeasible without an LP.
        continue;
      }
    }

    const lp::Basis *Start =
        (Opts.WarmStart && N.StartBasis && !N.StartBasis->empty())
            ? N.StartBasis.get()
            : nullptr;
    LpResult Relax = Lp.solve(M, CurLower, CurUpper, &Ctx, Start);
    Result.SimplexIterations += Relax.Iterations;
    Result.LpRefactorizations += Relax.Refactorizations;
    Result.LpEtaNonzeros += Relax.EtaNonzeros;
    NodeWarm = Relax.WarmStarted;
    if (Relax.WarmStarted) {
      ++Result.WarmLpSolves;
      Result.WarmLpIterations += Relax.Iterations;
      ++StatWarmNodeLps;
    } else {
      ++Result.ColdLpSolves;
    }

    if (Relax.Status == LpStatus::IterationLimit) {
      // Cannot bound this subtree; give up on exactness. The LP reports
      // the same status for a cancelled context, a deadline expiry, and
      // a genuine pivot-budget exhaustion — the context disambiguates.
      if (Ctx.cancelled())
        Result.Cancelled = true;
      else
        Result.HitTimeLimit = true;
      Aborted = true;
      IsRoot = false;
      break;
    }
    if (Relax.Status == LpStatus::Infeasible) {
      ++Result.InfeasibleNodes;
      ++StatInfeasibleNodes;
      if (Opts.CollectFarkas)
        FarkasTally.insert(FarkasTally.end(), Relax.FarkasRows.begin(),
                           Relax.FarkasRows.end());
      if (Monitor.active())
        Monitor.notify(MakeInfo(BbEvent::NodeInfeasible));
      if (IsRoot) {
        IsRoot = false;
        // Infeasible root proves MIP infeasibility immediately.
        break;
      }
      continue;
    }
    assert(Relax.Status != LpStatus::Unbounded &&
           "scheduling MIPs are bounded; model is missing variable bounds");
    if (IsRoot) {
      if (Opts.CollectTrajectory) {
        Result.HasRootBound = true;
        // + 0.0 normalizes the -0 that rounding a tiny negative LP
        // objective produces.
        Result.RootBound = TightenBound(Relax.Objective) + 0.0;
        Result.Trajectory.push_back(
            {Watch.seconds(), Result.Nodes, Incumbent, Result.RootBound});
      }
      if (Monitor.active()) {
        BbEventInfo Info = MakeInfo(BbEvent::RootLpSolved);
        Info.LpObjective = Relax.Objective;
        Monitor.notify(Info);
      }
    }
    IsRoot = false;

    double Bound = TightenBound(Relax.Objective);
    if (Result.HasSolution && Bound >= Incumbent - 1e-9) {
      ++Result.PrunedNodes;
      ++StatPruned;
      if (Monitor.active()) {
        BbEventInfo Info = MakeInfo(BbEvent::BoundPruned);
        Info.LpObjective = Relax.Objective;
        Monitor.notify(Info);
      }
      continue; // Cannot improve on the incumbent.
    }

    int BranchVar =
        pickBranchVariable(M, Relax.Values, Opts.IntTol, Opts.Branching);
    if (BranchVar < 0) {
      // Integral: new incumbent.
      double Obj = Relax.Objective;
      if (!Result.HasSolution || Obj < Incumbent - 1e-9) {
        Incumbent = Obj;
        Result.HasSolution = true;
        Result.Objective = Obj;
        Result.Values = Relax.Values;
        roundIntegralValues(Result.Values, Opts.IntTol);
        ++Result.Incumbents;
        ++StatIncumbents;
        if (Opts.CollectTrajectory)
          Result.Trajectory.push_back(
              {Watch.seconds(), Result.Nodes, Incumbent,
               Result.HasRootBound ? Result.RootBound : -1e300});
        if (Monitor.active()) {
          BbEventInfo Info = MakeInfo(BbEvent::IncumbentFound);
          Info.LpObjective = Obj;
          Info.Incumbent = Incumbent;
          Info.Values = &Result.Values;
          Monitor.notify(Info);
        }
      }
      if (Opts.StopAtFirstSolution)
        break;
      continue;
    }

    // Branch: floor child and ceil child. Depth-first; explore the child
    // containing the LP value's rounding first (pushed last).
    double X = Relax.Values[BranchVar];
    double Floor = std::floor(X);

    if (Monitor.active()) {
      BbEventInfo Info = MakeInfo(BbEvent::Branched);
      Info.LpObjective = Relax.Objective;
      Info.BranchVariable = BranchVar;
      Monitor.notify(Info);
    }

    // Both children share this node's bound state (trail prefix) and,
    // when warm starts are on, its optimal basis — which stays dual-
    // feasible under the one-bound tightening each child applies.
    std::shared_ptr<const lp::Basis> ChildBasis;
    if (Opts.WarmStart && !Relax.FinalBasis.empty())
      ChildBasis =
          std::make_shared<const lp::Basis>(std::move(Relax.FinalBasis));

    Node Down; // x <= floor
    Down.TrailMark = Trail.size();
    Down.BranchVar = BranchVar;
    Down.BranchBound = Floor;
    Down.BranchIsUpper = true;
    Down.Depth = N.Depth + 1;
    Down.StartBasis = ChildBasis;
    Node Up = Down; // x >= floor + 1
    Up.BranchBound = Floor + 1.0;
    Up.BranchIsUpper = false;

    bool PreferDown = (X - Floor) < 0.5;
    if (PreferDown) {
      Stack.push_back(std::move(Up));
      Stack.push_back(std::move(Down));
    } else {
      Stack.push_back(std::move(Down));
      Stack.push_back(std::move(Up));
    }
  }

  Result.Seconds = Watch.seconds();
  StatNodes += Result.Nodes;
  if (Result.HasSolution)
    Result.Status = Aborted || !Stack.empty() ? MipStatus::Limit
                                              : MipStatus::Optimal;
  else
    Result.Status = Aborted || !Stack.empty() ? MipStatus::Limit
                                              : MipStatus::Infeasible;
  // StopAtFirstSolution intentionally reports Optimal even though open
  // nodes remain: with a zero objective every feasible point is optimal.
  if (Result.HasSolution && Opts.StopAtFirstSolution && !Aborted)
    Result.Status = MipStatus::Optimal;
  // Cancellation trumps the Limit classification: the caller asked the
  // search to stop, so neither bound statistic nor solution state is a
  // verdict about the problem.
  if (Result.Cancelled)
    Result.Status = MipStatus::Cancelled;
  if (Opts.CollectFarkas && Result.Status == MipStatus::Infeasible &&
      !FarkasTally.empty()) {
    // Histogram the tally: rows implicated by the most node LPs first.
    std::sort(FarkasTally.begin(), FarkasTally.end());
    std::vector<std::pair<int64_t, int>> Freq; // (-count, row)
    for (size_t I = 0; I < FarkasTally.size();) {
      size_t J = I;
      while (J < FarkasTally.size() && FarkasTally[J] == FarkasTally[I])
        ++J;
      Freq.push_back({-int64_t(J - I), FarkasTally[I]});
      I = J;
    }
    std::sort(Freq.begin(), Freq.end());
    Result.FarkasRows.reserve(Freq.size());
    for (const std::pair<int64_t, int> &F : Freq)
      Result.FarkasRows.push_back(F.second);
  }
  return Result;
}
