//===- pb/PbSolver.cpp - Conflict-driven pseudo-Boolean solver ------------===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//

#include "pb/PbSolver.h"

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>

namespace modsched {
namespace pb {

namespace {

telemetry::Counter StatConflicts("pb", "conflicts",
                                 "CDCL conflicts analyzed by the PB solver");
telemetry::Counter StatPropagations("pb", "propagations",
                                    "literals propagated by the PB solver");
telemetry::Counter StatRestarts("pb", "restarts",
                                "Luby restarts taken by the PB solver");
telemetry::Counter StatLearned("pb", "learned",
                               "clauses learned by the PB solver");

/// The undefined-literal sentinel used by conflict analysis.
const Lit UndefLit = Lit();

/// Finite Luby subsequence value: luby(I) for the 1-based restart index,
/// over the sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
int64_t luby(int64_t I) {
  // Find the subsequence (of length 2^K - 1) containing index I.
  int64_t K = 1, Size = 1;
  while (Size < I + 1) {
    ++K;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) / 2;
    --K;
    I = I % Size;
  }
  return int64_t(1) << (K - 1);
}

} // namespace

const char *toString(SolveStatus S) {
  switch (S) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Limit:
    return "limit";
  case SolveStatus::Cancelled:
    return "cancelled";
  }
  return "?";
}

Solver::Solver() = default;
Solver::~Solver() = default;

//===----------------------------------------------------------------------===//
// Variables
//===----------------------------------------------------------------------===//

Var Solver::newVar() {
  Var V = Var(VarCount++);
  ensureVarCapacity();
  heapInsert(V);
  return V;
}

void Solver::ensureVarCapacity() {
  Value.resize(VarCount, 0);
  Level.resize(VarCount, 0);
  Reason.resize(VarCount, NoCref);
  TrailPos.resize(VarCount, -1);
  Activity.resize(VarCount, 0.0);
  SavedPhase.resize(VarCount, 0); // Default polarity: false.
  HeapPos.resize(VarCount, -1);
  Seen.resize(VarCount, 0);
  Watches.resize(2 * VarCount);
  LinOcc.resize(2 * VarCount);
}

//===----------------------------------------------------------------------===//
// Branching heap (binary max-heap on Activity)
//===----------------------------------------------------------------------===//

void Solver::heapInsert(Var V) {
  if (HeapPos[V] >= 0)
    return;
  HeapPos[V] = int(Heap.size());
  Heap.push_back(V);
  heapSiftUp(Heap.size() - 1);
}

void Solver::heapSiftUp(size_t I) {
  Var V = Heap[I];
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!heapLess(Heap[Parent], V))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = int(I);
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = int(I);
}

void Solver::heapSiftDown(size_t I) {
  Var V = Heap[I];
  for (;;) {
    size_t Child = 2 * I + 1;
    if (Child >= Heap.size())
      break;
    if (Child + 1 < Heap.size() && heapLess(Heap[Child], Heap[Child + 1]))
      ++Child;
    if (!heapLess(V, Heap[Child]))
      break;
    Heap[I] = Heap[Child];
    HeapPos[Heap[I]] = int(I);
    I = Child;
  }
  Heap[I] = V;
  HeapPos[V] = int(I);
}

Var Solver::heapPop() {
  assert(!Heap.empty() && "pop from empty branching heap");
  Var Top = Heap[0];
  HeapPos[Top] = -1;
  Var Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPos[Last] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void Solver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100)
    rescaleActivities();
  if (HeapPos[V] >= 0)
    heapSiftUp(size_t(HeapPos[V]));
}

void Solver::rescaleActivities() {
  for (double &A : Activity)
    A *= 1e-100;
  VarInc *= 1e-100;
}

//===----------------------------------------------------------------------===//
// Constraint construction
//===----------------------------------------------------------------------===//

bool Solver::addClause(std::vector<Lit> Lits) {
  std::vector<std::pair<Lit, int64_t>> Terms;
  Terms.reserve(Lits.size());
  for (Lit L : Lits)
    Terms.push_back({L, 1});
  return addLinear(std::move(Terms), 1);
}

bool Solver::addAtLeast(std::vector<Lit> Lits, int64_t Degree) {
  std::vector<std::pair<Lit, int64_t>> Terms;
  Terms.reserve(Lits.size());
  for (Lit L : Lits)
    Terms.push_back({L, 1});
  return addLinear(std::move(Terms), Degree);
}

bool Solver::addLinear(std::vector<std::pair<Lit, int64_t>> Terms,
                       int64_t Degree) {
  assert(decisionLevel() == 0 &&
         "constraints may only be added at the root level");
  if (!Ok)
    return false;

  // Normalize to positive coefficients: c * l with c < 0 becomes
  // |c| * ~l - |c|, i.e. flip the literal and raise the degree.
  for (auto &T : Terms) {
    assert(T.first.var() >= 0 && T.first.var() < int(VarCount) &&
           "literal over unknown variable");
    if (T.second < 0) {
      T.first = ~T.first;
      Degree += -T.second;
      T.second = -T.second;
    }
  }

  // Merge duplicate and opposite literals: sort by variable, then fold.
  std::sort(Terms.begin(), Terms.end(),
            [](const std::pair<Lit, int64_t> &A,
               const std::pair<Lit, int64_t> &B) {
              return A.first.index() < B.first.index();
            });
  std::vector<std::pair<Lit, int64_t>> Merged;
  Merged.reserve(Terms.size());
  for (size_t I = 0; I < Terms.size();) {
    Lit L = Terms[I].first;
    int64_t Pos = 0, Neg = 0;
    for (; I < Terms.size() && Terms[I].first.var() == L.var(); ++I) {
      if (Terms[I].first == L)
        Pos += Terms[I].second;
      else
        Neg += Terms[I].second;
    }
    // a*l + b*~l = min(a,b) + (a-min)*l + (b-min)*~l.
    int64_t Common = std::min(Pos, Neg);
    Degree -= Common;
    Pos -= Common;
    Neg -= Common;
    if (Pos > 0)
      Merged.push_back({L, Pos});
    if (Neg > 0)
      Merged.push_back({~L, Neg});
  }

  // Record the normalized row for OPB export before any further
  // simplification against the current root assignment.
  Export.push_back({Merged, Degree});

  Cref Out = NoCref;
  if (!addNormalized(std::move(Merged), Degree, /*Learned=*/false, &Out))
    Ok = false;
  if (Ok && QHead < Trail.size() && propagate() != NoCref)
    Ok = false;
  return Ok;
}

bool Solver::addNormalized(std::vector<std::pair<Lit, int64_t>> Terms,
                           int64_t Degree, bool Learned, Cref *Out) {
  // Simplify against the root-level assignment.
  size_t W = 0;
  for (size_t I = 0; I < Terms.size(); ++I) {
    int8_t V = litValue(Terms[I].first);
    if (V > 0)
      Degree -= Terms[I].second; // Satisfied term.
    else if (V == 0)
      Terms[W++] = Terms[I];
    // False terms contribute nothing and are dropped.
  }
  Terms.resize(W);

  if (Degree <= 0)
    return true; // Tautology.

  // Saturate coefficients at the degree and compute the max sum.
  int64_t MaxSum = 0;
  for (auto &T : Terms) {
    T.second = std::min(T.second, Degree);
    MaxSum += T.second;
  }
  if (MaxSum < Degree)
    return false; // Root-level unsatisfiable.

  if (MaxSum == Degree) {
    // Every literal is forced true at the root.
    for (auto &T : Terms)
      if (litValue(T.first) == 0)
        uncheckedEnqueue(T.first, NoCref);
    return true;
  }

  // Classify: all-unit coefficients -> cardinality (clause when degree
  // is 1, which coefficient saturation guarantees for degree-1 rows).
  bool AllUnit = true;
  for (const auto &T : Terms)
    if (T.second != 1) {
      AllUnit = false;
      break;
    }

  Constraint C;
  C.Learned = Learned;
  C.Degree = Degree;
  C.Lits.reserve(Terms.size());
  if (AllUnit) {
    C.K = Kind::Card;
    for (const auto &T : Terms)
      C.Lits.push_back(T.first);
  } else {
    C.K = Kind::Linear;
    // Sort by decreasing coefficient so propagation and reason
    // extraction scan the heaviest terms first.
    std::sort(Terms.begin(), Terms.end(),
              [](const std::pair<Lit, int64_t> &A,
                 const std::pair<Lit, int64_t> &B) {
                return A.second > B.second;
              });
    C.Coeffs.reserve(Terms.size());
    for (const auto &T : Terms) {
      C.Lits.push_back(T.first);
      C.Coeffs.push_back(T.second);
    }
    C.MaxSum = MaxSum;
    C.FalseSum = 0;
  }

  Cref Ref = allocConstraint(std::move(C));
  attachConstraint(Ref);
  if (Out)
    *Out = Ref;

  // A fresh linear row may propagate immediately (slack smaller than
  // some coefficient even with nothing false yet).
  Constraint &CC = Arena[size_t(Ref)];
  if (CC.K == Kind::Linear) {
    int64_t Slack = CC.MaxSum - CC.Degree;
    for (size_t I = 0; I < CC.Lits.size() && CC.Coeffs[I] > Slack; ++I)
      if (litValue(CC.Lits[I]) == 0)
        uncheckedEnqueue(CC.Lits[I], Ref);
  }
  return true;
}

Solver::Cref Solver::allocConstraint(Constraint C) {
  Arena.push_back(std::move(C));
  return Cref(Arena.size() - 1);
}

void Solver::attachConstraint(Cref Ref) {
  Constraint &C = Arena[size_t(Ref)];
  if (C.K == Kind::Card) {
    assert(int64_t(C.Lits.size()) > C.Degree &&
           "cardinality constraint must have slack to be watchable");
    // Watch the first Degree+1 literals.
    for (int64_t I = 0; I <= C.Degree; ++I)
      Watches[size_t(C.Lits[size_t(I)].index())].push_back(Ref);
  } else {
    for (size_t I = 0; I < C.Lits.size(); ++I)
      LinOcc[size_t(C.Lits[I].index())].push_back({Ref, C.Coeffs[I]});
  }
}

//===----------------------------------------------------------------------===//
// Assignment and propagation
//===----------------------------------------------------------------------===//

void Solver::uncheckedEnqueue(Lit P, Cref From) {
  Var V = P.var();
  assert(Value[size_t(V)] == 0 && "enqueue of an assigned variable");
  Value[size_t(V)] = P.negated() ? int8_t(-1) : int8_t(1);
  Level[size_t(V)] = decisionLevel();
  Reason[size_t(V)] = From;
  TrailPos[size_t(V)] = int(Trail.size());
  Trail.push_back(P);
  // Keep every linear row's false-sum in lock-step with the trail (not
  // the propagation queue) so a conflict cannot leave sums and trail
  // out of sync across a backtrack.
  Lit NotP = ~P;
  for (const auto &Occ : LinOcc[size_t(NotP.index())])
    Arena[size_t(Occ.first)].FalseSum += Occ.second;
}

Solver::Cref Solver::propagate() {
  Cref Conflict = NoCref;
  while (QHead < Trail.size() && Conflict == NoCref) {
    Lit P = Trail[QHead++];
    ++Stats.Propagations;
    Lit False = ~P; // Literal that just became false.
    Conflict = propagateCard(False, Watches[size_t(False.index())]);
    if (Conflict == NoCref)
      Conflict = propagateLinearAssign(P);
  }
  if (Conflict != NoCref)
    QHead = Trail.size();
  return Conflict;
}

Solver::Cref Solver::propagateCard(Lit False, std::vector<Cref> &Watch) {
  // Visit every cardinality/clause constraint watching the literal that
  // just became false; try to move the watch, else propagate/conflict.
  size_t Keep = 0;
  Cref Conflict = NoCref;
  for (size_t I = 0; I < Watch.size(); ++I) {
    Cref Ref = Watch[I];
    Constraint &C = Arena[size_t(Ref)];
    if (C.Deleted)
      continue; // Lazy watch cleanup for reduced learned clauses.
    if (Conflict != NoCref) {
      Watch[Keep++] = Ref;
      continue;
    }
    size_t WatchCount = size_t(C.Degree) + 1;
    // Locate the false watched literal.
    size_t Pos = WatchCount;
    for (size_t J = 0; J < WatchCount; ++J)
      if (C.Lits[J] == False) {
        Pos = J;
        break;
      }
    assert(Pos < WatchCount && "watched literal not in the watch set");
    // Try to find a non-false replacement outside the watch set.
    size_t Repl = 0;
    for (size_t J = WatchCount; J < C.Lits.size(); ++J)
      if (litValue(C.Lits[J]) >= 0) {
        Repl = J;
        break;
      }
    if (Repl != 0) {
      std::swap(C.Lits[Pos], C.Lits[Repl]);
      Watches[size_t(C.Lits[Pos].index())].push_back(Ref);
      continue; // Dropped from this watch list.
    }
    // No replacement: every unwatched literal is false, so all other
    // watched literals must be true.
    Watch[Keep++] = Ref; // Keep watching.
    for (size_t J = 0; J < WatchCount && Conflict == NoCref; ++J) {
      if (J == Pos)
        continue;
      int8_t V = litValue(C.Lits[J]);
      if (V < 0)
        Conflict = Ref;
      else if (V == 0)
        uncheckedEnqueue(C.Lits[J], Ref);
    }
  }
  Watch.resize(Keep);
  return Conflict;
}

Solver::Cref Solver::propagateLinearAssign(Lit P) {
  // FalseSum was already updated at enqueue time; here we only detect
  // conflicts and implied literals in rows where ~P occurs.
  Cref Conflict = NoCref;
  Lit NotP = ~P;
  for (const auto &Occ : LinOcc[size_t(NotP.index())]) {
    Constraint &C = Arena[size_t(Occ.first)];
    int64_t Slack = C.MaxSum - C.FalseSum - C.Degree;
    if (Slack < 0) {
      Conflict = Occ.first;
      break;
    }
    for (size_t I = 0; I < C.Lits.size() && C.Coeffs[I] > Slack; ++I)
      if (litValue(C.Lits[I]) == 0)
        uncheckedEnqueue(C.Lits[I], Occ.first);
  }
  return Conflict;
}

void Solver::cancelUntil(int TargetLevel) {
  if (decisionLevel() <= TargetLevel)
    return;
  size_t Bound = size_t(TrailLim[size_t(TargetLevel)]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    Lit P = Trail[I - 1];
    Var V = P.var();
    Lit NotP = ~P;
    for (const auto &Occ : LinOcc[size_t(NotP.index())])
      Arena[size_t(Occ.first)].FalseSum -= Occ.second;
    SavedPhase[size_t(V)] = uint8_t(!P.negated());
    Value[size_t(V)] = 0;
    Reason[size_t(V)] = NoCref;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(size_t(TargetLevel));
  QHead = Trail.size();
}

//===----------------------------------------------------------------------===//
// Conflict analysis
//===----------------------------------------------------------------------===//

void Solver::reasonClause(Cref Ref, Lit P, std::vector<Lit> &Out) {
  // Produce a clause-form antecedent: a set of currently-false literals
  // of the constraint whose falsity (a) refutes the constraint when P is
  // undefined (conflict clause), or (b) forces P true (reason for a
  // propagation). For propagation reasons only assignments that precede
  // P on the trail may participate, keeping the implication graph
  // acyclic.
  Out.clear();
  const Constraint &C = Arena[size_t(Ref)];
  int Before = P == UndefLit ? int(Trail.size()) : TrailPos[size_t(P.var())];
  if (C.K == Kind::Card) {
    // At least Degree of the literals must be true, so listing the
    // false ones (>= n-Degree of them for a reason, more for a
    // conflict) yields an implied clause.
    for (Lit L : C.Lits)
      if (litValue(L) < 0 && TrailPos[size_t(L.var())] < Before)
        Out.push_back(L);
  } else {
    // Greedy PB reason: false literals, largest coefficients first,
    // until the remaining terms cannot reach the degree (minus P's own
    // coefficient when explaining a propagation).
    int64_t Need = C.MaxSum - C.Degree;
    if (P != UndefLit)
      for (size_t I = 0; I < C.Lits.size(); ++I)
        if (C.Lits[I] == P) {
          Need -= C.Coeffs[I];
          break;
        }
    int64_t Got = 0;
    for (size_t I = 0; I < C.Lits.size() && Got <= Need; ++I) {
      Lit L = C.Lits[I];
      if (L != P && litValue(L) < 0 && TrailPos[size_t(L.var())] < Before) {
        Out.push_back(L);
        Got += C.Coeffs[I];
      }
    }
    assert(Got > Need && "PB reason extraction fell short of the slack");
  }
}

int Solver::analyze(Cref Conflict, std::vector<Lit> &Learnt) {
  assert(decisionLevel() > 0 && "analysis requires a decision to undo");
  Learnt.clear();
  Learnt.push_back(UndefLit); // Slot for the asserting literal.
  std::vector<Var> ToClear;

  int PathCount = 0;
  Lit P = UndefLit;
  int Index = int(Trail.size());
  Cref Confl = Conflict;
  do {
    assert(Confl != NoCref && "resolved literal lacks a reason");
    bumpConstraint(Confl);
    reasonClause(Confl, P, ReasonScratch);
    for (Lit Q : ReasonScratch) {
      Var V = Q.var();
      if (Seen[size_t(V)] || Level[size_t(V)] == 0)
        continue;
      Seen[size_t(V)] = 1;
      ToClear.push_back(V);
      bumpVar(V);
      if (Level[size_t(V)] >= decisionLevel())
        ++PathCount;
      else
        Learnt.push_back(Q);
    }
    // Walk back to the next marked literal on the trail.
    while (!Seen[size_t(Trail[size_t(Index - 1)].var())])
      --Index;
    --Index;
    P = Trail[size_t(Index)];
    Confl = Reason[size_t(P.var())];
    Seen[size_t(P.var())] = 0;
    --PathCount;
  } while (PathCount > 0);
  Learnt[0] = ~P;

  minimizeLearnt(Learnt);

  // Find the backtrack level: highest level among the tail literals.
  int BtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Level[size_t(Learnt[I].var())] > Level[size_t(Learnt[MaxI].var())])
        MaxI = I;
    std::swap(Learnt[1], Learnt[MaxI]);
    BtLevel = Level[size_t(Learnt[1].var())];
  }

  for (Var V : ToClear)
    Seen[size_t(V)] = 0;
  return BtLevel;
}

void Solver::minimizeLearnt(std::vector<Lit> &Learnt) {
  // Cheap self-subsumption: a tail literal is redundant when every
  // literal of its (PB-aware) reason is already in the learned clause
  // or assigned at the root.
  for (size_t I = 0; I < Learnt.size(); ++I)
    Seen[size_t(Learnt[I].var())] = 1;
  size_t W = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    Var V = Learnt[I].var();
    Cref R = Reason[size_t(V)];
    bool Redundant = false;
    if (R != NoCref) {
      reasonClause(R, ~Learnt[I], ReasonScratch);
      Redundant = true;
      for (Lit Q : ReasonScratch)
        if (!Seen[size_t(Q.var())] && Level[size_t(Q.var())] > 0) {
          Redundant = false;
          break;
        }
    }
    if (!Redundant)
      Learnt[W++] = Learnt[I];
    else
      Seen[size_t(V)] = 0;
  }
  Learnt.resize(W);
  for (size_t I = 0; I < Learnt.size(); ++I)
    Seen[size_t(Learnt[I].var())] = 0;
}

void Solver::analyzeFinal(Lit FailedAssumption, std::vector<Lit> &OutCore) {
  // The failed assumption is false; trace the assignment of its
  // negation back to the assumptions that forced it.
  OutCore.clear();
  OutCore.push_back(FailedAssumption);
  if (decisionLevel() == 0)
    return;
  Seen[size_t(FailedAssumption.var())] = 1;
  for (int I = int(Trail.size()); I > TrailLim[0]; --I) {
    Lit T = Trail[size_t(I - 1)];
    Var V = T.var();
    if (!Seen[size_t(V)])
      continue;
    Seen[size_t(V)] = 0;
    if (Reason[size_t(V)] == NoCref) {
      // A decision inside the assumption prefix is an assumption.
      assert(Level[size_t(V)] > 0 && "root literal cannot be a decision");
      OutCore.push_back(T);
    } else {
      reasonClause(Reason[size_t(V)], T, ReasonScratch);
      for (Lit Q : ReasonScratch)
        if (Level[size_t(Q.var())] > 0)
          Seen[size_t(Q.var())] = 1;
    }
  }
  Seen[size_t(FailedAssumption.var())] = 0;
  // The failed assumption itself may have been re-added by the walk.
  std::sort(OutCore.begin(), OutCore.end());
  OutCore.erase(std::unique(OutCore.begin(), OutCore.end()), OutCore.end());
}

void Solver::recordLearnt(const std::vector<Lit> &Learnt) {
  ++Stats.Learned;
  if (Learnt.size() == 1) {
    assert(decisionLevel() == 0 && "unit learned above the root");
    uncheckedEnqueue(Learnt[0], NoCref);
    return;
  }
  Constraint C;
  C.K = Kind::Card;
  C.Learned = true;
  C.Degree = 1;
  C.Activity = ConstraintInc;
  C.Lits = Learnt;
  Cref Ref = allocConstraint(std::move(C));
  attachConstraint(Ref);
  Learnts.push_back(Ref);
  uncheckedEnqueue(Learnt[0], Ref);
}

bool Solver::locked(Cref Ref) const {
  const Constraint &C = Arena[size_t(Ref)];
  for (Lit L : C.Lits) {
    Var V = L.var();
    if (Value[size_t(V)] != 0 && Reason[size_t(V)] == Ref)
      return true;
  }
  return false;
}

void Solver::bumpConstraint(Cref Ref) {
  Constraint &C = Arena[size_t(Ref)];
  if (!C.Learned)
    return;
  C.Activity += ConstraintInc;
  if (C.Activity > 1e20) {
    for (Cref L : Learnts)
      Arena[size_t(L)].Activity *= 1e-20;
    ConstraintInc *= 1e-20;
  }
}

void Solver::reduceLearnts() {
  // Drop the lower-activity half of the learned database, keeping
  // binary and locked (currently-propagating) clauses.
  std::sort(Learnts.begin(), Learnts.end(), [this](Cref A, Cref B) {
    return Arena[size_t(A)].Activity < Arena[size_t(B)].Activity;
  });
  size_t Target = Learnts.size() / 2;
  size_t Removed = 0, W = 0;
  for (size_t I = 0; I < Learnts.size(); ++I) {
    Cref Ref = Learnts[I];
    Constraint &C = Arena[size_t(Ref)];
    if (Removed < Target && C.Lits.size() > 2 && !locked(Ref)) {
      C.Deleted = true; // Watches are cleaned lazily.
      C.Lits.clear();
      C.Lits.shrink_to_fit();
      ++Removed;
    } else {
      Learnts[W++] = Ref;
    }
  }
  Learnts.resize(W);
  // Let the database grow a little between reductions.
  LearntAdjust += LearntAdjust / 10;
}

//===----------------------------------------------------------------------===//
// Search
//===----------------------------------------------------------------------===//

Lit Solver::pickBranchLit() {
  while (!Heap.empty()) {
    Var V = heapPop();
    if (Value[size_t(V)] == 0)
      return Lit(V, !SavedPhase[size_t(V)]);
  }
  return UndefLit;
}

bool Solver::budgetExpired(int64_t ConflictsLeft) const {
  if (ConflictLimit >= 0 && ConflictsLeft <= 0)
    return true;
  return DeadlineSeconds < 1e29 && monotonicSeconds() > DeadlineSeconds;
}

SolveStatus Solver::search(int64_t ConflictBudget,
                           const std::vector<Lit> &Assumptions,
                           int64_t &ConflictsLeft) {
  std::vector<Lit> Learnt;
  for (;;) {
    Cref Conflict = propagate();
    if (Conflict != NoCref) {
      ++Stats.Conflicts;
      --ConflictsLeft;
      --ConflictBudget;
      if (decisionLevel() == 0) {
        Core.clear(); // Unsatisfiable regardless of assumptions.
        Ok = false;
        return SolveStatus::Unsat;
      }
      int BtLevel = analyze(Conflict, Learnt);
      cancelUntil(BtLevel);
      recordLearnt(Learnt);
      decayActivities();
      ConstraintInc /= 0.999;
      continue;
    }

    // Budget checkpoints at the decision boundary.
    if (Cancel.cancelled()) {
      cancelUntil(0);
      return SolveStatus::Cancelled;
    }
    if (budgetExpired(ConflictsLeft)) {
      cancelUntil(0);
      return SolveStatus::Limit;
    }
    if (ConflictBudget <= 0) {
      // Luby restart: surface as Limit; solve() restarts the search.
      cancelUntil(0);
      ++Stats.Restarts;
      return SolveStatus::Limit;
    }
    if (int64_t(Learnts.size()) >= LearntAdjust)
      reduceLearnts();

    // Extend the assumption prefix before free decisions.
    Lit Next = UndefLit;
    while (decisionLevel() < int(Assumptions.size())) {
      Lit A = Assumptions[size_t(decisionLevel())];
      int8_t V = litValue(A);
      if (V > 0) {
        TrailLim.push_back(int(Trail.size())); // Dummy level.
      } else if (V < 0) {
        analyzeFinal(A, Core);
        return SolveStatus::Unsat;
      } else {
        Next = A;
        break;
      }
    }
    if (Next == UndefLit) {
      Next = pickBranchLit();
      if (Next == UndefLit) {
        // All variables assigned: a model.
        Model.assign(VarCount, 0);
        for (size_t V = 0; V < VarCount; ++V)
          Model[V] = uint8_t(Value[V] > 0);
        return SolveStatus::Sat;
      }
      ++Stats.Decisions;
    }
    TrailLim.push_back(int(Trail.size()));
    uncheckedEnqueue(Next, NoCref);
  }
}

SolveStatus Solver::solve(const std::vector<Lit> &Assumptions) {
  SolverStats Before = Stats;
  SolveStatus Result;
  if (!Ok) {
    Core.clear();
    Result = SolveStatus::Unsat;
  } else {
    cancelUntil(0);
    if (LearntAdjust == 0)
      LearntAdjust = std::max<int64_t>(2000, int64_t(Arena.size()));
    int64_t ConflictsLeft =
        ConflictLimit >= 0 ? ConflictLimit : int64_t(1) << 62;
    int64_t RestartIndex = 0;
    for (;;) {
      int64_t Budget = luby(RestartIndex++) * 100;
      Result = search(Budget, Assumptions, ConflictsLeft);
      if (Result != SolveStatus::Limit)
        break;
      if (Cancel.cancelled()) {
        Result = SolveStatus::Cancelled;
        break;
      }
      if (budgetExpired(ConflictsLeft))
        break; // A genuine Limit, not a restart.
    }
    cancelUntil(0);
  }

  StatConflicts += Stats.Conflicts - Before.Conflicts;
  StatPropagations += Stats.Propagations - Before.Propagations;
  StatRestarts += Stats.Restarts - Before.Restarts;
  StatLearned += Stats.Learned - Before.Learned;
  return Result;
}

} // namespace pb
} // namespace modsched
