//===- ilpsched/PbFormulation.cpp - PB modulo scheduling models -----------===//

#include "ilpsched/PbFormulation.h"

#include "graph/GraphAlgorithms.h"

#include <algorithm>
#include <cassert>

using namespace modsched;

namespace {

/// Floored integer division (C++ '/' truncates toward zero).
int floorDiv(int A, int B) {
  assert(B > 0 && "divisor must be positive");
  int Q = A / B;
  if (A % B != 0 && (A < 0))
    --Q;
  return Q;
}

/// Non-negative remainder.
int modPos(int A, int B) {
  int R = A % B;
  return R < 0 ? R + B : R;
}

} // namespace

bool PbFormulation::supports(const FormulationOptions &O) {
  if (O.InstanceMapped)
    return false; // Marginal/conflict rows need the y auxiliaries.
  if (O.Obj == Objective::MinSL)
    return false; // Sink machinery not encoded.
  if (O.Obj != Objective::None && O.ObjStyle == ObjectiveStyle::Traditional)
    return false; // Only the structured objective machinery is encoded.
  return true;
}

PbFormulation::PbFormulation(const DependenceGraph &DG, const MachineModel &MM,
                             int TheII, const FormulationOptions &Options,
                             bool WithExplainGroups)
    : G(DG), M(MM), II(TheII), Opts(Options),
      ExplainGroups(WithExplainGroups) {
  assert(II >= 1 && "initiation interval must be positive");
  assert(supports(Opts) && "options not supported by the PB backend");

  // Windows and budgets: identical to ilpsched/Formulation so both
  // backends decide the same feasible set per II.
  std::optional<int> MinLen = minScheduleLength(G, II);
  if (!MinLen)
    return; // II below the recurrence bound: infeasible.
  int Budget = *MinLen - 1 + Opts.ScheduleLengthSlack;
  StageCount = Budget / II + 1;
  MaxTime = StageCount * II - 1;

  std::optional<std::vector<int>> AsapOpt = asapTimes(G, II);
  std::optional<std::vector<int>> AlapOpt = alapTimes(G, II, MaxTime);
  if (!AsapOpt || !AlapOpt)
    return;
  Asap = std::move(*AsapOpt);
  Alap = std::move(*AlapOpt);
  for (int Op = 0; Op < G.numOperations(); ++Op)
    if (Asap[Op] > Alap[Op])
      return; // Window empty: II infeasible within the budget.
  Valid = true;

  int N = G.numOperations();

  // A matrix: a[r][i] literals, laid out op-major exactly like the ILP.
  ABase = S.numVars();
  for (int V = 0; V < N * II; ++V)
    S.newVar();

  // k vector: order-encoded stages with window-derived bounds.
  KVars.reserve(size_t(N));
  for (int Op = 0; Op < N; ++Op) {
    int KMin = 0, KMax = StageCount - 1;
    if (Opts.TightenStageBounds) {
      KMin = Asap[Op] / II;
      KMax = Alap[Op] / II;
    }
    KVars.push_back(makeIntVar(KMin, KMax));
    noteRows(RowOrigin::stageWindow(Op));
  }

  for (int Op = 0; Op < N; ++Op) {
    buildAssignment(ABase + Op * II);
    noteRows(RowOrigin::assignment(Op));
  }
  for (int Edge = 0; Edge < G.numSchedEdges(); ++Edge) {
    const SchedEdge &E = G.schedEdges()[Edge];
    RowOrigin O = RowOrigin::depEdge(Edge, E);
    if (ExplainGroups)
      beginGroup(O);
    emitDependence(ABase + E.Src * II, KVars[size_t(E.Src)],
                   ABase + E.Dst * II, KVars[size_t(E.Dst)], E.Latency,
                   E.Distance, O);
    endGroup();
  }
  buildResource();
  buildObjective();
  assert(Origins.size() == S.exportRows().size() &&
         "provenance side table out of sync with emitted rows");
}

void PbFormulation::noteRows(const RowOrigin &O) {
  Origins.resize(S.exportRows().size(), O);
}

void PbFormulation::beginGroup(const RowOrigin &O) {
  GateVar = S.newVar();
  GroupSels.push_back({GateVar, O});
  ExplainAssumps.push_back(pb::negLit(GateVar));
}

std::vector<RowOrigin> PbFormulation::coreOrigins() const {
  std::vector<RowOrigin> Result;
  for (pb::Lit L : S.unsatCore())
    for (const std::pair<pb::Var, RowOrigin> &Sel : GroupSels)
      if (Sel.first == L.var())
        Result.push_back(Sel.second);
  return Result;
}

PbFormulation::IntVar PbFormulation::makeIntVar(int Lo, int Hi) {
  assert(Lo <= Hi && "empty integer domain");
  IntVar V;
  V.Lo = Lo;
  V.Hi = Hi;
  V.BitBase = S.numVars();
  for (int B = 0; B < Hi - Lo; ++B)
    S.newVar();
  // Order encoding: bit s implies bit s-1, so models are exactly the
  // unary encodings of Lo .. Hi.
  for (int B = 1; B < Hi - Lo; ++B)
    S.addClause({pb::negLit(V.BitBase + B), pb::posLit(V.BitBase + B - 1)});
  return V;
}

int64_t PbFormulation::intValue(const IntVar &V) const {
  int64_t Val = V.Lo;
  for (int B = 0; B < V.numBits(); ++B)
    if (S.modelValue(V.BitBase + B))
      ++Val;
  return Val;
}

void PbFormulation::appendInt(LinExpr &E, const IntVar &V,
                              int64_t Coeff) const {
  if (Coeff == 0)
    return;
  E.Constant += Coeff * V.Lo;
  for (int B = 0; B < V.numBits(); ++B)
    E.Terms.push_back({pb::posLit(V.BitBase + B), Coeff});
}

void PbFormulation::appendRowRange(LinExpr &E, pb::Var RowBase, int Lo, int Hi,
                                   int64_t Coeff) const {
  for (int Row = Lo; Row <= Hi; ++Row)
    E.Terms.push_back({pb::posLit(RowBase + Row), Coeff});
}

void PbFormulation::addGe(LinExpr E, int64_t Rhs) {
  int64_t Degree = Rhs - E.Constant;
  if (GateVar >= 0) {
    // Gate the row behind the active group selector: a true selector
    // contributes enough weight to satisfy the row outright (the same
    // trick pushObjectiveBound uses), so only solves assuming the
    // negated selector enforce it.
    int64_t NegSum = 0;
    for (const std::pair<pb::Lit, int64_t> &T : E.Terms)
      NegSum += std::min<int64_t>(T.second, 0);
    int64_t Weight = std::max<int64_t>(Degree - NegSum, 1);
    E.Terms.push_back({pb::posLit(GateVar), Weight});
  }
  S.addLinear(std::move(E.Terms), Degree);
}

void PbFormulation::addLe(LinExpr E, int64_t Rhs) {
  for (std::pair<pb::Lit, int64_t> &T : E.Terms)
    T.second = -T.second;
  E.Constant = -E.Constant;
  addGe(std::move(E), -Rhs);
}

void PbFormulation::buildAssignment(pb::Var RowBase) {
  // Eq. (1): exactly one row. At-least-one clause plus an at-most-one
  // cardinality row (sum of negations >= II - 1).
  std::vector<pb::Lit> AtLeast;
  AtLeast.reserve(size_t(II));
  for (int Row = 0; Row < II; ++Row)
    AtLeast.push_back(pb::posLit(RowBase + Row));
  S.addClause(std::move(AtLeast));
  if (II > 1) {
    std::vector<pb::Lit> AtMost;
    AtMost.reserve(size_t(II));
    for (int Row = 0; Row < II; ++Row)
      AtMost.push_back(pb::negLit(RowBase + Row));
    S.addAtLeast(std::move(AtMost), II - 1);
  }
}

void PbFormulation::emitDependence(pb::Var SrcRowBase, const IntVar &SrcK,
                                   pb::Var DstRowBase, const IntVar &DstK,
                                   int Latency, int Distance,
                                   const RowOrigin &Origin) {
  if (Opts.DepStyle == DependenceStyle::Traditional) {
    // Ineq. (4): sum_r r*(a_dst - a_src) + (k_dst - k_src)*II
    //            >= latency - distance*II. A general PB row.
    LinExpr E;
    for (int Row = 1; Row < II; ++Row) {
      E.Terms.push_back({pb::posLit(DstRowBase + Row), Row});
      E.Terms.push_back({pb::posLit(SrcRowBase + Row), -Row});
    }
    appendInt(E, DstK, II);
    appendInt(E, SrcK, -II);
    addGe(std::move(E), int64_t(Latency) - int64_t(Distance) * II);
    noteRows(Origin);
    return;
  }

  // Ineq. (19)/(20): one cardinality-like row per MRT row (identical to
  // Formulation::emitDependence; see the comment there).
  bool Tighten = Opts.DepStyle == DependenceStyle::Structured;
  for (int Row = 0; Row < II; ++Row) {
    int F = floorDiv(Row + Latency - 1, II);
    int RowF = modPos(Row + Latency - 1, II);
    LinExpr E;
    if (Tighten)
      appendRowRange(E, SrcRowBase, Row, II - 1, 1);
    else
      E.Terms.push_back({pb::posLit(SrcRowBase + Row), 1});
    appendRowRange(E, DstRowBase, 0, RowF, 1);
    appendInt(E, SrcK, 1);
    appendInt(E, DstK, -1);
    addLe(std::move(E), int64_t(Distance) - F + 1);
  }
  noteRows(Origin);
}

void PbFormulation::buildResource() {
  // Ineq. (5). Resources whose total usage cannot exceed their
  // multiplicity in any row are not modeled (paper convention).
  std::vector<int> TotalUses(size_t(M.numResources()), 0);
  for (const Operation &Op : G.operations())
    for (const ResourceUsage &U : M.opClass(Op.OpClass).Usages)
      ++TotalUses[size_t(U.Resource)];

  for (int R = 0; R < M.numResources(); ++R) {
    if (TotalUses[size_t(R)] <= M.resource(R).Count)
      continue;
    if (ExplainGroups)
      beginGroup(RowOrigin::resource(R, -1));
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Op = 0; Op < G.numOperations(); ++Op) {
        const OpClass &Class = M.opClass(G.operation(Op).OpClass);
        for (const ResourceUsage &U : Class.Usages) {
          if (U.Resource != R)
            continue;
          int SrcRow = modPos(Row - U.Cycle, II);
          E.Terms.push_back({aLit(SrcRow, Op), 1});
        }
      }
      // Duplicate literals (usage cycles congruent mod II) merge into
      // coefficient-2 terms during normalization, exactly like lp::Model.
      addLe(std::move(E), M.resource(R).Count);
      noteRows(RowOrigin::resource(R, Row));
    }
    endGroup();
  }
}

void PbFormulation::appendLiveCount(LinExpr &E, int Reg, int Row) const {
  const VirtualRegister &R = G.registers()[size_t(Reg)];
  appendInt(E, KillStage[size_t(Reg)], 1);
  appendInt(E, KVars[size_t(R.Def)], -1);
  appendRowRange(E, KillRowBase[size_t(Reg)], Row, II - 1, 1);
  if (Row + 1 <= II - 1)
    appendRowRange(E, ABase + R.Def * II, Row + 1, II - 1, -1);
}

int PbFormulation::minLifetimeBound(int Reg) const {
  const VirtualRegister &R = G.registers()[size_t(Reg)];
  int Bound = 1; // Live at least in the definition cycle.
  for (const RegisterUse &U : R.Uses) {
    for (const SchedEdge &E : G.schedEdges())
      if (E.Src == R.Def && E.Dst == U.Consumer && E.Distance == U.Distance)
        Bound = std::max(Bound, E.Latency + 1);
  }
  return Bound;
}

void PbFormulation::buildKillOps() {
  if (!KillRowBase.empty())
    return; // Already built.
  int NumRegs = G.numRegisters();
  KillRowBase.assign(size_t(NumRegs), -1);
  KillStage.resize(size_t(NumRegs));
  for (int Reg = 0; Reg < NumRegs; ++Reg) {
    const VirtualRegister &R = G.registers()[size_t(Reg)];
    KillRowBase[size_t(Reg)] = S.numVars();
    for (int Row = 0; Row < II; ++Row)
      S.newVar();
    // Stage bounds: identical to Formulation::buildKillOps.
    int KMin = 0, KMax = StageCount - 1;
    if (Opts.TightenStageBounds) {
      KMin = Asap[size_t(R.Def)] / II;
      KMax = Alap[size_t(R.Def)] / II;
      for (const RegisterUse &U : R.Uses)
        KMax = std::max(KMax, Alap[size_t(U.Consumer)] / II + U.Distance);
    } else {
      for (const RegisterUse &U : R.Uses)
        KMax = std::max(KMax, StageCount - 1 + U.Distance);
    }
    KillStage[size_t(Reg)] = makeIntVar(KMin, KMax);

    buildAssignment(KillRowBase[size_t(Reg)]);
    noteRows(RowOrigin::objectiveLink(Reg));

    // The kill follows the definition and every use (latency 0,
    // distance -w for a use at distance w).
    emitDependence(ABase + R.Def * II, KVars[size_t(R.Def)],
                   KillRowBase[size_t(Reg)], KillStage[size_t(Reg)],
                   /*Latency=*/0, /*Distance=*/0,
                   RowOrigin::objectiveLink(Reg));
    for (const RegisterUse &U : R.Uses)
      emitDependence(ABase + U.Consumer * II, KVars[size_t(U.Consumer)],
                     KillRowBase[size_t(Reg)], KillStage[size_t(Reg)],
                     /*Latency=*/0, -U.Distance,
                     RowOrigin::objectiveLink(Reg));
  }
}

void PbFormulation::buildObjective() {
  // Appends Coeff * V to the objective (constant + per-bit terms).
  auto AppendObjInt = [this](const IntVar &V, int64_t Coeff) {
    LinExpr E;
    appendInt(E, V, Coeff);
    ObjConst += E.Constant;
    ObjTerms.insert(ObjTerms.end(), E.Terms.begin(), E.Terms.end());
  };

  // Register-file budget: hard per-row cap on the live count.
  if (Opts.RegisterLimit >= 0 && G.numRegisters() > 0) {
    assert(Opts.Obj != Objective::MinReg &&
           "RegisterLimit with MinReg is redundant; pick one");
    buildKillOps();
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Reg = 0; Reg < G.numRegisters(); ++Reg)
        appendLiveCount(E, Reg, Row);
      addLe(std::move(E), Opts.RegisterLimit);
    }
    noteRows(RowOrigin::objectiveLink());
  }

  if (Opts.Obj == Objective::None)
    return;
  assert(Opts.Obj != Objective::MinSL && "rejected by supports()");

  if (G.numRegisters() == 0)
    return; // All register objectives are trivially zero.

  int NumRegs = G.numRegisters();
  if (Opts.Obj == Objective::MinReg || Opts.Obj == Objective::MinLife)
    buildKillOps();

  switch (Opts.Obj) {
  case Objective::None:
  case Objective::MinSL:
    break; // Handled above.

  case Objective::MinReg: {
    // MaxLive >= sum of per-register live counts, for every row; the
    // counter is order-encoded between the same bounds the ILP derives
    // (lower: ceil(sum of minimum lifetimes / II); upper: sum of the
    // per-register worst-case stage spans, which no live count exceeds).
    int64_t MinTotalLife = 0;
    for (int Reg = 0; Reg < NumRegs; ++Reg)
      MinTotalLife += minLifetimeBound(Reg);
    int MaxLiveLb = int((MinTotalLife + II - 1) / II);
    int MaxLiveUb = 0;
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      MaxLiveUb +=
          KillStage[size_t(Reg)].Hi - KVars[size_t(R.Def)].Lo + 1;
    }
    MaxLiveUb = std::max(MaxLiveUb, MaxLiveLb);
    MaxLiveVar = makeIntVar(MaxLiveLb, MaxLiveUb);
    for (int Row = 0; Row < II; ++Row) {
      LinExpr E;
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        appendLiveCount(E, Reg, Row);
      appendInt(E, MaxLiveVar, -1);
      addLe(std::move(E), 0);
    }
    noteRows(RowOrigin::objectiveLink());
    AppendObjInt(MaxLiveVar, 1);
    break;
  }

  case Objective::MinBuff: {
    // Structured ([15]-style) buffer counting, one +/-1 row per
    // (use, MRT row); the buffer counter's window is the largest stage
    // span any use can force.
    BufferVars.resize(size_t(NumRegs));
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      int BufLb = (minLifetimeBound(Reg) + II - 1) / II;
      int BufUb = BufLb;
      for (const RegisterUse &U : R.Uses)
        BufUb = std::max(BufUb, KVars[size_t(U.Consumer)].Hi + U.Distance -
                                    KVars[size_t(R.Def)].Lo + 1);
      BufferVars[size_t(Reg)] = makeIntVar(BufLb, BufUb);
      for (const RegisterUse &U : R.Uses) {
        for (int Row = 0; Row < II; ++Row) {
          LinExpr E;
          appendInt(E, KVars[size_t(U.Consumer)], 1);
          appendInt(E, KVars[size_t(R.Def)], -1);
          appendInt(E, BufferVars[size_t(Reg)], -1);
          appendRowRange(E, ABase + U.Consumer * II, Row, II - 1, 1);
          if (Row + 1 <= II - 1)
            appendRowRange(E, ABase + R.Def * II, Row + 1, II - 1, -1);
          addLe(std::move(E), -int64_t(U.Distance));
        }
      }
      noteRows(RowOrigin::objectiveLink(Reg));
      AppendObjInt(BufferVars[size_t(Reg)], 1);
    }
    break;
  }

  case Objective::MinLife: {
    // Structured: objective-only terms, no auxiliary constraints. Total
    // lifetime of v is II*(killStage - k_def) + sum_z (z+1)*killRow[z]
    // - sum_z z*a[z][def] (see Formulation.h).
    for (int Reg = 0; Reg < NumRegs; ++Reg) {
      const VirtualRegister &R = G.registers()[size_t(Reg)];
      AppendObjInt(KillStage[size_t(Reg)], II);
      AppendObjInt(KVars[size_t(R.Def)], -II);
      for (int Row = 0; Row < II; ++Row) {
        ObjTerms.push_back(
            {pb::posLit(KillRowBase[size_t(Reg)] + Row), Row + 1});
        if (Row > 0)
          ObjTerms.push_back({aLit(Row, R.Def), -Row});
      }
    }
    break;
  }
  }
}

int64_t PbFormulation::evalObjective() const {
  int64_t Val = ObjConst;
  for (const std::pair<pb::Lit, int64_t> &T : ObjTerms)
    if (S.modelValue(T.first.var()) != T.first.negated())
      Val += T.second;
  return Val;
}

bool PbFormulation::pushObjectiveBound(int64_t Bound) {
  // objective <= Bound, i.e. sum(-c_i * l_i) >= ObjConst - Bound, gated
  // by a fresh selector: a true selector contributes enough weight to
  // satisfy the row outright, so only solves assuming ~selector enforce
  // the bound — and learned clauses survive every tightening.
  pb::Var Sel = S.newVar();
  std::vector<std::pair<pb::Lit, int64_t>> Terms;
  Terms.reserve(ObjTerms.size() + 1);
  int64_t PosSum = 0;
  for (const std::pair<pb::Lit, int64_t> &T : ObjTerms) {
    Terms.push_back({T.first, -T.second});
    PosSum += std::max<int64_t>(T.second, 0);
  }
  int64_t Degree = ObjConst - Bound;
  int64_t Weight = std::max<int64_t>(Degree + PosSum, 1);
  Terms.push_back({pb::posLit(Sel), Weight});
  bool RowOk = S.addLinear(std::move(Terms), Degree);
  noteRows(RowOrigin::objectiveLink());
  Assumps.assign(1, pb::negLit(Sel));
  return RowOk && S.okay();
}

ModuloSchedule PbFormulation::decode() const {
  assert(Valid && "cannot decode from an invalid formulation");
  int N = G.numOperations();
  std::vector<int> Times(size_t(N), 0);
  for (int Op = 0; Op < N; ++Op) {
    int Row = -1;
    for (int R = 0; R < II; ++R) {
      if (S.modelValue(aVar(R, Op))) {
        assert(Row < 0 && "operation assigned to two MRT rows");
        Row = R;
      }
    }
    assert(Row >= 0 && "operation not assigned to any MRT row");
    Times[size_t(Op)] = int(intValue(KVars[size_t(Op)])) * II + Row;
  }
  return ModuloSchedule(II, std::move(Times));
}
