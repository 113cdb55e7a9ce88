//===- ilpsched/PbFormulation.h - PB modulo scheduling models ---*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the paper's modulo-scheduling formulation for the
/// conflict-driven pseudo-Boolean backend (pb::Solver). The structured
/// formulation's whole point — every dependence/resource row is
/// 0-1-structured (Ineq. 20) — makes this encoding direct:
///
///   a[r][i]  row-assignment binaries become literals; Eq. (1) is an
///            at-least-one clause plus an at-most-one cardinality row.
///   k[i]     integer stages become ORDER-ENCODED bit vectors over the
///            ASAP/ALAP stage window [KMin, KMax]: bit s means
///            "k_i >= KMin + s + 1", with monotonicity clauses
///            bit_{s} -> bit_{s-1}, so k_i = KMin + sum of bits and any
///            +/-1 coefficient on k_i turns into +/-1 coefficients on
///            bits — the dependence rows stay cardinality constraints.
///   deps     Ineq. (20)/(19) per MRT row, or the traditional Ineq. (4)
///            as a general PB row (coefficients r and II) — the same
///            slow-by-design ablation the ILP backend offers.
///   res      Ineq. (5) counting rows (at-most-Count cardinalities;
///            duplicate terms merge into coefficient-2 PB rows exactly
///            like lp::Model does).
///
/// Secondary objectives (MinReg / MinBuff / MinLife, structured style)
/// reuse the kill pseudo-op machinery of ilpsched/Formulation with
/// order-encoded kill stages and buffer/MaxLive counters. The objective
/// is NOT part of the PB model: optimization runs as solution-improving
/// descent — each incumbent adds a selector-gated "objective <= best-1"
/// PB row and the next solve assumes the selector's negation, so learned
/// clauses persist across bounds (assumption-based incrementality).
///
/// The stage windows, schedule-length budget, and bounds are computed
/// exactly as in ilpsched/Formulation, so both backends decide the same
/// feasible set per II and agree on optimal objective values — the ILP
/// cross-validation the differential tests enforce.
///
/// Not supported (PbFormulation::supports returns false; the scheduler
/// falls back to ILP with a one-time warning): InstanceMapped resource
/// constraints, Objective::MinSL, and ObjectiveStyle::Traditional.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_PBFORMULATION_H
#define MODSCHED_ILPSCHED_PBFORMULATION_H

#include "graph/DependenceGraph.h"
#include "ilpsched/Formulation.h"
#include "machine/MachineModel.h"
#include "pb/PbSolver.h"
#include "sched/ModuloSchedule.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace modsched {

/// The pseudo-Boolean model for one (graph, machine, II) triple, with
/// decoding metadata and the incremental objective-descent hooks.
class PbFormulation {
public:
  /// Builds the model. When the windows prove II infeasible, valid() is
  /// false and the solver is left empty. With \p ExplainGroups, every
  /// dependence edge and every modeled resource is gated behind a fresh
  /// selector literal (a true selector satisfies its rows outright);
  /// solving under explainAssumptions() enforces all groups, and an
  /// Unsat answer's core names the groups that conflict — the raw
  /// material for graph-level infeasibility witnesses.
  PbFormulation(const DependenceGraph &G, const MachineModel &M, int II,
                const FormulationOptions &Opts, bool ExplainGroups = false);

  /// True when \p Opts describes a formulation this backend can encode.
  static bool supports(const FormulationOptions &Opts);

  /// False when II was proved infeasible during window computation.
  bool valid() const { return Valid; }

  pb::Solver &solver() { return S; }
  int ii() const { return II; }
  /// Latest allowed start time (schedule-length budget).
  int maxTime() const { return MaxTime; }

  /// Solver variables / original constraint rows (model-shape telemetry,
  /// the PB analogue of lp::Model rows/columns).
  int numVariables() const { return S.numVars(); }
  int numConstraints() const { return int(S.exportRows().size()); }

  /// Constraint provenance: Origins[j] is the typed origin of export
  /// row j (same indexing as solver().exportRows()). Built
  /// unconditionally, like the ILP formulation's table.
  const std::vector<RowOrigin> &rowOrigins() const { return Origins; }

  /// ExplainGroups mode: negated group selectors to assume so every
  /// gated group is enforced. Empty when built without ExplainGroups.
  const std::vector<pb::Lit> &explainAssumptions() const {
    return ExplainAssumps;
  }

  /// ExplainGroups mode, after an Unsat answer under
  /// explainAssumptions(): the origins of the groups named by the
  /// solver's unsat core (empty when the core is empty, i.e. the
  /// ungated structural rows alone are unsatisfiable).
  std::vector<RowOrigin> coreOrigins() const;

  /// True when a secondary objective is being minimized.
  bool hasObjective() const { return !ObjTerms.empty() || ObjConst != 0; }

  /// Objective value of the solver's current model.
  int64_t evalObjective() const;

  /// Adds a selector-gated "objective <= Bound" row and replaces the
  /// descent assumption with the new selector's negation. Returns false
  /// when the solver became root-level unsatisfiable (the previous
  /// incumbent is optimal).
  bool pushObjectiveBound(int64_t Bound);

  /// Assumption literals for solve(): the current objective-descent
  /// selector (empty before the first pushObjectiveBound).
  const std::vector<pb::Lit> &assumptions() const { return Assumps; }

  /// Objective terms over literals plus constant (for OPB export).
  const std::vector<std::pair<pb::Lit, int64_t>> &objectiveTerms() const {
    return ObjTerms;
  }
  int64_t objectiveConstant() const { return ObjConst; }

  /// Decodes the solver's current model into a modulo schedule.
  ModuloSchedule decode() const;

private:
  /// An order-encoded bounded integer: value = Lo + number of true bits;
  /// bit s (variable BitBase + s) means "value >= Lo + s + 1".
  struct IntVar {
    int Lo = 0;
    int Hi = 0;
    pb::Var BitBase = -1;
    int numBits() const { return Hi - Lo; }
  };

  /// A linear expression over literals with an integer constant.
  struct LinExpr {
    std::vector<std::pair<pb::Lit, int64_t>> Terms;
    int64_t Constant = 0;
  };

  IntVar makeIntVar(int Lo, int Hi);
  int64_t intValue(const IntVar &V) const;
  /// Appends Coeff * V to \p E (constant + per-bit terms).
  void appendInt(LinExpr &E, const IntVar &V, int64_t Coeff) const;
  /// Appends Coeff * sum of row literals (Base + Lo .. Base + Hi).
  void appendRowRange(LinExpr &E, pb::Var RowBase, int Lo, int Hi,
                      int64_t Coeff) const;
  void addLe(LinExpr E, int64_t Rhs);
  void addGe(LinExpr E, int64_t Rhs);

  pb::Var aVar(int Row, int Op) const { return ABase + Op * II + Row; }
  pb::Lit aLit(int Row, int Op) const { return pb::posLit(aVar(Row, Op)); }

  void buildAssignment(pb::Var RowBase);
  void emitDependence(pb::Var SrcRowBase, const IntVar &SrcK,
                      pb::Var DstRowBase, const IntVar &DstK, int Latency,
                      int Distance, const RowOrigin &Origin);

  /// Tags every export row emitted since the previous call with \p O.
  void noteRows(const RowOrigin &O);
  /// ExplainGroups: gate subsequent addGe/addLe rows behind a fresh
  /// selector recorded with \p O; endGroup() closes the group.
  void beginGroup(const RowOrigin &O);
  void endGroup() { GateVar = -1; }
  void buildResource();
  void buildObjective();
  void buildKillOps();
  void appendLiveCount(LinExpr &E, int Reg, int Row) const;
  int minLifetimeBound(int Reg) const;

  const DependenceGraph &G;
  const MachineModel &M;
  int II;
  FormulationOptions Opts;
  bool ExplainGroups = false;
  bool Valid = false;
  int MaxTime = 0;
  int StageCount = 0;

  pb::Solver S;
  pb::Var ABase = 0;
  std::vector<IntVar> KVars;
  std::vector<int> Asap, Alap;

  /// Kill pseudo-op variables (MinReg / MinLife / RegisterLimit).
  std::vector<pb::Var> KillRowBase;
  std::vector<IntVar> KillStage;
  /// MinBuff buffer counters / MinReg MaxLive counter.
  std::vector<IntVar> BufferVars;
  IntVar MaxLiveVar;

  std::vector<std::pair<pb::Lit, int64_t>> ObjTerms;
  int64_t ObjConst = 0;
  std::vector<pb::Lit> Assumps;

  /// Export-row-id -> origin side table (parallel to S.exportRows()).
  std::vector<RowOrigin> Origins;
  /// ExplainGroups: active gate selector (-1 = none) and the selector ->
  /// origin map plus the ready-to-use negated-selector assumptions.
  pb::Var GateVar = -1;
  std::vector<std::pair<pb::Var, RowOrigin>> GroupSels;
  std::vector<pb::Lit> ExplainAssumps;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_PBFORMULATION_H
