//===- lp/Certificate.h - Engine-independent LP answer check ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks an LP verdict against its certificate using only the model,
/// the solved bounds and the certificate itself — no solver state, no
/// second engine. For
///
///   minimize c'x  subject to  a_i x (LE | GE | EQ) b_i,  l <= x <= u
///
/// an Optimal verdict carries primal values x and row duals y
/// (LpResult::Duals). It is accepted when
///  * x lies in the bounds and satisfies every row;
///  * y has the sign each row sense allows (LE: y_i <= 0, GE: y_i >= 0,
///    EQ: free);
///  * every reduced cost d = c - A'y points at a finite bound (d_j > 0
///    needs a finite l_j, d_j < 0 a finite u_j);
///  * the dual objective y'b + sum_j d_j * (d_j > 0 ? l_j : u_j) equals
///    c'x (weak duality then proves x optimal; a zero gap is exactly
///    complementary slackness).
///
/// An Infeasible verdict carries a Farkas ray y. It is accepted when the
/// range of (y'A)x over the bound box and the range of sum_i y_i r_i
/// over the row ranges (r_i <= b_i, r_i >= b_i or r_i = b_i) are
/// disjoint: no x in the box can make every row hold. An empty bound box
/// (some l_j > u_j) is its own certificate and needs no ray.
///
/// Solves produce certificates under SimplexOptions::CollectCertificate.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_CERTIFICATE_H
#define MODSCHED_LP_CERTIFICATE_H

#include "lp/Model.h"
#include "lp/Simplex.h"

#include <optional>
#include <string>
#include <vector>

namespace modsched {
namespace lp {

/// Checks \p R (a solve of \p M under bounds \p Lower / \p Upper) against
/// its certificate, with relative tolerance \p Tol. Returns std::nullopt
/// when the certificate proves the verdict, else why it does not.
/// Statuses other than Optimal and Infeasible carry no certificate and
/// are always rejected.
std::optional<std::string> checkLpCertificate(const Model &M,
                                              const std::vector<double> &Lower,
                                              const std::vector<double> &Upper,
                                              const LpResult &R,
                                              double Tol = 1e-6);

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_CERTIFICATE_H
