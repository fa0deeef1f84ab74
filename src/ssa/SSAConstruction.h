//===- SSAConstruction.h - Pruned SSA construction --------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pruned SSA construction after Cytron et al. (TOPLAS 1991), the flavour
/// the paper uses. Phi instructions are placed at the iterated dominance
/// frontier of each variable's definition blocks, restricted to blocks
/// where the variable is live-in (pruning), then definitions are renamed
/// along a dominator-tree walk.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SSA_SSACONSTRUCTION_H
#define LAO_SSA_SSACONSTRUCTION_H

#include "ir/Function.h"

namespace lao {

/// Converts \p F (non-SSA, virtual registers possibly multiply defined,
/// no phis) into pruned SSA form, in place. Every use must have a
/// definition on every path from the entry (the workload generators and
/// parser-based tests guarantee this). Counts into the ssa.* registry
/// counters (phis_inserted, vars_renamed).
void buildSSA(Function &F);

} // namespace lao

#endif // LAO_SSA_SSACONSTRUCTION_H
