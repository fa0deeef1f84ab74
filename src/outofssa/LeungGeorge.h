//===- LeungGeorge.h - Out-of-pinned-SSA translation ------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mark and reconstruct phases of Leung & George's out-of-SSA
/// algorithm for machine-level SSA (PLDI 1999), as used and refined by
/// the paper (Section 2.3). Input is pinned SSA; output is non-SSA code
/// where:
///
///  * every variable is renamed to its resource-class representative
///    (physical register or class-leader virtual),
///  * each phi becomes entries of a parallel copy at the end of each
///    predecessor, *elided* when the destination resource already holds
///    the flowing value,
///  * each use pinned to a resource gets a copy into that resource before
///    the instruction, again elided when already in place,
///  * a variable whose resource is overwritten before a use ("killed") is
///    *repaired*: a copy into a fresh variable placed right after its
///    definition, with post-kill uses reading the repair (Figure 3).
///
/// The mark phase is a forward dataflow per resource class: "which SSA
/// variable's value does this resource hold here". The reconstruct phase
/// replays it, rewriting operands and materializing the copies. Parallel
/// copies are left as ParCopy instructions; run
/// sequentializeParallelCopies afterwards to lower them to moves (this
/// separation keeps the swap problem visible in tests).
///
/// Requires: SSA input, critical edges split (splitCriticalEdges), and a
/// PinningContext carrying all pins.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_LEUNGGEORGE_H
#define LAO_OUTOFSSA_LEUNGGEORGE_H

#include "outofssa/PinningContext.h"

#include <functional>
#include <utility>
#include <vector>

namespace lao {

/// Translates \p F out of SSA under the pinning in \p Ctx. Mutates F.
/// Counts into the translate.* registry counters (repairs, phi_copies,
/// pin_copies, elided_copies, phis_removed, inserts).
void translateOutOfSSA(Function &F, PinningContext &Ctx, const CFG &Cfg);

/// One parallel-copy entry: (destination, source).
using CopyPair = std::pair<RegId, RegId>;

/// Sequentializes the non-identity (dst, src) entries of one parallel
/// copy into an ordered move list appended to \p Out: a copy is emitted
/// as soon as its destination is no longer needed as a source, and pure
/// cycles are broken with a fresh temporary from \p MakeTemp (the swap
/// problem). Shared by the IR lowering below and the bytecode compiler
/// (src/exec/Bytecode.cpp) so both produce the same move sequence.
void sequentializeCopyPairs(std::vector<CopyPair> Entries,
                            const std::function<RegId()> &MakeTemp,
                            std::vector<CopyPair> &Out);

/// Lowers every ParCopy into a sequence of Mov instructions, inserting
/// fresh temporaries to break copy cycles (the swap problem). Identity
/// entries are dropped. Returns the number of moves emitted.
unsigned sequentializeParallelCopies(Function &F);

} // namespace lao

#endif // LAO_OUTOFSSA_LEUNGGEORGE_H
