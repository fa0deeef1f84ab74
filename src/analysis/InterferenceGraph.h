//===- InterferenceGraph.h - Post-SSA interference graph --------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin-style interference graph for non-SSA code, used by the
/// aggressive "repeated register coalescing" baseline (the paper's [C]
/// configurations). Two registers interfere when one is defined at a point
/// where the other is live, except that the destination of a move does not
/// interfere with its source at that move (Chaitin's refinement).
///
/// Hybrid representation (the classic Chaitin trade-off): a lower-
/// triangular bit matrix answers `interfere(A, B)` in O(1), while sorted
/// per-node adjacency vectors give cache-friendly, *deterministic*
/// neighbor iteration — `neighbors()` always enumerates in ascending
/// RegId order, so every order-sensitive client (coalescer merge loops,
/// allocator color scans) behaves identically run to run.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_INTERFERENCEGRAPH_H
#define LAO_ANALYSIS_INTERFERENCEGRAPH_H

#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace lao {

/// Undirected interference graph over register ids.
class InterferenceGraph {
public:
  /// Builds the graph for non-SSA code (no phis; parallel copies allowed).
  InterferenceGraph(const Function &F, const Liveness &LV);

  bool interfere(RegId A, RegId B) const {
    if (A == B)
      return false;
    return Matrix.test(triIndex(A, B));
  }

  /// Merges \p Dead into \p Rep in place: Rep's neighborhood becomes the
  /// union of both, Dead's row empties, and every third node's adjacency
  /// list is patched. O(deg(Rep) + deg(Dead)) — the new Rep row is one
  /// merge-join of two sorted lists, and each of Dead's neighbors gets a
  /// single in-place shift (no per-edge binary-search insert). The
  /// `neighbors()` sortedness invariant is preserved throughout, so
  /// order-sensitive clients see the same deterministic iteration they
  /// would after a rebuild.
  void mergeNodes(RegId Rep, RegId Dead);

  /// Removes the edge {A, B}. The incremental coalescer uses this when
  /// its round-boundary repair scan proves a unioned edge is not present
  /// in the exact graph of the rewritten program.
  void removeEdge(RegId A, RegId B) {
    assert(A != B && "no self-edges");
    size_t Idx = triIndex(A, B);
    if (!Matrix.test(Idx))
      return;
    Matrix.reset(Idx);
    sortedErase(Adj[A], B);
    sortedErase(Adj[B], A);
  }

  size_t numNodes() const { return Adj.size(); }

  /// B's neighbors in ascending RegId order (deterministic).
  const std::vector<RegId> &neighbors(RegId A) const { return Adj[A]; }

  void addEdge(RegId A, RegId B) {
    if (A == B)
      return;
    size_t Idx = triIndex(A, B);
    if (Matrix.test(Idx))
      return;
    Matrix.set(Idx);
    sortedInsert(Adj[A], B);
    sortedInsert(Adj[B], A);
  }

private:
  /// Index of the unordered pair {A, B} in the lower-triangular matrix.
  static size_t triIndex(RegId A, RegId B) {
    assert(A != B && "no self-edges");
    if (A < B)
      std::swap(A, B);
    return static_cast<size_t>(A) * (A - 1) / 2 + B;
  }

  static void sortedInsert(std::vector<RegId> &Vec, RegId V) {
    Vec.insert(std::lower_bound(Vec.begin(), Vec.end(), V), V);
  }

  static void sortedErase(std::vector<RegId> &Vec, RegId V) {
    auto It = std::lower_bound(Vec.begin(), Vec.end(), V);
    assert(It != Vec.end() && *It == V && "erasing a missing neighbor");
    Vec.erase(It);
  }

  BitVector Matrix; ///< Lower-triangular adjacency bits.
  std::vector<std::vector<RegId>> Adj;
};

} // namespace lao

#endif // LAO_ANALYSIS_INTERFERENCEGRAPH_H
