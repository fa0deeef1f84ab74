//===- TestUtil.h - Shared test helpers -------------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_TESTUTIL_H
#define LAO_TESTS_TESTUTIL_H

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

namespace lao {
namespace test {

/// Parses \p Text, failing the test on parse errors.
inline std::unique_ptr<Function> parse(const std::string &Text) {
  std::string Error;
  auto F = parseFunction(Text, &Error);
  EXPECT_TRUE(F != nullptr) << "parse error: " << Error;
  return F;
}

/// Expects \p F to be structurally well-formed.
inline void expectWellFormed(const Function &F) {
  for (const std::string &D : verifyStructure(F))
    ADD_FAILURE() << F.name() << ": " << D;
}

/// Runs \p Before and \p After on the same inputs and expects identical
/// observable traces.
inline void expectEquivalent(const Function &Before, const Function &After,
                             const std::vector<uint64_t> &Args) {
  ExecResult RB = interpret(Before, Args);
  ExecResult RA = interpret(After, Args);
  ASSERT_TRUE(RB.ok()) << Before.name() << " (before): " << RB.Error;
  ASSERT_TRUE(RA.ok()) << After.name() << " (after): " << RA.Error
                     << "\n--- after code ---\n"
                     << printFunction(After);
  EXPECT_EQ(RB.RetValue, RA.RetValue)
      << "return values differ\n--- before ---\n"
      << printFunction(Before) << "--- after ---\n" << printFunction(After);
  EXPECT_EQ(RB.Outputs, RA.Outputs)
      << "output traces differ\n--- before ---\n"
      << printFunction(Before) << "--- after ---\n" << printFunction(After);
}

/// Runs \p Fn under a fresh StatsScope and returns the counters it
/// bumped on this thread, keyed "pass.name" (a counter that did not move
/// is absent, so `Counts["pass.name"]` reads 0 for it).
template <typename Callable> StatsSnapshot countersOf(Callable &&Fn) {
  StatsScope Scope;
  Fn();
  return Scope.snapshot();
}

} // namespace test
} // namespace lao

#endif // LAO_TESTS_TESTUTIL_H
