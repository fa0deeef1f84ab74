//===- MiniJson.h - Minimal JSON reader -------------------------*- C++ -*-===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the two documents the
/// benchmark reads: the compile service's response records and the
/// committed BENCH_*.json tables it cross-checks against. Numbers keep
/// their source text so 64-bit values (exec outputs) read back exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MINIJSON_H
#define PERFBENCH_MINIJSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  std::string Text; ///< String contents, or a number's source text.
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  /// The field named \p Key of an object, or nullptr.
  const JsonValue *get(const std::string &Key) const;
  uint64_t asU64() const;
  double asDouble() const;
};

/// Parses \p Text; nullopt on malformed input.
std::optional<JsonValue> parseJson(const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_MINIJSON_H
