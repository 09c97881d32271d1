// Accuracy reference data: fine-step figures generated once (see
// perfbench/README.md) and stored in perfbench/data/reference.txt. A run
// only reads them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Seed of the fixed reference sample, independent of --seed so that every
/// run compares the same corners and scenarios against the same figures.
inline constexpr std::uint64_t kReferenceSeed = 20060306;

/// One stored row: `<key> <index> <values...>`.
struct ReferenceRow {
  std::size_t index = 0;
  std::vector<double> values;
};

/// Rows of `key` in data_dir/reference.txt, in file order.
[[nodiscard]] std::vector<ReferenceRow> load_reference(
    const std::string& data_dir, const std::string& key);

/// Appends the reference rows of one workload (fine-step runs) to `out`.
void append_mc_reference(const Options& options, bool rectifier, std::FILE* out);
void append_stream_reference(std::FILE* out);

}  // namespace perfbench
