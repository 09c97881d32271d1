#include "reference.hpp"

#include <sstream>

namespace perfbench {

std::vector<ReferenceRow> load_reference(const std::string& data_dir,
                                         const std::string& key) {
  std::istringstream in(read_file(data_dir + "/reference.txt"));
  std::vector<ReferenceRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string k;
    ReferenceRow row;
    if (!(fields >> k >> row.index) || k != key) continue;
    for (double x; fields >> x;) row.values.push_back(x);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace perfbench
