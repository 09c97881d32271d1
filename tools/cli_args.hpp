// Flag-value helpers shared by the ferro_* command-line tools. Every flag
// takes its value from the next argument; numeric values parse strictly
// (util::parse_number). A missing or malformed value prints a message and
// exits with status 2, the tools' usage-error code.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace ferro::cli {

/// The value after the flag argv[i]; advances i past it.
inline const char* arg_string(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value after %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// The value after the flag argv[i], parsed as T; advances i past it.
template <class T>
T arg_number(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const char* text = arg_string(argc, argv, i);
  const auto value = util::parse_number<T>(text);
  if (!value) {
    std::fprintf(stderr, "bad value '%s' for %s\n", text, flag);
    std::exit(2);
  }
  return *value;
}

}  // namespace ferro::cli
