#pragma once

/// \file cli.hpp
/// The top-level error boundary of every bench and example program.

#include <exception>
#include <iostream>

namespace nocdvfs::common {

/// Runs a program's body and turns a std::exception escaping it — a
/// misconfiguration found after argument parsing (e.g. `islands=custom`
/// without `island_map=`), an unwritable output, a violated invariant —
/// into one `error: …` line on stderr and exit code 1, where
/// std::terminate would abort (exit 134). Errors raised on sweep workers
/// reach it too: SweepRunner rethrows them on the calling thread.
template <typename Body>
int run_main(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace nocdvfs::common
