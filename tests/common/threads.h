#ifndef SDADCS_TESTS_COMMON_THREADS_H_
#define SDADCS_TESTS_COMMON_THREADS_H_

#include <cstddef>
#include <filesystem>
#include <iterator>
#include <thread>

namespace sdadcs::test_support {

/// Threads of this process (Linux /proc). A multi-shard mine holds its
/// shard team for the whole search, so a progress callback sees it.
inline size_t ThreadCount() {
  // ThreadSanitizer starts a helper thread along with the process's
  // first thread; start one here first so the helper is never counted
  // as a mine's.
  static const bool warmed = [] {
    std::thread([] {}).join();
    return true;
  }();
  (void)warmed;
  namespace fs = std::filesystem;
  return static_cast<size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_THREADS_H_
