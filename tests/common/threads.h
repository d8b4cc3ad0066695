#ifndef SDADCS_TESTS_COMMON_THREADS_H_
#define SDADCS_TESTS_COMMON_THREADS_H_

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

namespace sdadcs::test_support {

/// Ids of this process's threads (Linux /proc). A multi-shard mine holds
/// its shard team for the whole search, so a progress callback sees it.
inline std::set<std::string> ThreadIds() {
  // ThreadSanitizer starts a helper thread along with the process's
  // first thread; start one here first so the helper is never counted
  // as a mine's.
  static const bool warmed = [] {
    std::thread([] {}).join();
    return true;
  }();
  (void)warmed;
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

/// Threads listed now that `before` did not list. Counting new ids,
/// rather than subtracting totals, keeps out a thread an earlier mine
/// already joined: the kernel wakes the joiner before it unlists the
/// exiting thread, so `before` may still list it and a later read may
/// not. Thread ids are not reused that soon.
inline size_t NewThreadsSince(const std::set<std::string>& before) {
  size_t count = 0;
  for (const std::string& id : ThreadIds()) count += before.count(id) == 0;
  return count;
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_THREADS_H_
