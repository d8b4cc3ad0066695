#ifndef SDADCS_UTIL_FORK_JOIN_TEAM_H_
#define SDADCS_UTIL_FORK_JOIN_TEAM_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace sdadcs::util {

/// A fork-join team for short, back-to-back fan-outs: the batches of
/// attribute combinations one multi-shard mine mines at once (DESIGN.md
/// §12). The thread that calls Run is a member too; `width - 1` worker
/// threads are the others. Members claim the indices of a fan-out one
/// at a time, in ascending order, so a member the OS has not scheduled
/// holds up only an index it already claimed. Between fan-outs a worker
/// spins on the team's epoch for kSpinBudget and only then parks in
/// atomic::wait, and a notify with no thread parked makes no system
/// call, so a fan-out that follows the previous one within the budget
/// starts and joins in user space. (A ThreadPool round trip pays a
/// lock, a queue node and a futex wake per task.)
///
///   ForkJoinTeam team(4);
///   team.Run(7, [&](size_t i) { results[i] = Mine(combos[i]); });
///
/// One thread drives a team: Run is neither reentrant nor safe to call
/// from two threads at once. Tasks must not throw (the library does not
/// use exceptions).
class ForkJoinTeam {
 public:
  /// How long a waiting member spins before it parks. A time, not an
  /// iteration count: one pause instruction takes ~20 ns on some cores
  /// and a few cycles on others.
  static constexpr std::chrono::microseconds kSpinBudget{500};

  /// Spawns `width - 1` workers; a width of 0 is treated as 1.
  explicit ForkJoinTeam(size_t width);

  /// Wakes parked workers and joins them.
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  /// Members, the calling thread included.
  size_t width() const { return workers_.size() + 1; }

  /// Runs fn(i) once for every i in [0, n) and returns when all calls
  /// have returned. Any member may run any index, the caller included.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs indices of the open fan-out until none is left.
  void Work();

  // The current fan-out. Run writes fn_ and n_ while no worker is
  // active and then opens the fan-out; a worker reads them only between
  // counting itself active and leaving, and only if it found the
  // fan-out open.
  const std::function<void(size_t)>* fn_ = nullptr;
  uint32_t n_ = 0;
  // Set by the destructor before its epoch bump. Atomic because a worker
  // that wakes late for an earlier fan-out may read it meanwhile.
  std::atomic<bool> stop_{false};
  // Bumped once per fan-out and once by the destructor.
  std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> open_{false};
  // Workers between their check of open_ and their exit from Work.
  std::atomic<uint32_t> active_{0};
  // The next index to claim, and the indices not yet returned.
  std::atomic<uint32_t> next_{0};
  std::atomic<uint32_t> unfinished_{0};
  std::vector<std::thread> workers_;
};

}  // namespace sdadcs::util

#endif  // SDADCS_UTIL_FORK_JOIN_TEAM_H_
