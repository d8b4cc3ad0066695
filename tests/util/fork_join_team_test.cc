#include "util/fork_join_team.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/timer.h"

namespace sdadcs::util {
namespace {

// Long enough that every worker has spent its spin budget and parked.
void SleepPastSpinBudget() {
  std::this_thread::sleep_for(ForkJoinTeam::kSpinBudget * 20);
}

TEST(ForkJoinTeamTest, EveryIndexRunsOnce) {
  // Widths 1-4 against 1-9 indices: fewer, as many and more indices
  // than members.
  for (size_t width = 1; width <= 4; ++width) {
    ForkJoinTeam team(width);
    EXPECT_EQ(team.width(), width);
    for (size_t n = 1; n <= 9; ++n) {
      std::vector<std::atomic<int>> runs(n);
      team.Run(n, [&](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "width " << width << " n " << n << " index " << i;
      }
    }
  }
}

TEST(ForkJoinTeamTest, AnIndexMayWaitForAllOthers) {
  // Members claim indices as they get to them, so while one member is
  // stuck in an index the others run every remaining one. (With indices
  // dealt to members up front, the stuck member's other indices would
  // never run.)
  ForkJoinTeam team(2);
  std::atomic<int> others{0};
  std::atomic<bool> first_started{false};
  team.Run(4, [&](size_t) {
    if (!first_started.exchange(true)) {
      // The first index to start waits for the other three.
      WallTimer timer;
      while (others.load() < 3 && timer.Seconds() < 10.0) {
        std::this_thread::yield();
      }
      return;
    }
    others.fetch_add(1);
  });
  EXPECT_EQ(others.load(), 3);
}

TEST(ForkJoinTeamTest, ZeroWidthIsOneMember) {
  ForkJoinTeam team(0);
  EXPECT_EQ(team.width(), 1u);
  int runs = 0;
  team.Run(3, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 3);
  team.Run(0, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 3);
}

TEST(ForkJoinTeamTest, TenThousandBackToBackRuns) {
  ForkJoinTeam team(4);
  std::vector<size_t> sums(5, 0);  // one slot per index, one writer each
  constexpr int kRuns = 10000;
  for (int r = 0; r < kRuns; ++r) {
    team.Run(sums.size(), [&](size_t i) { sums[i] += i + 1; });
  }
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], (i + 1) * kRuns) << "index " << i;
  }
}

TEST(ForkJoinTeamTest, RunAfterWorkersParkedCompletes) {
  ForkJoinTeam team(4);
  std::atomic<int> runs{0};
  team.Run(4, [&](size_t) { runs.fetch_add(1); });
  for (int round = 0; round < 3; ++round) {
    SleepPastSpinBudget();
    team.Run(6, [&](size_t) { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 4 + 3 * 6);
}

TEST(ForkJoinTeamTest, CallerParksWhileAWorkerRunsLong) {
  // The caller's index ends as soon as a worker has started the other
  // one, which outlasts the spin budget: the caller parks until woken.
  ForkJoinTeam team(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  std::atomic<int> runs{0};
  team.Run(2, [&](size_t) {
    if (std::this_thread::get_id() == caller) {
      WallTimer timer;
      while (!worker_started.load() && timer.Seconds() < 10.0) {
        std::this_thread::yield();
      }
    } else {
      worker_started.store(true);
      SleepPastSpinBudget();
    }
    runs.fetch_add(1);
  });
  EXPECT_TRUE(worker_started.load());
  EXPECT_EQ(runs.load(), 2);
}

TEST(ForkJoinTeamTest, DestroyingAParkedTeamJoinsPromptly) {
  WallTimer timer;
  {
    ForkJoinTeam team(4);
    team.Run(4, [](size_t) {});
    SleepPastSpinBudget();
    timer.Reset();
  }
  EXPECT_LT(timer.Seconds(), 1.0);
}

}  // namespace
}  // namespace sdadcs::util
