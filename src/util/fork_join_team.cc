#include "util/fork_join_team.h"

#include <algorithm>

#include "util/logging.h"

namespace sdadcs::util {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Returns once done(word) holds: spins for the spin budget, then parks
// in atomic::wait until the next change of `word`, and so on.
template <typename Done>
void SpinThenPark(const std::atomic<uint32_t>& word, const Done& done) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point park_at =
      Clock::now() + ForkJoinTeam::kSpinBudget;
  // The clock is read once per 64 pauses (~1 µs at the slowest pause).
  for (unsigned spins = 1; !done(word.load()); ++spins) {
    CpuRelax();
    if (spins % 64 != 0 || Clock::now() < park_at) continue;
    for (uint32_t seen = word.load(); !done(seen); seen = word.load()) {
      word.wait(seen);
    }
    return;
  }
}

}  // namespace

ForkJoinTeam::ForkJoinTeam(size_t width) {
  const size_t members = std::max<size_t>(1, width);
  workers_.reserve(members - 1);
  for (size_t m = 1; m < members; ++m) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ForkJoinTeam::~ForkJoinTeam() {
  stop_.store(true);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ForkJoinTeam::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty() || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  SDADCS_CHECK(n <= UINT32_MAX);
  fn_ = &fn;
  n_ = static_cast<uint32_t>(n);
  next_.store(0);
  unfinished_.store(n_);
  open_.store(true);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  Work();
  SpinThenPark(unfinished_, [](uint32_t left) { return left == 0; });
  // Every index has returned; wait out the workers still inside Work
  // (they find nothing left to claim) before fn_ may change.
  open_.store(false);
  SpinThenPark(active_, [](uint32_t active) { return active == 0; });
}

void ForkJoinTeam::Work() {
  for (uint32_t i = next_.fetch_add(1); i < n_; i = next_.fetch_add(1)) {
    (*fn_)(i);
    if (unfinished_.fetch_sub(1) == 1) unfinished_.notify_one();
  }
}

void ForkJoinTeam::WorkerLoop() {
  uint32_t seen = 0;
  while (true) {
    SpinThenPark(epoch_, [seen](uint32_t epoch) { return epoch != seen; });
    seen = epoch_.load();
    if (stop_.load()) return;
    // A worker that wakes late may find this fan-out closed, or a later
    // one open; the check under active_ keeps it out of a closed one.
    active_.fetch_add(1);
    if (open_.load()) Work();
    if (active_.fetch_sub(1) == 1) active_.notify_one();
  }
}

}  // namespace sdadcs::util
