#include "core/team_lease.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "util/fork_join_team.h"

namespace sdadcs::core {

namespace {

// The running mines (one TeamLease each), the process's team, and the
// mine the team serves (null while it is free).
std::mutex team_mu;
std::atomic<size_t> running_mines{0};
std::unique_ptr<util::ForkJoinTeam> process_team;  // guarded by team_mu
std::atomic<const TeamLease*> team_holder{nullptr};
const size_t kCores = std::max(1u, std::thread::hardware_concurrency());

}  // namespace

TeamLease::TeamLease(size_t width) {
  std::lock_guard<std::mutex> lock(team_mu);
  running_mines.fetch_add(1);
  if (width < 2) return;
  if (process_team == nullptr) {
    process_team =
        std::make_unique<util::ForkJoinTeam>(std::min(width, kCores));
    team_holder.store(this);
  }
  team_ = process_team.get();
  width_ = std::min(width, team_->width());
}

TeamLease::~TeamLease() {
  const TeamLease* self = this;
  team_holder.compare_exchange_strong(self, nullptr);
  std::lock_guard<std::mutex> lock(team_mu);
  if (running_mines.fetch_sub(1) == 1) process_team.reset();
}

util::ForkJoinTeam* TeamLease::AvailableTeam(size_t* width) const {
  if (team_ == nullptr) return nullptr;
  const TeamLease* holder = team_holder.load();
  if (holder != this && (holder != nullptr ||
                         !team_holder.compare_exchange_strong(holder, this))) {
    return nullptr;
  }
  const size_t others = running_mines.load() - 1;
  *width = std::min(width_, kCores > others ? kCores - others : 0);
  return *width >= 2 ? team_ : nullptr;
}

}  // namespace sdadcs::core
