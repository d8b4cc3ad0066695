#ifndef SDADCS_CORE_TEAM_LEASE_H_
#define SDADCS_CORE_TEAM_LEASE_H_

#include <cstddef>

namespace sdadcs::util {
class ForkJoinTeam;
}

namespace sdadcs::core {

/// One core::Miner mine's lease on the process's team, which registers
/// the mine as running in this process for its lifetime. Hung off
/// MiningContext by a multi-shard mine, whose search mines a level's
/// combinations on the team (LatticeSearch, DESIGN.md §12); null there
/// = every combination mines on the calling thread.
///
/// The process has one team, alive while any mine runs: a multi-shard
/// mine builds it (min(shards, cores) wide) when none exists. It serves
/// one mine at a time until that mine ends, so a mine started beside
/// another takes it over when the other ends. Members spin between
/// batches and need cores of their own: while other mines run, the team
/// lends one member fewer per other mine. A mine without it mines
/// inline, byte-identically.
class TeamLease {
 public:
  /// `width` is the team width the mine asks for (its shard count).
  explicit TeamLease(size_t width);
  ~TeamLease();

  TeamLease(const TeamLease&) = delete;
  TeamLease& operator=(const TeamLease&) = delete;

  /// The team this mine may use now, and in `*width` how many of its
  /// members (at least 2, the mining thread included): null when it
  /// serves another mine, or while other mines leave it under two
  /// cores.
  util::ForkJoinTeam* AvailableTeam(size_t* width) const;

 private:
  util::ForkJoinTeam* team_ = nullptr;
  // min(asked width, team width); 0 = no team.
  size_t width_ = 0;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_TEAM_LEASE_H_
