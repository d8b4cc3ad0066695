#ifndef SDADCS_CORE_RUN_STATE_H_
#define SDADCS_CORE_RUN_STATE_H_

#include <cstdint>
#include <utility>

#include "util/run_control.h"

namespace sdadcs::core {

/// How a mining run ended. Anything other than kComplete means the
/// engine drained early and the result holds the best patterns found so
/// far (still sorted and internally consistent), with
/// MiningCounters::abandoned_candidates recording the work skipped.
enum class Completion {
  kComplete = 0,
  kDeadlineExceeded,
  kCancelled,
  kBudgetExhausted,
};

/// Stable lower_snake name (e.g. "deadline_exceeded").
const char* CompletionToString(Completion completion);

Completion CompletionFromStop(util::StopReason reason);

/// Per-thread view of a shared RunControl, held in each MiningContext.
/// Amortizes the expensive parts of a checkpoint: cancellation is
/// observed on every call (one relaxed atomic load), while the wall
/// clock is read and the shared node budget charged only once the
/// accumulated checkpoint weight crosses kStrideWeight. Callers weight
/// a checkpoint by the rows the node scanned, so the time between clock
/// reads stays bounded even when individual nodes are large.
///
/// A stop is sticky: once any limit trips, every later CheckPoint /
/// CheckNow returns true without touching the shared state again.
class RunState {
 public:
  /// An unlimited state backed by a fresh (never-cancelled) control.
  RunState() = default;

  explicit RunState(util::RunControl control)
      : control_(std::move(control)) {}

  /// Cooperative cancellation checkpoint; call once per evaluated node
  /// (partition, itemset, candidate description). `weight` should grow
  /// with the rows the node scanned — see NodeWeight(). Returns true
  /// when the run must stop.
  bool CheckPoint(uint64_t weight = 1) {
    if (reason_ != util::StopReason::kNone) return true;
    if (control_.cancelled()) {
      reason_ = util::StopReason::kCancelled;
      return true;
    }
    ++pending_nodes_;
    pending_weight_ += weight;
    if (pending_weight_ < kStrideWeight) return false;
    return Flush();
  }

  /// Immediate unamortized check of every limit (loop heads, level
  /// boundaries). Flushes any pending node charges.
  bool CheckNow();

  /// A team member's state: its flushes check every limit but charge
  /// nothing, adding their nodes to TakeDeferred()'s count instead, for
  /// the mining thread to charge with ChargeDeferred at the commit.
  void DeferCharges() { defer_ = true; }
  uint64_t TakeDeferred() { return std::exchange(deferred_, 0); }
  bool ChargeDeferred(uint64_t nodes) {
    pending_nodes_ += nodes;
    return CheckNow();
  }

  bool stopped() const { return reason_ != util::StopReason::kNone; }
  util::StopReason reason() const { return reason_; }
  Completion completion() const { return CompletionFromStop(reason_); }

  util::RunControl& control() { return control_; }
  const util::RunControl& control() const { return control_; }

  /// Checkpoint weight of a node that scanned `rows` rows: one unit per
  /// ~4k rows, so even multi-thousand-row scans trigger a clock read
  /// within a few checkpoints while tiny cells stay nearly free.
  static uint64_t NodeWeight(size_t rows) {
    return 1 + static_cast<uint64_t>(rows) / 4096;
  }

 private:
  /// Accumulated weight that forces a clock read + budget flush.
  static constexpr uint64_t kStrideWeight = 16;

  bool Flush();

  util::RunControl control_;
  uint64_t pending_nodes_ = 0;
  uint64_t pending_weight_ = 0;
  util::StopReason reason_ = util::StopReason::kNone;
  bool defer_ = false;
  uint64_t deferred_ = 0;
};

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_RUN_STATE_H_
