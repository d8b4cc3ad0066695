#ifndef SDADCS_UTIL_RUN_CONTROL_H_
#define SDADCS_UTIL_RUN_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

namespace sdadcs::util {

/// Why a controlled run had to stop early; kNone while it may continue.
enum class StopReason {
  kNone = 0,
  kDeadlineExceeded,
  kCancelled,
  kBudgetExhausted,
};

/// Stable lower_snake name (e.g. "deadline_exceeded"); "none" for kNone.
const char* StopReasonToString(StopReason reason);

/// The longest budget set_deadline_after takes, 2^42 ms (~139 years):
/// its steady-clock nanoseconds overflow int64 ~292 years past epoch.
inline constexpr int64_t kMaxDeadlineMs = int64_t{1} << 42;

/// Progress snapshot delivered to a RunControl's progress callback by
/// the mining engines: which lattice level is running, how many of its
/// candidate combinations are done, and the current top-k pruning
/// threshold (the measure the weakest kept pattern holds).
struct RunProgress {
  int level = 0;
  uint64_t candidates_done = 0;
  uint64_t candidates_total = 0;
  double topk_threshold = 0.0;
  /// Patterns collected so far and the best measure among them (0 while
  /// empty). Filled on every report.
  uint64_t patterns_found = 0;
  double best_measure = 0.0;
  /// Monotone counter of top-k insertions; grows iff the best-so-far set
  /// changed since the previous report.
  uint64_t topk_version = 0;
  /// True when the run was marked anytime via set_anytime(true) AND the
  /// top-k changed since the last such report: the best-so-far fields
  /// above are a new preview worth streaming. False otherwise.
  bool improved = false;
};

/// Shared handle controlling one mining run: an optional wall-clock
/// deadline, an optional node (partition/itemset) budget, a cooperative
/// cancellation token, and an optional progress callback.
///
/// Copies of a RunControl share state, so the handle given to an engine
/// can be cancelled from any other thread:
///
///   util::RunControl rc = util::RunControl::WithDeadline(250ms);
///   std::thread watcher([rc]() mutable { ...; rc.Cancel(); });
///   core::MineRequest req{.group_attr = "class", .run_control = rc};
///   auto result = miner.Mine(db, req);   // returns best-so-far on stop
///
/// Thread-safety: Cancel(), cancelled(), Charge() and Check() are safe
/// from any thread (Cancel is a lock-free atomic store, safe even from
/// a signal handler). The setters and the progress callback are not
/// synchronized — configure the handle before handing it to an engine.
/// Engines invoke the progress callback from the coordinating mining
/// thread only.
class RunControl {
 public:
  using Clock = std::chrono::steady_clock;
  using ProgressFn = std::function<void(const RunProgress&)>;

  /// A handle with no limits (still cancellable).
  RunControl();

  /// Convenience: a handle whose deadline is `budget` from now.
  static RunControl WithDeadline(std::chrono::milliseconds budget);

  RunControl& set_deadline(Clock::time_point deadline);
  RunControl& set_deadline_after(std::chrono::milliseconds budget);
  /// Budget of evaluated nodes (partitions / itemsets / candidate
  /// descriptions) across every thread of the run. Engines charge the
  /// budget in amortized batches, so a run may overshoot it by a small
  /// per-thread stride before it stops.
  RunControl& set_node_budget(uint64_t nodes);
  RunControl& set_progress_callback(ProgressFn fn);
  /// Requests anytime result streaming: engines flag
  /// RunProgress::improved on reports whose top-k changed since the last
  /// flagged one. Off by default.
  RunControl& set_anytime(bool anytime);

  /// Requests cooperative cancellation; every engine loop drains at its
  /// next checkpoint. Idempotent, thread-safe, async-signal-safe.
  void Cancel();
  bool cancelled() const;

  bool has_deadline() const;
  Clock::time_point deadline() const;
  /// Whether set_node_budget was ever called. The serving layer uses
  /// this to stamp a server-wide default budget only onto requests that
  /// arrived without their own.
  bool has_node_budget() const;

  /// Charges `nodes` against the budget and checks every limit; returns
  /// the first limit hit or kNone. `now` is passed in so callers can
  /// amortize clock reads.
  StopReason Charge(uint64_t nodes, Clock::time_point now);

  /// Checks cancellation, deadline and prior budget exhaustion without
  /// charging new work.
  StopReason Check(Clock::time_point now) const;

  /// Whether Charge(nodes) would leave the budget unexhausted (always
  /// true without a budget).
  bool Covers(uint64_t nodes) const {
    return !shared_->has_budget ||
           shared_->budget_remaining.load() >= static_cast<int64_t>(nodes);
  }

  void ReportProgress(const RunProgress& progress) const;
  bool has_progress_callback() const;
  /// True when the caller asked for anytime result streaming.
  bool wants_anytime() const;

 private:
  struct Shared {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
    bool has_budget = false;
    std::atomic<int64_t> budget_remaining{0};
    ProgressFn progress;
    bool anytime = false;
  };

  std::shared_ptr<Shared> shared_;
};

}  // namespace sdadcs::util

#endif  // SDADCS_UTIL_RUN_CONTROL_H_
