#include "core/run_state.h"

namespace sdadcs::core {

const char* CompletionToString(Completion completion) {
  switch (completion) {
    case Completion::kComplete:
      return "complete";
    case Completion::kDeadlineExceeded:
      return "deadline_exceeded";
    case Completion::kCancelled:
      return "cancelled";
    case Completion::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "unknown";
}

Completion CompletionFromStop(util::StopReason reason) {
  switch (reason) {
    case util::StopReason::kNone:
      return Completion::kComplete;
    case util::StopReason::kDeadlineExceeded:
      return Completion::kDeadlineExceeded;
    case util::StopReason::kCancelled:
      return Completion::kCancelled;
    case util::StopReason::kBudgetExhausted:
      return Completion::kBudgetExhausted;
  }
  return Completion::kComplete;
}

bool RunState::CheckNow() {
  if (reason_ != util::StopReason::kNone) return true;
  return Flush();
}

bool RunState::Flush() {
  uint64_t nodes = pending_nodes_;
  pending_nodes_ = 0;
  pending_weight_ = 0;
  const auto now = util::RunControl::Clock::now();
  if (defer_) deferred_ += nodes;
  reason_ = defer_ ? control_.Check(now) : control_.Charge(nodes, now);
  return reason_ != util::StopReason::kNone;
}

}  // namespace sdadcs::core
