#include "core/anytime.h"

namespace sdadcs::core {

void FillProgressFromTopK(const util::RunControl& control, const TopK& topk,
                          uint64_t* last_version,
                          util::RunProgress* progress) {
  progress->patterns_found = topk.size();
  progress->best_measure = topk.best_measure();
  progress->topk_version = topk.version();
  if (!control.wants_anytime()) return;
  if (topk.version() == *last_version) return;
  progress->improved = true;
  *last_version = topk.version();
}

}  // namespace sdadcs::core
