#ifndef SDADCS_CORE_ANYTIME_H_
#define SDADCS_CORE_ANYTIME_H_

#include <cstdint>

#include "core/topk.h"
#include "util/run_control.h"

namespace sdadcs::core {

/// Fills the result-set fields of `progress` (patterns_found,
/// best_measure, topk_version) from `topk`, and — when `control` wants
/// anytime streaming and the top-k changed since `*last_version` — sets
/// `progress->improved` and advances `*last_version`. Shared by the
/// serial lattice search and the parallel coordinator so both emit
/// identical progress shapes.
void FillProgressFromTopK(const util::RunControl& control, const TopK& topk,
                          uint64_t* last_version,
                          util::RunProgress* progress);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_ANYTIME_H_
