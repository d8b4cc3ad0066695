#include "core/config.h"

#include <cstring>

#include "util/string_util.h"

namespace sdadcs::core {

namespace {

util::Status FieldError(const char* field, const char* constraint,
                        const std::string& got) {
  return util::Status::InvalidArgument(std::string(field) + " must be " +
                                       constraint + ", got " + got);
}

// FNV-1a, the incremental flavour: every field is mixed as
// tag-bytes + value-bytes, so "alpha=0.1, delta=0.2" cannot collide with
// "alpha=0.2, delta=0.1" and adding a field never aliases an old layout.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t MixTag(uint64_t h, const char* tag) {
  return MixBytes(h, tag, std::strlen(tag) + 1);  // include NUL separator
}

uint64_t MixU64(uint64_t h, const char* tag, uint64_t v) {
  h = MixTag(h, tag);
  return MixBytes(h, &v, sizeof(v));
}

uint64_t MixDouble(uint64_t h, const char* tag, double v) {
  // Hash the bit pattern, with NaN canonicalized (any NaN payload means
  // the same thing to the miner) and -0.0 folded into +0.0.
  if (std::isnan(v)) return MixU64(h, tag, 0x7ff8000000000000ULL);
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, tag, bits);
}

uint64_t MixBool(uint64_t h, const char* tag, bool v) {
  return MixU64(h, tag, v ? 1 : 0);
}

uint64_t MixString(uint64_t h, const char* tag, const std::string& s) {
  h = MixTag(h, tag);
  h = MixU64(h, "len", s.size());
  return MixBytes(h, s.data(), s.size());
}

}  // namespace

util::Status MinerConfig::Validate() const {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return FieldError("alpha", "in (0, 1)", util::FormatDouble(alpha));
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return FieldError("delta", "in (0, 1)", util::FormatDouble(delta));
  }
  if (max_depth < 1) {
    return FieldError("max_depth", ">= 1", std::to_string(max_depth));
  }
  if (sdad_max_level < 1) {
    return FieldError("sdad_max_level", ">= 1",
                      std::to_string(sdad_max_level));
  }
  if (top_k < 1) {
    return FieldError("top_k", ">= 1", std::to_string(top_k));
  }
  if (min_coverage < 0) {
    return FieldError("min_coverage", ">= 0", std::to_string(min_coverage));
  }
  if (!std::isnan(merge_alpha) && !(merge_alpha > 0.0 && merge_alpha < 1.0)) {
    return FieldError("merge_alpha", "NaN or in (0, 1)",
                      util::FormatDouble(merge_alpha));
  }
  return util::Status::OK();
}

uint64_t MinerConfig::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = MixU64(h, "sdadcs_config_v1", 1);
  h = MixDouble(h, "alpha", alpha);
  h = MixDouble(h, "delta", delta);
  h = MixU64(h, "max_depth", static_cast<uint64_t>(max_depth));
  h = MixU64(h, "sdad_max_level", static_cast<uint64_t>(sdad_max_level));
  h = MixU64(h, "top_k", static_cast<uint64_t>(top_k));
  h = MixU64(h, "measure", static_cast<uint64_t>(measure));
  h = MixU64(h, "bonferroni", static_cast<uint64_t>(bonferroni));
  h = MixU64(h, "split", static_cast<uint64_t>(split));
  h = MixBool(h, "optimistic_pruning", optimistic_pruning);
  h = MixBool(h, "meaningful_pruning", meaningful_pruning);
  h = MixBool(h, "redundancy_pruning", redundancy_pruning);
  h = MixBool(h, "pure_space_pruning", pure_space_pruning);
  h = MixBool(h, "chi_bound_pruning", chi_bound_pruning);
  h = MixBool(h, "productivity_filter", productivity_filter);
  h = MixBool(h, "merge_spaces", merge_spaces);
  h = MixDouble(h, "merge_alpha", merge_alpha);
  h = MixBool(h, "independently_productive_filter",
              independently_productive_filter);
  h = MixU64(h, "min_coverage", static_cast<uint64_t>(min_coverage));
  h = MixU64(h, "max_candidates_per_level",
             static_cast<uint64_t>(max_candidates_per_level));
  h = MixU64(h, "attributes", attributes.size());
  for (const std::string& a : attributes) h = MixString(h, "attr", a);
  return h;
}

void MiningCounters::Add(const MiningCounters& other) {
  partitions_evaluated += other.partitions_evaluated;
  sdad_calls += other.sdad_calls;
  pruned_lookup += other.pruned_lookup;
  pruned_min_support += other.pruned_min_support;
  pruned_low_expected += other.pruned_low_expected;
  pruned_redundant += other.pruned_redundant;
  pruned_pure += other.pruned_pure;
  pruned_oe_measure += other.pruned_oe_measure;
  pruned_oe_chi2 += other.pruned_oe_chi2;
  unproductive += other.unproductive;
  not_independently_productive += other.not_independently_productive;
  merges += other.merges;
  chi2_tests += other.chi2_tests;
  truncated_candidates += other.truncated_candidates;
  abandoned_candidates += other.abandoned_candidates;
}

}  // namespace sdadcs::core
