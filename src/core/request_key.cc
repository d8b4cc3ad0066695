#include "core/request_key.h"

#include "util/string_util.h"

namespace sdadcs::core {

namespace {

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

uint64_t MixU64(uint64_t h, uint64_t v) { return MixBytes(h, &v, sizeof(v)); }

uint64_t MixString(uint64_t h, const std::string& s) {
  h = MixU64(h, s.size());
  return MixBytes(h, s.data(), s.size());
}

// A second, independent mixing pass (splitmix64) over the same inputs'
// running hash gives the key its high half; with 128 bits, accidental
// collisions between distinct requests are out of reach.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string RequestKey::ToString() const {
  return util::StrFormat("%016llx:%016llx",
                         static_cast<unsigned long long>(hi),
                         static_cast<unsigned long long>(lo));
}

RequestKey CanonicalRequestKey(uint64_t dataset_fingerprint,
                               const MinerConfig& config,
                               const std::string& group_attr,
                               const std::vector<std::string>& group_values,
                               EngineKind engine) {
  uint64_t h = kFnvOffset;
  h = MixU64(h, 0x5dadc5'01);  // key-format version
  h = MixU64(h, dataset_fingerprint);
  h = MixU64(h, config.Fingerprint());
  h = MixString(h, group_attr);
  h = MixU64(h, group_values.size());
  for (const std::string& v : group_values) h = MixString(h, v);
  // The byte-identical engines share kSerial's universe.
  if (engine == EngineKind::kParallel || engine == EngineKind::kSharded) {
    engine = EngineKind::kSerial;
  }
  h = MixU64(h, static_cast<uint64_t>(engine));
  RequestKey key;
  key.lo = h;
  key.hi = SplitMix(h ^ dataset_fingerprint);
  return key;
}

uint64_t DatasetFingerprint(const std::string& name, uint64_t generation) {
  uint64_t h = kFnvOffset;
  h = MixString(h, name);
  h = MixU64(h, generation);
  return h;
}

}  // namespace sdadcs::core
