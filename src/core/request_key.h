#ifndef SDADCS_CORE_REQUEST_KEY_H_
#define SDADCS_CORE_REQUEST_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace sdadcs::core {

/// Which mining engine answers a request. Engines that run different
/// searches can return different — still correct — result lists, so
/// they never share a cache entry. kSerial, kParallel and kSharded run
/// one search (core::Miner at any team width) and return the same
/// bytes, so they are one cache universe: the request key hashes all
/// three as kSerial. Every other kind is a universe of its own. The
/// numeric values are part of the RequestKey hash and must never be
/// reordered; new kinds append. Names, descriptions and dispatch live
/// in the one engine table (engine/registry.h).
enum class EngineKind {
  kAuto = 0,  ///< resolved per request from the dataset size
  kSerial,
  kParallel,
  kBeam,             ///< beam-search subgroup discovery
  kWindow,           ///< serial SDAD-CS over the most recent rows only
  kBinnedFayyad,     ///< pre-binned STUCCO, Fayyad-MDL global bins
  kBinnedMvd,        ///< ... MVD bins
  kBinnedSrikant,    ///< ... Srikant partial-completeness bins
  kBinnedEqualWidth, ///< ... equal-width bins
  kBinnedEqualFreq,  ///< ... equal-frequency bins
  kSharded,          ///< kParallel under its team width's name
};

/// 128-bit canonical fingerprint of one mining request; the key of the
/// serving layer's result cache. Two requests share a key iff a complete
/// run of either is a valid answer for both.
struct RequestKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const RequestKey& a, const RequestKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const RequestKey& a, const RequestKey& b) {
    return !(a == b);
  }

  /// "hhhhhhhhhhhhhhhh:llllllllllllllll" hex rendering for logs.
  std::string ToString() const;
};

/// Hash functor for unordered_map<RequestKey, ...>.
struct RequestKeyHash {
  size_t operator()(const RequestKey& k) const {
    return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Canonicalizes the semantic identity of a mining request:
///   - `dataset_fingerprint`: identity *and version* of the dataset (the
///     registry hashes name + load generation, so replacing a dataset
///     under the same name changes every key derived from it);
///   - the MinerConfig via MinerConfig::Fingerprint() (semantic fields
///     only — see its contract);
///   - the group spec: attribute name plus the ordered value list (order
///     matters — it fixes group numbering and therefore the sign of
///     support differences);
///   - the resolved engine's cache universe (kSerial, kParallel and
///     kSharded hash alike; kAuto must be resolved by the caller first —
///     passing it is a programming error the key does not hide: it
///     hashes distinctly from every resolved kind).
///
/// RunControl (deadline / budget / cancellation) is deliberately NOT part
/// of the key: limits shape *how far* a run gets, not what a complete run
/// means. The result cache squares this by only ever storing results
/// whose Completion is kComplete.
RequestKey CanonicalRequestKey(uint64_t dataset_fingerprint,
                               const MinerConfig& config,
                               const std::string& group_attr,
                               const std::vector<std::string>& group_values,
                               EngineKind engine);

/// Fingerprint a registry entry: stable hash of the dataset's name and
/// its monotonically increasing load generation.
uint64_t DatasetFingerprint(const std::string& name, uint64_t generation);

}  // namespace sdadcs::core

#endif  // SDADCS_CORE_REQUEST_KEY_H_
