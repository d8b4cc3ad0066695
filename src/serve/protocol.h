#ifndef SDADCS_SERVE_PROTOCOL_H_
#define SDADCS_SERVE_PROTOCOL_H_

#include <optional>
#include <string>

#include "core/config.h"
#include "serve/ndjson.h"
#include "serve/server.h"
#include "util/status.h"

namespace sdadcs::serve {

/// Version of the ND-JSON wire protocol spoken by every serve front end
/// (sdadcs_serve on stdin/stdout, sdadcs_netd over TCP). Every response
/// frame carries `"v": kProtocolVersion`; a request may pin a version
/// with its own "v" field and is rejected with kUnsupportedVersion when
/// the server does not speak it. Version history:
///   1 — initial versioned protocol: envelope {v, ok, op, id?},
///       structured errors {code, field, message}, ops load / mine /
///       stats / evict / cancel / ping / shutdown. Later additive (no
///       version bump): the "engines" op enumerating the engine
///       table, and "sharded:<n>" accepted as a mine engine name.
///       The stdin-only "burst" mine field was removed: a "burst" above
///       1 is an invalid_argument error on every transport.
inline constexpr int64_t kProtocolVersion = 1;

/// The error taxonomy shared by every front end. Stable lower_snake wire
/// names (ErrorCodeToString); append-only — codes are part of the
/// protocol.
enum class ErrorCode {
  kParseError = 0,      ///< frame is not one well-formed JSON object
  kUnsupportedVersion,  ///< request pinned a "v" the server cannot speak
  kUnknownOp,           ///< "op" names no operation
  kInvalidArgument,     ///< a request field is missing or malformed
  kNotFound,            ///< named entity (dataset) is not resident
  kQuotaExceeded,       ///< per-tenant in-flight quota exhausted
  kDraining,            ///< server is shutting down; retry elsewhere
  kBusy,                ///< connection/backlog capacity exhausted
  kInternal,            ///< server-side failure, not the request's fault
};
const char* ErrorCodeToString(ErrorCode code);

/// One structured protocol error: a taxonomy code, the offending request
/// field ("" when the error is not field-scoped) and a human-readable
/// message. Rendered on the wire as {"code":...,"field":...,"message":...}
/// and by CLIs as "code[field]: message".
struct WireError {
  ErrorCode code = ErrorCode::kInternal;
  std::string field;
  std::string message;

  /// Maps a util::Status onto the taxonomy. `field_hint` names the field
  /// when the caller knows it; otherwise the leading "<ident>: " or
  /// "<ident> must be" token of the message (the library's field-named
  /// error convention) is lifted into `field`, keeping the full text as
  /// the message.
  static WireError FromStatus(const util::Status& status,
                              std::string field_hint = "");

  /// {"code":"invalid_argument","field":"engine","message":"..."}
  /// (field omitted when empty).
  std::string ToJson() const;
  /// "invalid_argument[engine]: ..." — the CLI rendering.
  std::string ToText() const;
};

/// One parsed "mine" request: the server call plus the wire-only knobs
/// every front end honours the same way.
struct MineFrame {
  MineCall call;
  int64_t deadline_ms = 0;
  uint64_t node_budget = 0;
  bool emit_patterns = false;  ///< "emit":"patterns"
  bool anytime = false;
  std::string tenant;  ///< quota bucket; "" = the default tenant
  std::string id;      ///< client correlation token, echoed verbatim
};

/// Rejects a request that pinned an incompatible protocol version.
std::optional<WireError> CheckProtocolVersion(const JsonValue& request);

/// Parses the "config" object (depth/delta/alpha/top/measure/np) into a
/// MinerConfig; any other key is ignored. An unknown measure name is an
/// error naming "config.measure" — never a silent fall back to the
/// default — and an integer field that is not a non-negative integral
/// number its C++ field can hold is an error naming it ("config.depth").
std::optional<WireError> ParseMinerConfig(const JsonValue& request,
                                          core::MinerConfig* out);

/// Parses one "mine" request into a MineFrame: required dataset + group,
/// the engine name through engine::ParseEngine (the parser the CLI's
/// --engine uses too), config, and the range-checked limits
/// ("deadline_ms", "node_budget"). This is the one request codec behind
/// the dispatcher both transports share, so they cannot drift.
std::optional<WireError> ParseMineCall(const JsonValue& request,
                                       MineFrame* out);

/// String-level enum parser shared with the flag-driven CLI front end.
util::StatusOr<core::MeasureKind> MeasureFromString(const std::string& name);

/// Stamps the frame's deadline / node budget onto `control`.
void ApplyFrameLimits(const MineFrame& frame, util::RunControl* control);

/// Starts a response frame: {"v":1,"ok":...,"op":...,["id":...]}.
JsonObjectWriter ResponseEnvelope(bool ok, const std::string& op,
                                  const std::string& id = "");

/// A complete error response frame for `error`.
JsonObjectWriter ErrorResponse(const std::string& op, const WireError& error,
                               const std::string& id = "");

/// Appends one MineOutcome's fields (verdict, cache, engine, key,
/// timings, completion, structured error) to `out`; `patterns_json` is
/// spliced in when non-empty.
void RenderMineOutcome(const MineOutcome& outcome,
                       const std::string& patterns_json,
                       JsonObjectWriter* out);

/// Appends the aggregated server counters (registry / cache / admission
/// sub-objects) to `out`.
void RenderStats(const ServerStats& stats, JsonObjectWriter* out);

/// The "engines" op body: every row of the engine table
/// (engine::Engines) as {"name":...,"description":...} under "engines",
/// plus the accepted names that are not rows ("auto", "sharded:<n>")
/// under "aliases". Shared by the stdin and socket front ends;
/// `sdadcs_tool --engine list` prints the same rows.
void RenderEngines(JsonObjectWriter* out);

/// The "emit":"patterns" body: the outcome's contrasts rendered against
/// the dataset generation they were mined from (outcome.dataset — a
/// later load under the same name does not change the reply). "" when
/// the outcome has no result.
std::string RenderPatternsBody(const MineCall& call,
                               const MineOutcome& outcome);

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_PROTOCOL_H_
