#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "core/report.h"
#include "core/request_key.h"
#include "core/run_state.h"
#include "engine/registry.h"

namespace sdadcs::serve {

namespace {

/// Lifts the leading field token out of a field-named error message:
/// "group_attr: no such attribute" and "max_depth must be >= 1" both
/// name their field first, per the library's Validate convention.
std::string ExtractField(const std::string& message) {
  size_t i = 0;
  while (i < message.size() &&
         (std::isalnum(static_cast<unsigned char>(message[i])) ||
          message[i] == '_' || message[i] == '.')) {
    ++i;
  }
  if (i == 0) return "";
  std::string token = message.substr(0, i);
  if (i < message.size() && message[i] == ':') return token;
  if (message.compare(i, 9, " must be ") == 0) return token;
  return "";
}

/// Reads the optional integer field `key` of `object` into `*out` (left
/// alone when absent). Anything but an integral number in [0, max] —
/// max capped at what T holds and at 2^53, the largest integer a JSON
/// number carries exactly — is an invalid_argument naming `field`.
template <typename T>
std::optional<WireError> ReadCount(const JsonValue& object, const char* key,
                                   const char* field, T* out,
                                   uint64_t max = uint64_t{1} << 53) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return std::nullopt;
  max = std::min({max, uint64_t{1} << 53,
                  static_cast<uint64_t>(std::numeric_limits<T>::max())});
  const double x = v->IsNumber() ? v->AsNumber() : -1.0;
  if (!(x >= 0.0 && x <= static_cast<double>(max) && x == std::floor(x))) {
    return WireError{ErrorCode::kInvalidArgument, field,
                     std::string(field) + " must be an integer in [0, " +
                         std::to_string(max) + "]"};
  }
  *out = static_cast<T>(x);
  return std::nullopt;
}

ErrorCode CodeFromStatus(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kOutOfRange:
    case util::StatusCode::kFailedPrecondition:
    // Only a load reads files, and an IoError there names the file its
    // spec gave (missing, a directory, unreadable); the registry reports
    // a failure of its own temp spill as kInternal.
    case util::StatusCode::kIoError:
      return ErrorCode::kInvalidArgument;
    case util::StatusCode::kNotFound:
      return ErrorCode::kNotFound;
    default:
      return ErrorCode::kInternal;
  }
}

}  // namespace

const char* ErrorCodeToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError:
      return "parse_error";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported_version";
    case ErrorCode::kUnknownOp:
      return "unknown_op";
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kQuotaExceeded:
      return "quota_exceeded";
    case ErrorCode::kDraining:
      return "draining";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

WireError WireError::FromStatus(const util::Status& status,
                                std::string field_hint) {
  WireError error;
  error.code = CodeFromStatus(status);
  error.field =
      field_hint.empty() ? ExtractField(status.message()) : field_hint;
  error.message = status.message();
  return error;
}

std::string WireError::ToJson() const {
  JsonObjectWriter w;
  w.Add("code", ErrorCodeToString(code));
  if (!field.empty()) w.Add("field", field);
  w.Add("message", message);
  return w.Str();
}

std::string WireError::ToText() const {
  std::string text = ErrorCodeToString(code);
  if (!field.empty()) text += "[" + field + "]";
  text += ": " + message;
  return text;
}

std::optional<WireError> CheckProtocolVersion(const JsonValue& request) {
  const JsonValue* v = request.Find("v");
  if (v == nullptr) return std::nullopt;  // unpinned: current version
  if (v->IsNumber() &&
      static_cast<int64_t>(v->AsNumber()) == kProtocolVersion) {
    return std::nullopt;
  }
  return WireError{ErrorCode::kUnsupportedVersion, "v",
                   "this server speaks protocol version " +
                       std::to_string(kProtocolVersion)};
}

util::StatusOr<core::MeasureKind> MeasureFromString(const std::string& name) {
  if (name == "diff") return core::MeasureKind::kSupportDiff;
  if (name == "pr") return core::MeasureKind::kPurityRatio;
  if (name == "surprising") return core::MeasureKind::kSurprising;
  if (name == "entropy") return core::MeasureKind::kEntropyPurity;
  return util::Status::InvalidArgument(
      "unknown measure '" + name + "' (want diff | pr | surprising | entropy)");
}

std::optional<WireError> ParseMinerConfig(const JsonValue& request,
                                          core::MinerConfig* out) {
  core::MinerConfig cfg;
  const JsonValue* config = request.Find("config");
  if (config != nullptr && !config->IsObject()) {
    return WireError{ErrorCode::kInvalidArgument, "config",
                     "\"config\" must be a JSON object"};
  }
  if (config != nullptr) {
    for (const auto& error :
         {ReadCount(*config, "depth", "config.depth", &cfg.max_depth),
          ReadCount(*config, "top", "config.top", &cfg.top_k)}) {
      if (error) return error;
    }
    cfg.delta = config->GetNumber("delta", cfg.delta);
    cfg.alpha = config->GetNumber("alpha", cfg.alpha);
    auto measure = MeasureFromString(config->GetString("measure", "diff"));
    if (!measure.ok()) {
      return WireError::FromStatus(measure.status(), "config.measure");
    }
    cfg.measure = *measure;
    if (config->GetBool("np", false)) {
      cfg.meaningful_pruning = false;
      cfg.optimistic_pruning = false;
    }
  }
  *out = cfg;
  return std::nullopt;
}

std::optional<WireError> ParseMineCall(const JsonValue& request,
                                       MineFrame* out) {
  MineFrame frame;
  frame.call.dataset = request.GetString("dataset");
  frame.call.group_attr = request.GetString("group");
  frame.call.group_values = request.GetStringArray("groups");
  frame.call.use_cache = request.GetBool("cache", true);
  if (frame.call.dataset.empty()) {
    return WireError{ErrorCode::kInvalidArgument, "dataset",
                     "mine requires \"dataset\""};
  }
  if (frame.call.group_attr.empty()) {
    return WireError{ErrorCode::kInvalidArgument, "group",
                     "mine requires \"group\""};
  }
  if (auto error = ParseMinerConfig(request, &frame.call.config)) {
    return error;
  }
  // The one engine-name parser: any table name, "auto" or
  // "sharded:<n>"; anything else is an error naming the field — never a
  // silent fall back.
  util::StatusOr<engine::EngineSpec> spec =
      engine::ParseEngine(request.GetString("engine", "auto"));
  if (!spec.ok()) return WireError::FromStatus(spec.status(), "engine");
  frame.call.engine = spec->kind;
  frame.call.shards = spec->shard_count;

  for (const auto& error :
       {ReadCount(request, "deadline_ms", "deadline_ms", &frame.deadline_ms,
                  util::kMaxDeadlineMs),
        ReadCount(request, "node_budget", "node_budget", &frame.node_budget)}) {
    if (error) return error;
  }
  frame.emit_patterns = request.GetString("emit", "summary") == "patterns";
  frame.anytime = request.GetBool("anytime", false);
  frame.tenant = request.GetString("tenant");
  frame.id = request.GetString("id");
  // Burst mode (N concurrent copies of one mine) is gone; a client that
  // wants concurrency pipelines frames on a socket instead.
  if (request.GetNumber("burst", 1) > 1) {
    return WireError{ErrorCode::kInvalidArgument, "burst",
                     "no transport has burst: pipeline requests"};
  }
  *out = std::move(frame);
  return std::nullopt;
}

void ApplyFrameLimits(const MineFrame& frame, util::RunControl* control) {
  if (frame.deadline_ms > 0) {
    control->set_deadline_after(std::chrono::milliseconds(frame.deadline_ms));
  }
  if (frame.node_budget > 0) control->set_node_budget(frame.node_budget);
}

JsonObjectWriter ResponseEnvelope(bool ok, const std::string& op,
                                  const std::string& id) {
  JsonObjectWriter w;
  w.Add("v", kProtocolVersion);
  w.Add("ok", ok);
  if (!op.empty()) w.Add("op", op);
  if (!id.empty()) w.Add("id", id);
  return w;
}

JsonObjectWriter ErrorResponse(const std::string& op, const WireError& error,
                               const std::string& id) {
  JsonObjectWriter w = ResponseEnvelope(false, op, id);
  w.AddRaw("error", error.ToJson());
  return w;
}

void RenderMineOutcome(const MineOutcome& outcome,
                       const std::string& patterns_json,
                       JsonObjectWriter* out) {
  JsonObjectWriter& w = *out;
  w.Add("verdict", VerdictToString(outcome.verdict));
  w.Add("cache", CacheStatusToString(outcome.cache));
  w.Add("engine", engine::EngineName(outcome.engine));
  w.Add("key", outcome.key.ToString());
  w.Add("queue_ms", outcome.queue_seconds * 1e3);
  w.Add("run_ms", outcome.run_seconds * 1e3);
  w.Add("total_ms", outcome.total_seconds * 1e3);
  if (outcome.result != nullptr) {
    w.Add("completion",
          core::CompletionToString(outcome.result->completion));
    w.Add("patterns_found",
          static_cast<uint64_t>(outcome.result->contrasts.size()));
  }
  if (outcome.verdict == Verdict::kError) {
    w.AddRaw("error", WireError::FromStatus(outcome.status).ToJson());
  }
  if (!patterns_json.empty()) w.AddRaw("patterns", patterns_json);
}

void RenderEngines(JsonObjectWriter* out) {
  std::string engines = "[";
  for (const engine::EngineRow& row : engine::Engines()) {
    if (engines.size() > 1) engines += ",";
    JsonObjectWriter e;
    e.Add("name", row.name);
    e.Add("description", row.description);
    engines += e.Str();
  }
  engines += "]";
  out->AddRaw("engines", engines);
  // Accepted names that are not table rows of their own: the
  // server-resolved default and the count-parameterized sharded form.
  out->AddRaw("aliases", "[\"auto\",\"sharded:<n>\"]");
}

void RenderStats(const ServerStats& s, JsonObjectWriter* out) {
  JsonObjectWriter registry;
  registry.Add("resident", static_cast<uint64_t>(s.registry.resident));
  registry.Add("resident_bytes",
               static_cast<uint64_t>(s.registry.resident_bytes));
  registry.Add("budget_bytes",
               static_cast<uint64_t>(s.registry.budget_bytes));
  registry.Add("loads", s.registry.loads);
  registry.Add("replacements", s.registry.replacements);
  registry.Add("hits", s.registry.hits);
  registry.Add("misses", s.registry.misses);
  registry.Add("evictions", s.registry.evictions);
  registry.Add("artifact_bytes",
               static_cast<uint64_t>(s.registry.artifact_bytes));
  registry.Add("artifact_builds", s.registry.artifact_builds);
  registry.Add("artifact_hits", s.registry.artifact_hits);
  registry.Add("resident_chunk_bytes",
               static_cast<uint64_t>(s.registry.resident_chunk_bytes));
  registry.Add("chunk_loads", s.registry.chunk_loads);
  registry.Add("chunk_evictions", s.registry.chunk_evictions);

  JsonObjectWriter cache;
  cache.Add("size", static_cast<uint64_t>(s.cache.size));
  cache.Add("capacity", static_cast<uint64_t>(s.cache.capacity));
  cache.Add("hits", s.cache.hits);
  cache.Add("misses", s.cache.misses);
  cache.Add("coalesced", s.cache.coalesced);
  cache.Add("inserts", s.cache.inserts);
  cache.Add("evictions", s.cache.evictions);
  cache.Add("invalidations", s.cache.invalidations);
  cache.Add("abandons", s.cache.abandons);

  JsonObjectWriter admission;
  admission.Add("max_concurrent", s.admission.max_concurrent);
  admission.Add("max_queue", s.admission.max_queue);
  admission.Add("running", s.admission.running);
  admission.Add("queued", s.admission.queued);
  admission.Add("admitted", s.admission.admitted);
  admission.Add("admitted_after_wait", s.admission.admitted_after_wait);
  admission.Add("rejected_busy", s.admission.rejected_busy);
  admission.Add("expired_in_queue", s.admission.expired_in_queue);
  admission.Add("total_queue_wait_ms",
                s.admission.total_queue_wait_seconds * 1e3);

  JsonObjectWriter& w = *out;
  w.Add("requests", s.requests);
  w.Add("runs_started", s.runs_started);
  w.Add("ok_requests", s.ok);
  w.Add("rejected_busy", s.rejected_busy);
  w.Add("errors", s.errors);
  w.AddRaw("registry", registry.Str());
  w.AddRaw("cache", cache.Str());
  w.AddRaw("admission", admission.Str());
}

std::string RenderPatternsBody(const MineCall& call,
                               const MineOutcome& outcome) {
  if (outcome.result == nullptr || outcome.dataset == nullptr) return "";
  const data::Dataset& db = outcome.dataset->db;
  core::MineRequest probe;
  probe.group_attr = call.group_attr;
  probe.group_values = call.group_values;
  auto gi = core::ResolveRequestGroups(db, probe);
  if (!gi.ok()) return "";
  return core::PatternsToJson(db, *gi, outcome.result->contrasts);
}

}  // namespace sdadcs::serve
