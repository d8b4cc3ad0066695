#include "serve/server.h"

#include <chrono>
#include <utility>

#include "engine/registry.h"
#include "util/flags.h"
#include "util/timer.h"

namespace sdadcs::serve {

namespace {

core::MineRequest BuildRequest(const MineCall& call,
                               const util::RunControl& control) {
  core::MineRequest request;
  request.group_attr = call.group_attr;
  request.group_values = call.group_values;
  request.run_control = control;
  return request;
}

}  // namespace

core::EngineKind ResolveEngine(core::EngineKind requested, size_t rows) {
  if (requested != core::EngineKind::kAuto) return requested;
  return rows >= kAutoParallelRows ? core::EngineKind::kParallel
                                   : core::EngineKind::kSerial;
}

const char* VerdictToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kRejectedBusy:
      return "rejected_busy";
    case Verdict::kRejectedQuota:
      return "rejected_quota";
    case Verdict::kExpiredInQueue:
      return "expired_in_queue";
    case Verdict::kCancelled:
      return "cancelled";
    case Verdict::kError:
      return "error";
  }
  return "unknown";
}

const char* CacheStatusToString(CacheStatus status) {
  switch (status) {
    case CacheStatus::kMiss:
      return "miss";
    case CacheStatus::kHit:
      return "hit";
    case CacheStatus::kShared:
      return "shared";
    case CacheStatus::kBypass:
      return "bypass";
  }
  return "unknown";
}

Server::Server(ServerOptions options)
    : options_(options),
      registry_(options.dataset_memory_budget,
                DatasetLoadOptions{options.chunk_rows,
                                   options.max_resident_bytes,
                                   /*spill_dir=*/""}),
      cache_(options.result_cache_capacity),
      admission_(options.max_concurrent_runs, options.max_queue) {
  // A replaced or evicted dataset takes its cached results with it.
  registry_.set_eviction_listener(
      [this](const std::shared_ptr<const ServedDataset>& ds) {
        cache_.InvalidateDataset(ds->name);
      });
}

util::StatusOr<std::shared_ptr<const ServedDataset>> Server::Load(
    const std::string& name, const std::string& spec) {
  return registry_.Load(name, spec);
}

bool Server::Evict(const std::string& name) { return registry_.Evict(name); }

util::StatusOr<std::shared_ptr<const ServedDataset>> Server::Dataset(
    const std::string& name) {
  return registry_.Get(name);
}

void Server::ApplyServerLimits(util::RunControl* control) const {
  if (options_.default_deadline_ms > 0 && !control->has_deadline()) {
    control->set_deadline_after(
        std::chrono::milliseconds(options_.default_deadline_ms));
  }
  if (options_.default_node_budget > 0 && !control->has_node_budget()) {
    control->set_node_budget(options_.default_node_budget);
  }
}

util::StatusOr<core::MiningResult> Server::RunEngine(
    const ServedDataset& ds, const MineCall& call, core::EngineKind engine,
    const util::RunControl& control) const {
  core::MineRequest request = BuildRequest(call, control);
  // Every run against a registered dataset mines warm: the handle's
  // prepared bundle supplies root bounds and resolved groups, built at
  // most once per load generation.
  request.prepared = ds.prepared.get();
  // Every engine runs through the one engine table; the call's
  // "sharded:<n>" count and the server's shard_count meet in
  // engine::Mine, which applies the precedence rule.
  engine::EngineOptions opts;
  opts.window_rows = options_.window_rows;
  opts.equal_bins = options_.equal_bins;
  opts.shard_count = options_.shard_count;
  return engine::Mine({engine, call.shards}, call.config, opts, ds.db,
                      request);
}

MineOutcome Server::Mine(const MineCall& call) {
  util::WallTimer total_timer;
  MineOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++requests_;
  }

  auto finish = [&](MineOutcome out) {
    out.total_seconds = total_timer.Seconds();
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (out.verdict) {
      case Verdict::kOk:
        ++ok_;
        break;
      case Verdict::kRejectedBusy:
        ++rejected_busy_;
        break;
      case Verdict::kError:
        ++errors_;
        break;
      default:
        break;
    }
    return out;
  };

  // Fail fast on a bad config before touching cache or admission — a
  // malformed request must never occupy a queue slot.
  util::Status valid = call.config.Validate();
  if (!valid.ok()) {
    outcome.status = valid;
    return finish(outcome);
  }

  auto ds = registry_.Get(call.dataset);
  if (!ds.ok()) {
    outcome.status = ds.status();
    return finish(outcome);
  }

  outcome.dataset = *ds;
  const core::EngineKind engine =
      ResolveEngine(call.engine, (*ds)->db.num_rows());
  outcome.engine = engine;
  // The key is stamped on every outcome (cached or not): clients and the
  // CI smoke use it to confirm that two calls were or were not the same
  // canonical request.
  const core::RequestKey key = core::CanonicalRequestKey(
      (*ds)->fingerprint, call.config, call.group_attr, call.group_values,
      engine);
  outcome.key = key;

  util::RunControl control = call.run_control;
  ApplyServerLimits(&control);

  // Executes one admitted mining run and fills the outcome; shared by
  // the cached and bypass paths.
  auto admit_and_run =
      [&](const std::shared_ptr<ResultCache::InFlight>& flight) {
        double queue_wait = 0.0;
        AdmissionController::Outcome admitted =
            admission_.Admit(control, &queue_wait);
        outcome.queue_seconds = queue_wait;
        AdmissionController::SlotGuard guard(admission_, admitted);
        switch (admitted) {
          case AdmissionController::Outcome::kRejectedBusy:
            if (flight) cache_.Abandon(flight);
            outcome.verdict = Verdict::kRejectedBusy;
            return;
          case AdmissionController::Outcome::kExpiredInQueue:
            if (flight) cache_.Abandon(flight);
            outcome.verdict = Verdict::kExpiredInQueue;
            return;
          case AdmissionController::Outcome::kCancelledInQueue:
            if (flight) cache_.Abandon(flight);
            outcome.verdict = Verdict::kCancelled;
            return;
          case AdmissionController::Outcome::kAdmitted:
            break;
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++runs_started_;
        }
        util::WallTimer run_timer;
        util::StatusOr<core::MiningResult> mined =
            RunEngine(**ds, call, engine, control);
        outcome.run_seconds = run_timer.Seconds();
        if (!mined.ok()) {
          if (flight) cache_.Abandon(flight);
          outcome.verdict = Verdict::kError;
          outcome.status = mined.status();
          return;
        }
        auto shared =
            std::make_shared<const core::MiningResult>(std::move(*mined));
        if (flight) {
          // Partial results answer this caller's limits, not the
          // request's identity: followers are released to run (or wait)
          // for a complete answer of their own.
          if (shared->completion == core::Completion::kComplete) {
            cache_.Publish(flight, shared);
          } else {
            cache_.Abandon(flight);
          }
        }
        outcome.verdict = Verdict::kOk;
        outcome.result = std::move(shared);
      };

  if (!call.use_cache || options_.result_cache_capacity == 0) {
    outcome.cache = CacheStatus::kBypass;
    admit_and_run(nullptr);
    return finish(outcome);
  }

  while (true) {
    ResultCache::Lookup lookup = cache_.Acquire(key, (*ds)->name);
    switch (lookup.kind) {
      case ResultCache::LookupKind::kHit:
        outcome.verdict = Verdict::kOk;
        outcome.cache = CacheStatus::kHit;
        outcome.result = std::move(lookup.result);
        return finish(outcome);
      case ResultCache::LookupKind::kFollower: {
        bool abandoned = false;
        ResultCache::ResultPtr shared =
            cache_.Wait(lookup.flight, control, &abandoned);
        if (shared != nullptr) {
          outcome.verdict = Verdict::kOk;
          outcome.cache = CacheStatus::kShared;
          outcome.result = std::move(shared);
          return finish(outcome);
        }
        if (abandoned) continue;  // leader gave up; retry (maybe lead)
        outcome.verdict =
            control.cancelled() ? Verdict::kCancelled
                                : Verdict::kExpiredInQueue;
        return finish(outcome);
      }
      case ResultCache::LookupKind::kLeader:
        outcome.cache = CacheStatus::kMiss;
        admit_and_run(lookup.flight);
        return finish(outcome);
    }
  }
}

bool Server::TryCacheHit(const MineCall& call, MineOutcome* out) {
  if (!call.use_cache || options_.result_cache_capacity == 0) return false;
  if (!call.config.Validate().ok()) return false;  // Mine reports it
  // Peek is stat-neutral on the registry and the cache counts only the
  // hit, so a false return leaves every miss for Mine to account.
  std::shared_ptr<const ServedDataset> ds = registry_.Peek(call.dataset);
  if (ds == nullptr) return false;
  const core::EngineKind engine =
      ResolveEngine(call.engine, ds->db.num_rows());
  const core::RequestKey key = core::CanonicalRequestKey(
      ds->fingerprint, call.config, call.group_attr, call.group_values,
      engine);
  ResultCache::ResultPtr result = cache_.Peek(key);
  if (result == nullptr) return false;
  MineOutcome outcome;
  outcome.verdict = Verdict::kOk;
  outcome.cache = CacheStatus::kHit;
  outcome.engine = engine;
  outcome.key = key;
  outcome.result = std::move(result);
  outcome.dataset = std::move(ds);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++requests_;
    ++ok_;
  }
  *out = std::move(outcome);
  return true;
}

const std::vector<std::string> kServerOptionFlags = {
    "max-concurrent", "queue",       "cache-capacity", "memory-budget-mb",
    "deadline-ms",    "node-budget", "window-rows",    "equal-bins",
    "shards",         "chunk-rows",  "max-resident-bytes"};

util::StatusOr<ServerOptions> ServerOptionsFromFlags(const util::Flags& flags) {
  ServerOptions o;
  size_t budget_mb = o.dataset_memory_budget >> 20;
  for (const util::Status& status : {
           flags.GetCount("max-concurrent", &o.max_concurrent_runs),
           flags.GetCount("queue", &o.max_queue),
           flags.GetCount("cache-capacity", &o.result_cache_capacity),
           flags.GetCount("memory-budget-mb", &budget_mb, SIZE_MAX >> 20),
           flags.GetCount("deadline-ms", &o.default_deadline_ms,
                          util::kMaxDeadlineMs),
           flags.GetCount("node-budget", &o.default_node_budget),
           flags.GetCount("window-rows", &o.window_rows),
           flags.GetCount("equal-bins", &o.equal_bins, UINT64_MAX,
                          /*min=*/1),
           flags.GetCount("shards", &o.shard_count),
           flags.GetCount("chunk-rows", &o.chunk_rows),
           flags.GetCount("max-resident-bytes", &o.max_resident_bytes)}) {
    if (!status.ok()) return status;
  }
  o.dataset_memory_budget = budget_mb << 20;
  return o;
}

bool Server::WaitIdle(int64_t timeout_ms) const {
  return admission_.WaitIdle(timeout_ms);
}

ServerStats Server::Stats() const {
  ServerStats s;
  s.registry = registry_.stats();
  s.cache = cache_.stats();
  s.admission = admission_.stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.requests = requests_;
  s.runs_started = runs_started_;
  s.ok = ok_;
  s.rejected_busy = rejected_busy_;
  s.errors = errors_;
  return s;
}

}  // namespace sdadcs::serve
