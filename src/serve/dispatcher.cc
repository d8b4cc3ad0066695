#include "serve/dispatcher.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

namespace sdadcs::serve {

namespace {

/// The line framer of every transport: LF-terminated frames read from a
/// socket or a pipe.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// The next frame into `*frame`; false at EOF or on a read error. A
  /// frame over kMaxFrameBytes is reported once, as soon as it is known,
  /// with `*oversized` set and `*frame` empty; its bytes are then
  /// discarded through its newline.
  bool Next(std::string* frame, bool* oversized) {
    *oversized = false;
    while (true) {
      size_t end = buffer_.find('\n', scanned_);
      if (end == std::string::npos && eof_ && !buffer_.empty()) {
        end = buffer_.size();  // a final line without its LF
      }
      if (end != std::string::npos) {
        frame->assign(buffer_, 0, end);
        buffer_.erase(0, end + 1);
        scanned_ = 0;
        if (std::exchange(skipping_, false)) continue;  // already reported
        *oversized = frame->size() > kMaxFrameBytes;
        if (*oversized) frame->clear();
        while (!frame->empty() && frame->back() == '\r') frame->pop_back();
        if (*oversized || !frame->empty()) return true;
        continue;
      }
      if (eof_) return false;
      scanned_ = buffer_.size();
      if (scanned_ > kMaxFrameBytes) {
        buffer_.clear();
        scanned_ = 0;
        if (!std::exchange(skipping_, true)) {
          frame->clear();
          *oversized = true;
          return true;
        }
      }
      const ssize_t got = ::read(fd_, chunk_, sizeof(chunk_));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        eof_ = true;  // peer closed, drain shut the socket, or stdin ended
      } else {
        buffer_.append(chunk_, static_cast<size_t>(got));
      }
    }
  }

 private:
  const int fd_;
  char chunk_[1 << 16];  // one read's bytes, before they join buffer_
  std::string buffer_;
  size_t scanned_ = 0;     ///< prefix of buffer_ known to hold no LF
  bool skipping_ = false;  ///< inside an oversized frame
  bool eof_ = false;
};

std::string MineReply(const MineFrame& frame, const MineOutcome& outcome) {
  JsonObjectWriter w =
      ResponseEnvelope(outcome.verdict != Verdict::kError, "mine", frame.id);
  RenderMineOutcome(
      outcome,
      frame.emit_patterns ? RenderPatternsBody(frame.call, outcome) : "", &w);
  return w.Str();
}

}  // namespace

Dispatcher::Dispatcher(Server& server, const NetServerOptions& options)
    : server_(server),
      executor_backlog_(options.executor_backlog),
      quota_(options.tenant_max_inflight) {
  int threads = options.executor_threads;
  if (threads <= 0) {
    // Enough workers to occupy every admission slot and queue position:
    // the admission controller, not the executor, is the concurrency
    // governor.
    threads = server.options().max_concurrent_runs + server.options().max_queue;
  }
  executor_ = std::make_unique<util::ThreadPool>(static_cast<size_t>(threads));
}

// The executor goes first: its jobs use the other members.
Dispatcher::~Dispatcher() { executor_.reset(); }

void Dispatcher::Serve(const std::shared_ptr<Session>& session, int fd,
                       Order order) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.connections_accepted;
    ++counters_.connections_active;
  }
  FrameReader reader(fd);
  std::string frame;
  bool oversized = false;
  while (reader.Next(&frame, &oversized)) {
    if (oversized) {
      Count(&Stats::protocol_errors);
      WireError error{ErrorCode::kParseError, "",
                      "frame exceeds " + std::to_string(kMaxFrameBytes) +
                          " bytes"};
      session->Write(ErrorResponse("", error).Str());
    } else {
      HandleFrame(session, frame);
    }
    if (order == Order::kLockStep) {
      {
        std::unique_lock<std::mutex> lock(session->mu_);
        session->idle_cv_.wait(lock, [&] { return session->inflight_ == 0; });
      }
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      if (shutdown_requested_) break;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  --counters_.connections_active;
}

void Dispatcher::Refuse(Session& session, const std::string& message) {
  session.Write(
      ErrorResponse("", WireError{ErrorCode::kBusy, "", message}).Str());
  Count(&Stats::connections_rejected);
}

void Dispatcher::Count(uint64_t Stats::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(counters_.*counter);
}

void Dispatcher::HandleFrame(const std::shared_ptr<Session>& session,
                             const std::string& line) {
  auto request = JsonValue::Parse(line);
  std::optional<WireError> error;
  std::string op, id;
  if (!request.ok() || !request->IsObject()) {
    error = WireError{ErrorCode::kParseError, "",
                      request.ok() ? "request must be a JSON object"
                                   : request.status().message()};
  } else {
    op = request->GetString("op");
    id = request->GetString("id");
    error = CheckProtocolVersion(*request);
  }
  if (error) {
    Count(&Stats::protocol_errors);
    session->Write(ErrorResponse(op, *error, id).Str());
    return;
  }
  // A frame counted in `frames` is past this check, so a drain that
  // starts later answers it in full (see NetServer::Drain).
  if (draining_.load()) {
    error = WireError{ErrorCode::kDraining, "",
                      "server is draining; no new requests"};
    session->Write(ErrorResponse(op, *error, id).Str());
    return;
  }
  Count(&Stats::frames);
  if (op == "mine") {
    HandleMine(session, *request, id);
  } else {
    session->Write(Answer(*session, *request, op, id).Str());
    if (op == "shutdown") RequestShutdown();
  }
}

JsonObjectWriter Dispatcher::Answer(Session& session, const JsonValue& request,
                                    const std::string& op,
                                    const std::string& id) {
  auto invalid = [&](const char* field, const std::string& message) {
    return ErrorResponse(
        op, WireError{ErrorCode::kInvalidArgument, field, message}, id);
  };
  JsonObjectWriter w = ResponseEnvelope(true, op, id);
  if (op == "load") {
    const std::string name = request.GetString("name");
    const std::string spec = request.GetString("spec");
    if (name.empty() || spec.empty()) {
      return invalid(name.empty() ? "name" : "spec",
                     "load requires \"name\" and \"spec\"");
    }
    auto loaded = server_.Load(name, spec);
    if (!loaded.ok()) {
      return ErrorResponse(op, WireError::FromStatus(loaded.status(), "spec"),
                           id);
    }
    w.Add("name", name);
    w.Add("rows", static_cast<uint64_t>((*loaded)->db.num_rows()));
    w.Add("attributes", static_cast<uint64_t>((*loaded)->db.num_attributes()));
    w.Add("bytes", static_cast<uint64_t>((*loaded)->memory_bytes));
    w.Add("version", (*loaded)->generation);
  } else if (op == "cancel") {
    std::string target = request.GetString("target");
    if (target.empty()) target = id;  // {"op":"cancel","id":"7"} form
    if (target.empty()) {
      return invalid("id", "cancel requires the \"id\" of an in-flight mine");
    }
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(session.mu_);
      auto it = session.controls_.find(target);
      if (it != session.controls_.end()) {
        it->second.second.Cancel();
        found = true;
      }
    }
    if (found) Count(&Stats::cancels);
    w.Add("found", found);
  } else if (op == "stats") {
    RenderStats(server_.Stats(), &w);
    const Stats net = stats();
    JsonObjectWriter n;
    n.Add("connections_accepted", net.connections_accepted);
    n.Add("connections_rejected", net.connections_rejected);
    n.Add("connections_active", net.connections_active);
    n.Add("frames", net.frames);
    n.Add("protocol_errors", net.protocol_errors);
    n.Add("mines_dispatched", net.mines_dispatched);
    n.Add("warm_fast_path", net.warm_fast_path);
    n.Add("shed_backlog", net.shed_backlog);
    n.Add("cancels", net.cancels);
    n.Add("quota_max_inflight", net.quota.max_inflight);
    n.Add("quota_tenants_inflight", net.quota.tenants_inflight);
    n.Add("quota_acquired", net.quota.acquired);
    n.Add("quota_rejected", net.quota.rejected);
    w.AddRaw("net", n.Str());
  } else if (op == "engines") {
    RenderEngines(&w);
  } else if (op == "evict") {
    const std::string name = request.GetString("name");
    if (name.empty()) return invalid("name", "evict requires \"name\"");
    w.Add("name", name);
    w.Add("evicted", server_.Evict(name));
  } else if (op != "ping" && op != "shutdown") {
    Count(&Stats::protocol_errors);
    return ErrorResponse(
        op, WireError{ErrorCode::kUnknownOp, "op", "unknown op '" + op + "'"},
        id);
  }
  return w;
}

void Dispatcher::HandleMine(const std::shared_ptr<Session>& session,
                            const JsonValue& request, const std::string& id) {
  MineFrame frame;
  if (auto error = ParseMineCall(request, &frame)) {
    session->Write(ErrorResponse("mine", *error, id).Str());
    return;
  }

  // Warm fast path: a result-cache hit is a hash lookup — answer it on
  // the reader thread instead of queueing it behind cold mines.
  MineOutcome outcome;
  if (!frame.anytime && server_.TryCacheHit(frame.call, &outcome)) {
    std::string reply = MineReply(frame, outcome);
    // Count before writing: a client that reads the response and
    // immediately polls stats must see it.
    Count(&Stats::warm_fast_path);
    session->Write(std::move(reply));
    return;
  }

  {
    // Backlog bound: shed here, explicitly, rather than buffering an
    // unbounded executor queue during overload.
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    if (mines_inflight_ >= executor_backlog_) {
      lock.unlock();
      outcome.verdict = Verdict::kRejectedBusy;
      Count(&Stats::shed_backlog);
      session->Write(MineReply(frame, outcome));
      return;
    }
    ++mines_inflight_;
  }
  // Copies of a RunControl share state: the handle registered for
  // "cancel" is the one the run checks.
  ApplyFrameLimits(frame, &frame.call.run_control);
  uint64_t control_seq = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    ++session->inflight_;
    if (!frame.id.empty()) {
      control_seq = ++session->next_control_seq_;
      session->controls_[frame.id] = {control_seq, frame.call.run_control};
    }
  }
  Count(&Stats::mines_dispatched);
  executor_->Submit([this, session, frame = std::move(frame),
                     control_seq]() mutable {
    RunMine(session, frame, control_seq);
  });
}

void Dispatcher::RunMine(const std::shared_ptr<Session>& session,
                         MineFrame& frame, uint64_t control_seq) {
  MineOutcome outcome;
  if (!quota_.TryAcquire(frame.tenant)) {
    outcome.verdict = Verdict::kRejectedQuota;
  } else {
    if (frame.anytime) {
      // Pipelined, partial events interleave with other replies; the
      // echoed id keeps them attributable.
      frame.call.run_control.set_anytime(true);
      frame.call.run_control.set_progress_callback(
          [weak = std::weak_ptr<Session>(session),
           id = frame.id](const util::RunProgress& p) {
            if (!p.improved) return;
            auto s = weak.lock();
            if (s == nullptr) return;
            JsonObjectWriter event;
            event.Add("v", kProtocolVersion);
            event.Add("event", "partial");
            event.Add("op", "mine");
            if (!id.empty()) event.Add("id", id);
            event.Add("level", static_cast<int64_t>(p.level));
            event.Add("patterns", static_cast<uint64_t>(p.patterns_found));
            event.Add("best", p.best_measure);
            event.Add("threshold", p.topk_threshold);
            s->Write(event.Str());
          });
    }
    outcome = server_.Mine(frame.call);
    quota_.Release(frame.tenant);
  }
  session->Write(MineReply(frame, outcome));

  {
    std::lock_guard<std::mutex> lock(session->mu_);
    auto it = session->controls_.find(frame.id);
    if (it != session->controls_.end() && it->second.first == control_seq) {
      session->controls_.erase(it);
    }
    --session->inflight_;
  }
  session->idle_cv_.notify_all();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  --mines_inflight_;
  lifecycle_cv_.notify_all();
}

void Dispatcher::RequestShutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  shutdown_requested_ = true;
  lifecycle_cv_.notify_all();
}

void Dispatcher::WaitShutdown() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Dispatcher::BeginDrain() { draining_ = true; }

void Dispatcher::FinishInFlight() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] { return mines_inflight_ == 0; });
  }
  server_.WaitIdle();
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = counters_;
  }
  s.quota = quota_.stats();
  return s;
}

}  // namespace sdadcs::serve
