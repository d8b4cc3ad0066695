#ifndef SDADCS_SERVE_DISPATCHER_H_
#define SDADCS_SERVE_DISPATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace sdadcs::serve {

/// A longer frame is answered parse_error and skipped through its
/// newline; the session stays alive.
inline constexpr size_t kMaxFrameBytes = 8u << 20;

/// Deployment knobs of the front ends (mining-side limits stay on
/// ServerOptions). host, port and max_connections shape NetServer's
/// socket; the rest shape the Dispatcher.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port to bind; 0 asks the kernel for an ephemeral port (read it
  /// back from NetServer::port()).
  int port = 0;
  /// Concurrent connections; one past the cap is answered with a single
  /// {"code":"busy"} error frame and closed.
  int max_connections = 256;
  /// Worker threads of the bounded mine executor; 0 derives
  /// max_concurrent_runs + max_queue from the server options, so every
  /// admission slot and queue position can be occupied simultaneously.
  int executor_threads = 0;
  /// Mine frames allowed in flight (executor queue + running) before the
  /// front end sheds with verdict "rejected_busy" instead of buffering.
  int executor_backlog = 64;
  /// Per-tenant in-flight mine quota (see TenantQuota); 0 = unlimited.
  int tenant_max_inflight = 0;
};

/// One client session. The transport subclasses it to say where reply
/// frames go; the Dispatcher keeps the session's in-flight mines in it,
/// which is what a "cancel" op searches.
class Session {
 public:
  Session() = default;
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Writes one reply frame (no trailing newline). Called from the
  /// session's reader and from executor threads, so it must serialize;
  /// a peer that has gone away is the transport's to ignore.
  virtual void Write(std::string frame) = 0;

 private:
  friend class Dispatcher;

  std::mutex mu_;
  std::condition_variable idle_cv_;
  /// "id" -> (registration sequence, RunControl) of in-flight mines; the
  /// sequence keeps a finished mine from erasing a newer one that reused
  /// its id.
  std::unordered_map<std::string, std::pair<uint64_t, util::RunControl>>
      controls_;
  uint64_t next_control_seq_ = 0;
  int inflight_ = 0;  ///< mines handed to the executor, reply not written
};

/// The v1 wire protocol (serve/protocol.h) behind every transport, from a
/// received line to its reply frames: parse and version check, the op
/// table (load / mine / cancel / stats / engines / evict / ping /
/// shutdown), the mine path — warm result-cache hits answered inline,
/// real runs on a bounded executor with backlog shedding and per-tenant
/// quotas, the per-session cancel registry, anytime partial events — and
/// the counters behind the "net" stats object.
///
/// sdadcs_netd (NetServer) serves one kPipelined session per connection,
/// sdadcs_serve one kLockStep session on stdin.
class Dispatcher {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;  ///< sessions served
    uint64_t connections_rejected = 0;  ///< refused at the transport's cap
    int connections_active = 0;
    uint64_t frames = 0;            ///< well-formed frames admitted
    uint64_t protocol_errors = 0;   ///< parse/version/unknown-op answers
    uint64_t mines_dispatched = 0;  ///< frames handed to the executor
    uint64_t warm_fast_path = 0;    ///< cache hits answered on the reader
    uint64_t shed_backlog = 0;      ///< rejected_busy before the executor
    uint64_t cancels = 0;           ///< cancel ops that found their target
    TenantQuota::Stats quota;
  };

  /// kPipelined: the next frame is read while earlier mines run; replies
  /// go out in completion order, correlated by "id". kLockStep: the next
  /// frame is read only after every reply to the current one is written,
  /// and the session ends after a "shutdown" op.
  enum class Order { kPipelined, kLockStep };

  /// Uses executor_threads, executor_backlog and tenant_max_inflight.
  Dispatcher(Server& server, const NetServerOptions& options);
  ~Dispatcher();  ///< joins the executor

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Answers the frames read from `fd` until EOF (or, kLockStep, a
  /// shutdown op). Frames are LF-terminated lines: CR stripped, blank
  /// lines skipped, a final unterminated line served, and one over
  /// kMaxFrameBytes answered parse_error.
  void Serve(const std::shared_ptr<Session>& session, int fd, Order order);

  /// Answers a connection the transport refuses at its cap with one
  /// {"code":"busy"} frame, and counts it.
  void Refuse(Session& session, const std::string& message);

  /// Called by the "shutdown" op and the transports; WaitShutdown blocks
  /// until then.
  void RequestShutdown();
  void WaitShutdown();

  /// Drain: after BeginDrain every new frame is answered "draining";
  /// FinishInFlight blocks until every mine dispatched so far has written
  /// its reply (anytime partials included) and the server is idle.
  void BeginDrain();
  void FinishInFlight();

  Stats stats() const;

 private:
  void HandleFrame(const std::shared_ptr<Session>& session,
                   const std::string& line);
  /// The reply to every op but "mine".
  JsonObjectWriter Answer(Session& session, const JsonValue& request,
                          const std::string& op, const std::string& id);
  void HandleMine(const std::shared_ptr<Session>& session,
                  const JsonValue& request, const std::string& id);
  void RunMine(const std::shared_ptr<Session>& session, MineFrame& frame,
               uint64_t control_seq);
  void Count(uint64_t Stats::*counter);

  Server& server_;
  const int executor_backlog_;
  std::unique_ptr<util::ThreadPool> executor_;
  TenantQuota quota_;

  std::atomic<bool> draining_{false};

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool shutdown_requested_ = false;
  int mines_inflight_ = 0;  ///< dispatched to the executor, not yet done

  mutable std::mutex stats_mu_;
  Stats counters_;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_DISPATCHER_H_
