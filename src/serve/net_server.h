#ifndef SDADCS_SERVE_NET_SERVER_H_
#define SDADCS_SERVE_NET_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/dispatcher.h"
#include "serve/server.h"
#include "util/status.h"

namespace sdadcs::serve {

/// TCP socket transport for the Dispatcher, speaking the versioned
/// ND-JSON wire protocol of serve/protocol.h: one JSON object per
/// LF-terminated line, keep-alive connections, per-connection request
/// pipelining with client-chosen "id" correlation tokens, and graceful
/// drain. NetServer owns the sockets — accept, the connection cap, reply
/// writes, drain; every frame is answered by the Dispatcher.
///
/// Threading model: one reader thread per connection runs a pipelined
/// Dispatcher session, which answers everything cheap in place — loads,
/// stats, cancels, protocol errors, and result-cache hits, so a warm hit
/// never queues behind a cold mine. Real mining work goes to the
/// dispatcher's shared bounded executor; responses to pipelined requests
/// are written in completion order, correlated by the echoed "id".
///
///   serve::Server server(options);
///   serve::NetServer net(server, {.port = 0});
///   auto started = net.Start();            // binds, listens, accepts
///   int port = net.port();                 // resolved ephemeral port
///   ...
///   net.WaitShutdown();                    // a client sent {"op":"shutdown"}
///   net.Drain();  // stop accepting, finish in-flight, flush, close
class NetServer {
 public:
  NetServer(Server& server, NetServerOptions options);
  /// Drains (gracefully) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails with
  /// kIoError when the address cannot be bound.
  util::Status Start();

  /// The bound TCP port (resolves option port 0 to the kernel's pick);
  /// 0 before Start().
  int port() const { return port_; }

  /// Blocks until some client sends {"op":"shutdown"} or another thread
  /// calls RequestShutdown. The caller then runs Drain().
  void WaitShutdown() { dispatcher_.WaitShutdown(); }
  void RequestShutdown() { dispatcher_.RequestShutdown(); }

  /// Graceful drain: stops accepting, answers every request already
  /// received (new frames are refused with {"code":"draining"}), lets
  /// in-flight mines finish and their responses — including anytime
  /// partial events — flush, then closes every connection and joins its
  /// reader (idle executor workers are joined on destruction).
  /// Idempotent.
  void Drain();

  /// The dispatcher's counters (the "net" stats object).
  using Stats = Dispatcher::Stats;
  Stats stats() const { return dispatcher_.stats(); }

 private:
  struct Connection;

  void AcceptLoop();
  /// Joins and forgets connections whose reader has exited.
  void ReapConnectionsLocked();

  NetServerOptions options_;
  Dispatcher dispatcher_;

  int listen_fd_ = -1;
  std::atomic<int> port_{0};
  std::thread accept_thread_;
  bool started_ = false;
  bool stopped_ = false;

  std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_NET_SERVER_H_
