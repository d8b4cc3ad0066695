#include "serve/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace sdadcs::serve {

/// One keep-alive client connection: the socket, its reader thread, and
/// (as a Session) the dispatcher's in-flight state. Held by shared_ptr
/// from the reader, the accept loop's list and every dispatched mine
/// job, so the fd outlives whoever still needs to write a response.
struct NetServer::Connection : Session {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() override { ::close(fd); }

  /// Serialized, flushed frame write ('\n' appended). A failed send
  /// marks the connection write-dead: the peer is gone, later frames are
  /// dropped.
  void Write(std::string frame) override {
    frame += '\n';
    std::lock_guard<std::mutex> lock(write_mu);
    const char* data = frame.data();
    size_t size = frame.size();
    while (!write_dead && size > 0) {
      // MSG_NOSIGNAL keeps a dead peer an error code, not a SIGPIPE.
      ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent <= 0) {
        write_dead = true;
        break;
      }
      data += sent;
      size -= static_cast<size_t>(sent);
    }
  }

  const int fd;
  std::mutex write_mu;
  bool write_dead = false;
  std::thread reader;
  std::atomic<bool> done{false};  ///< reader exited; ready to reap
};

NetServer::NetServer(Server& server, NetServerOptions options)
    : options_(std::move(options)), dispatcher_(server, options_) {}

NetServer::~NetServer() { Drain(); }

util::Status NetServer::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("NetServer already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError("socket: " +
                                 std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("host: cannot parse address '" +
                                         options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    util::Status status = util::Status::IoError(
        "bind/listen " + options_.host + ":" +
        std::to_string(options_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::OK();
}

void NetServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed: drain has begun
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapConnectionsLocked();
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      Connection refused(fd);
      dispatcher_.Refuse(refused, "connection limit reached (" +
                                      std::to_string(options_.max_connections) +
                                      ")");
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    conns_.push_back(conn);
    conn->reader = std::thread([this, conn] {
      dispatcher_.Serve(conn, conn->fd, Dispatcher::Order::kPipelined);
      conn->done = true;
    });
  }
}

void NetServer::ReapConnectionsLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::Drain() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // 1. Stop accepting: from here on every new frame is answered with
  // {"code":"draining"}, and shutting the listen socket down unblocks
  // accept(). It is closed only once the accept thread is gone.
  dispatcher_.BeginDrain();
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Finish in-flight: every dispatched mine runs to completion and
  // writes its response (and any anytime partials). Readers still answer
  // frames that race in, with draining errors — a response is never
  // silently dropped.
  dispatcher_.FinishInFlight();

  // 3. Stop reading and join the readers. Each answers the frame in hand
  // first; one admitted just before step 1 may dispatch a mine only now,
  // so finish in-flight again before closing.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  dispatcher_.FinishInFlight();

  // 4. Close every connection.
  for (auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  conns_.clear();
  RequestShutdown();  // release any WaitShutdown caller
}

}  // namespace sdadcs::serve
