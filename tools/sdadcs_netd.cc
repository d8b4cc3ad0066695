// sdadcs_netd — TCP mining daemon speaking the versioned ND-JSON wire
// protocol of serve/protocol.h (see docs/API.md, "Wire protocol").
//
//   ./sdadcs_netd [--host A.B.C.D] [--port N] [--port-file PATH]
//                 [--max-connections N] [--executor-threads N]
//                 [--executor-backlog N] [--tenant-quota N]
//                 [--max-concurrent N] [--queue N] [--cache-capacity N]
//                 [--memory-budget-mb N] [--deadline-ms N]
//                 [--node-budget N] [--window-rows N]
//                 [--equal-bins N] [--shards N]
//                 [--chunk-rows N] [--max-resident-bytes N]
//
// --port 0 (the default) binds an ephemeral port; the resolved port is
// printed on the "listening" line and, with --port-file, written to PATH
// so scripts can wait for readiness and read the port in one step.
//
// Every flag but --host and --port-file takes a decimal integer its
// setting can hold (--equal-bins at least 1); anything else, and any
// other flag, exits 2 naming the flag. Frames go to
// the op dispatcher sdadcs_serve runs on stdin (serve/dispatcher.h);
// connections are pipelined, replies correlated by "id".
//
// Shuts down on {"op":"shutdown"} from any client, SIGINT or SIGTERM —
// always via graceful drain: stop accepting, answer everything already
// received, flush, then exit.

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/net_server.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

sdadcs::serve::NetServer* g_net_server = nullptr;

void HandleSignal(int) {
  // RequestShutdown only touches a mutex/cv pair; good enough for the
  // termination path of a CLI daemon.
  if (g_net_server != nullptr) g_net_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using sdadcs::serve::NetServer;
  using sdadcs::serve::NetServerOptions;
  using sdadcs::serve::Server;

  std::vector<std::string> value_flags = {
      "host", "port", "port-file", "max-connections", "executor-threads",
      "executor-backlog", "tenant-quota"};
  value_flags.insert(value_flags.end(),
                     sdadcs::serve::kServerOptionFlags.begin(),
                     sdadcs::serve::kServerOptionFlags.end());
  auto flags = sdadcs::util::Flags::Parse(argc, argv, value_flags,
                                          /*boolean_flags=*/{});
  if (!flags.ok()) {
    std::fprintf(stderr, "sdadcs_netd: %s\n",
                 flags.status().message().c_str());
    return 2;
  }

  auto options = sdadcs::serve::ServerOptionsFromFlags(*flags);
  NetServerOptions net_options;
  net_options.host = flags->Get("host", net_options.host);
  for (const sdadcs::util::Status& status : {
           options.status(),
           flags->GetCount("port", &net_options.port, 65535),
           flags->GetCount("max-connections", &net_options.max_connections),
           flags->GetCount("executor-threads", &net_options.executor_threads),
           flags->GetCount("executor-backlog", &net_options.executor_backlog),
           flags->GetCount("tenant-quota", &net_options.tenant_max_inflight)}) {
    if (!status.ok()) {
      std::fprintf(stderr, "sdadcs_netd: %s\n", status.message().c_str());
      return 2;
    }
  }

  Server server(*options);
  NetServer net(server, net_options);
  auto started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "sdadcs_netd: %s\n", started.message().c_str());
    return 1;
  }

  g_net_server = &net;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stdout, "sdadcs_netd listening on %s:%d (protocol v%lld)\n",
               net_options.host.c_str(), net.port(),
               static_cast<long long>(sdadcs::serve::kProtocolVersion));
  std::fflush(stdout);

  // The port file is the readiness signal: written only after the
  // socket accepts connections.
  std::string port_file = flags->Get("port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sdadcs_netd: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", net.port());
    std::fclose(f);
  }

  net.WaitShutdown();
  std::fprintf(stdout, "sdadcs_netd draining\n");
  std::fflush(stdout);
  net.Drain();
  g_net_server = nullptr;

  NetServer::Stats stats = net.stats();
  std::fprintf(stdout,
               "sdadcs_netd done: %llu connections, %llu frames, "
               "%llu mines, %llu warm fast-path, %llu protocol errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.frames),
               static_cast<unsigned long long>(stats.mines_dispatched),
               static_cast<unsigned long long>(stats.warm_fast_path),
               static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}
