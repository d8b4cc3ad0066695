// sdadcs_serve — the ND-JSON mining server on stdin/stdout: the op
// dispatcher of serve/dispatcher.h that sdadcs_netd serves over TCP,
// with the same ops and fields (docs/API.md, "Wire protocol").
//
//   ./sdadcs_serve [--max-concurrent N] [--queue N] [--cache-capacity N]
//                  [--memory-budget-mb N] [--deadline-ms N]
//                  [--node-budget N] [--window-rows N]
//                  [--equal-bins N] [--shards N]
//                  [--chunk-rows N] [--max-resident-bytes N]
//
// Each flag takes a decimal integer its setting can hold (--equal-bins
// at least 1); anything else, and any other flag, exits 2 naming the
// flag. One request per input line, for example
//
//   {"op":"load","name":"d1","spec":"synth:scaling:20000"}
//   {"op":"mine","dataset":"d1","group":"batch","config":{"depth":2}}
//   {"op":"shutdown"}
//
// stdin is lock-step: the next line is read only after every reply to
// the current one is on stdout, so replies (an anytime mine's partials
// first) come in request order and "cancel" finds nothing in flight.
// "shutdown" acknowledges and exits 0, as does EOF.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "serve/dispatcher.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

// Replies go to stdout, one flushed line per frame. Lock step keeps
// writes from overlapping; each is one fwrite under stdio's lock anyway.
class StdoutSession : public sdadcs::serve::Session {
 public:
  void Write(std::string frame) override {
    frame += '\n';
    std::fwrite(frame.data(), 1, frame.size(), stdout);
    std::fflush(stdout);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using sdadcs::serve::Dispatcher;

  auto flags = sdadcs::util::Flags::Parse(
      argc, argv, sdadcs::serve::kServerOptionFlags, /*boolean_flags=*/{});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  auto options = sdadcs::serve::ServerOptionsFromFlags(*flags);
  if (!options.ok()) {
    std::fprintf(stderr, "sdadcs_serve: %s\n",
                 options.status().message().c_str());
    return 2;
  }

  sdadcs::serve::Server server(*options);
  // Lock step has at most one mine in flight: one executor worker.
  Dispatcher dispatcher(server, {.executor_threads = 1});
  dispatcher.Serve(std::make_shared<StdoutSession>(), STDIN_FILENO,
                   Dispatcher::Order::kLockStep);
  return 0;
}
