// Socket front-end load: mixed cold/warm mining traffic from a hundred-plus
// concurrent keep-alive connections against an in-process sdadcs_netd
// stack (Server + NetServer on an ephemeral port), reporting request
// latency percentiles (p50/p99/p999), the shed rate, and a drain check
// proving a graceful shutdown answers every request it accepted.
//
//   bench_net_load [--smoke] [--connections N[,N...]] [--requests N]
//
// `--connections` takes a comma-separated sweep (e.g. 16,64,128); every
// point runs against a fresh Server/NetServer pair (fresh result cache,
// so cold keys stay cold at every point) and lands as its own group of
// cases in one BENCH_net_load.json.
//
// Traffic mix: every client issues `requests` synchronous mines on its
// own connection; every `kColdEvery`-th request carries a fresh request
// key (a top_k no one else uses), so it misses the result cache and runs
// the engine, while the rest repeat one shared primed key and are
// answered on the server's reader thread via the warm fast path. The
// cold/warm latency split is the point of the socket design: a warm hit
// must not queue behind a cold mine.
//
// Drain check: a second wave of clients pipelines cold mines, and the
// server is drained as soon as its frame counter shows them received —
// while they are still queued and running. Every one of them must be
// answered (a verdict or a structured error, never silence) before the
// sockets close.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "util/logging.h"

namespace sdadcs::bench {
namespace {

using serve::JsonValue;
using serve::NetClient;

constexpr int kColdEvery = 8;  ///< 1 cold mine per this many requests

struct Sample {
  bool cold = false;
  double millis = 0.0;
};

struct ClientResult {
  std::vector<Sample> samples;
  uint64_t ok = 0;
  uint64_t shed = 0;        ///< verdict rejected_busy / rejected_quota
  uint64_t wire_errors = 0; ///< "ok":false or unreadable frames
};

std::string MineLine(const std::string& id, int top_k) {
  // top_k selects the request key: every distinct value is a distinct
  // cache entry, so a never-used value forces a cold engine run.
  return "{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"batch\","
         "\"config\":{\"depth\":1,\"top\":" +
         std::to_string(top_k) + "},\"id\":\"" + id + "\"}";
}

/// One client: `requests` synchronous mines, every kColdEvery-th with a
/// key of its own (cold), the rest on the shared warm key.
ClientResult RunClient(int port, int client_id, int requests) {
  ClientResult r;
  auto connected = NetClient::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    r.wire_errors = static_cast<uint64_t>(requests);
    return r;
  }
  NetClient client = std::move(*connected);
  r.samples.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const bool cold = (i % kColdEvery) == kColdEvery - 1;
    // Warm key: top 10 (primed before the clock starts). Cold keys are
    // unique per (client, i) and start above any warm/drain key.
    const int top_k = cold ? 100 + client_id * requests + i : 10;
    const std::string id = std::to_string(client_id) + "." + std::to_string(i);
    auto start = std::chrono::steady_clock::now();
    auto response = client.Call(MineLine(id, top_k));
    double millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (!response.ok() || !response->IsObject()) {
      ++r.wire_errors;
      continue;
    }
    if (!response->GetBool("ok", false)) {
      ++r.wire_errors;
      continue;
    }
    const std::string verdict = response->GetString("verdict");
    if (verdict == "ok") {
      ++r.ok;
    } else {
      ++r.shed;  // rejected_busy / rejected_quota: shed, not failed
    }
    r.samples.push_back({cold, millis});
  }
  return r;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

void EmitLatencyCase(BenchJson* json, const std::string& name,
                     const char* label, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  json->BeginCase(name);
  json->SetCase("count", static_cast<uint64_t>(values.size()));
  json->SetCase("p50_ms", Percentile(values, 0.50));
  json->SetCase("p99_ms", Percentile(values, 0.99));
  json->SetCase("p999_ms", Percentile(values, 0.999));
  std::printf("%8s %10zu %12.3f %12.3f %12.3f\n", label, values.size(),
              Percentile(values, 0.50), Percentile(values, 0.99),
              Percentile(values, 0.999));
}

/// The drain check: `clients` connections each pipeline `per_client`
/// cold mines without waiting, the server drains while they are queued
/// and running, and every frame must still get exactly one response.
struct DrainReport {
  uint64_t sent = 0;
  uint64_t answered = 0;
};

DrainReport RunDrainCheck(serve::Server& server, int clients, int per_client) {
  serve::NetServerOptions net_options;
  net_options.executor_backlog = clients * per_client + 8;
  serve::NetServer net(server, net_options);
  SDADCS_CHECK(net.Start().ok());

  std::atomic<uint64_t> answered{0};
  const uint64_t sent = static_cast<uint64_t>(clients) * per_client;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&net, &answered, c, per_client] {
      auto connected = NetClient::Connect("127.0.0.1", net.port());
      if (!connected.ok()) return;
      NetClient client = std::move(*connected);
      for (int i = 0; i < per_client; ++i) {
        // Unique keys in a band below the timed phase's, all cold.
        const int top_k = 20 + c * per_client + i;
        if (!client.Send(MineLine("drain", top_k)).ok()) return;
      }
      for (int i = 0; i < per_client; ++i) {
        auto line = client.ReadLine();
        if (!line.ok()) return;  // EOF before every answer: lost frames
        auto response = JsonValue::Parse(*line);
        // A drain refusal is still an answer; silence is the failure.
        if (response.ok() && response->IsObject()) ++answered;
      }
    });
  }

  // Drain as soon as the server has *received* every frame — while the
  // mines are still queued on the executor and running.
  while (net.stats().frames < sent) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.Drain();
  for (std::thread& t : threads) t.join();
  return {sent, answered.load()};
}

/// One sweep point: `connections` clients against a fresh server stack
/// (fresh result cache, so this point's cold keys are really cold).
/// Returns the wire-error count so the sweep can assert on the total.
uint64_t RunPoint(BenchJson* json, int connections, int requests) {
  serve::ServerOptions options;
  options.max_concurrent_runs = 2;
  options.max_queue = 32;
  options.result_cache_capacity = 8192;  // every cold key stays resident
  serve::Server server(options);
  SDADCS_CHECK(server.Load("d", "synth:scaling:1000").ok());

  serve::NetServerOptions net_options;
  net_options.max_connections = connections + 8;
  net_options.executor_backlog = 96;
  serve::NetServer net(server, net_options);
  SDADCS_CHECK(net.Start().ok());

  // Prime the warm key so every "top":10 request hits the fast path.
  {
    auto primed = NetClient::Connect("127.0.0.1", net.port());
    SDADCS_CHECK(primed.ok());
    auto response = primed->Call(MineLine("prime", 10));
    SDADCS_CHECK(response.ok() && response->GetBool("ok", false));
  }

  std::printf("-- %d connections x %d requests, 1 cold per %d (the rest "
              "warm cache hits)\n\n",
              connections, requests, kColdEvery);

  std::vector<ClientResult> results(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&net, &results, c, requests] {
      results[static_cast<size_t>(c)] = RunClient(net.port(), c, requests);
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  std::vector<double> all, cold, warm;
  uint64_t ok = 0, shed = 0, wire_errors = 0;
  for (const ClientResult& r : results) {
    ok += r.ok;
    shed += r.shed;
    wire_errors += r.wire_errors;
    for (const Sample& s : r.samples) {
      all.push_back(s.millis);
      (s.cold ? cold : warm).push_back(s.millis);
    }
  }
  const uint64_t total = ok + shed;
  const double shed_rate =
      total > 0 ? static_cast<double>(shed) / static_cast<double>(total) : 0.0;

  std::string prefix = "c";
  prefix += std::to_string(connections);
  prefix += '.';
  json->BeginCase(prefix + "summary");
  json->SetCase("connections", static_cast<uint64_t>(connections));
  json->SetCase("wall_seconds", wall_seconds);
  json->SetCase("throughput_rps",
                wall_seconds > 0 ? static_cast<double>(total) / wall_seconds
                                 : 0.0);
  json->SetCase("ok", ok);
  json->SetCase("shed", shed);
  json->SetCase("shed_rate", shed_rate);
  json->SetCase("wire_errors", wire_errors);

  std::printf("%8s %10s %12s %12s %12s\n", "class", "count", "p50 ms",
              "p99 ms", "p999 ms");
  EmitLatencyCase(json, prefix + "overall", "overall", std::move(all));
  EmitLatencyCase(json, prefix + "cold", "cold", std::move(cold));
  EmitLatencyCase(json, prefix + "warm", "warm", std::move(warm));

  serve::NetServer::Stats net_stats = net.stats();
  std::printf("\n%llu ok, %llu shed (rate %.4f), %llu protocol errors, "
              "%.2f req/s, warm fast-path answers %llu\n\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed), shed_rate,
              static_cast<unsigned long long>(wire_errors),
              wall_seconds > 0 ? static_cast<double>(total) / wall_seconds
                               : 0.0,
              static_cast<unsigned long long>(net_stats.warm_fast_path));
  net.Drain();
  return wire_errors;
}

void Run(const std::vector<int>& sweep, int requests, bool smoke) {
  PrintHeader("Socket front-end load: mixed cold/warm traffic");

  BenchJson json("net_load");
  std::string sweep_str;
  for (int c : sweep) {
    if (!sweep_str.empty()) sweep_str += ",";
    sweep_str += std::to_string(c);
  }
  json.Set("connections_sweep", sweep_str);
  json.Set("requests_per_connection", static_cast<uint64_t>(requests));
  json.Set("cold_every", static_cast<uint64_t>(kColdEvery));
  json.Set("dataset", "synth:scaling:1000");

  uint64_t wire_errors = 0;
  for (int connections : sweep) {
    wire_errors += RunPoint(&json, connections, requests);
  }
  json.Set("protocol_errors", wire_errors);

  // Every mine answered with a verdict or a structured error; a wire
  // error would mean the protocol broke under concurrency.
  SDADCS_CHECK(wire_errors == 0);

  // The drain check gets a server of its own: it half-kills the stack
  // by design, so it must not share one with a timed sweep point.
  serve::ServerOptions options;
  options.max_concurrent_runs = 2;
  options.max_queue = 32;
  options.result_cache_capacity = 8192;
  serve::Server server(options);
  SDADCS_CHECK(server.Load("d", "synth:scaling:1000").ok());
  DrainReport drain =
      RunDrainCheck(server, smoke ? 4 : 16, /*per_client=*/4);
  json.BeginCase("drain");
  json.SetCase("sent", drain.sent);
  json.SetCase("answered", drain.answered);
  json.SetCase("lost", drain.sent - drain.answered);
  std::printf("drain: %llu pipelined mines sent, %llu answered, %llu lost\n",
              static_cast<unsigned long long>(drain.sent),
              static_cast<unsigned long long>(drain.answered),
              static_cast<unsigned long long>(drain.sent - drain.answered));
  SDADCS_CHECK(drain.answered == drain.sent);

  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics: %s\n", path.c_str());
}

/// "16,64,128" -> {16, 64, 128}; entries must be positive integers.
std::vector<int> ParseConnectionsList(const char* arg) {
  std::vector<int> sweep;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p || value <= 0 || (*end != '\0' && *end != ',')) {
      std::fprintf(stderr, "bad --connections list: %s\n", arg);
      std::exit(2);
    }
    sweep.push_back(static_cast<int>(value));
    p = (*end == ',') ? end + 1 : end;
  }
  if (sweep.empty()) {
    std::fprintf(stderr, "bad --connections list: %s\n", arg);
    std::exit(2);
  }
  return sweep;
}

}  // namespace
}  // namespace sdadcs::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<int> sweep;
  int requests = 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      requests = 8;
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      sweep = sdadcs::bench::ParseConnectionsList(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    }
  }
  if (sweep.empty()) {
    sweep = smoke ? std::vector<int>{12} : std::vector<int>{32, 64, 128};
  }
  sdadcs::bench::Run(sweep, requests, smoke);
  return 0;
}
