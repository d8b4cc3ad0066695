// NetServer driven end to end through real TCP connections: the warm
// fast path, pipelined cancellation, queue exits observed over the
// wire, per-tenant quotas, protocol errors, and graceful drain.

#include "serve/net_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/net_client.h"
#include "serve/server.h"

namespace sdadcs::serve {
namespace {

JsonValue MustParse(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue();
}

JsonValue Call(NetClient& client, const std::string& line) {
  auto response = client.Call(line);
  EXPECT_TRUE(response.ok()) << line;
  return response.ok() ? *response : JsonValue();
}

/// A serve::Server + NetServer pair on an ephemeral port with one
/// dataset loaded, drained on destruction.
struct TestStack {
  explicit TestStack(ServerOptions server_options = {},
                     NetServerOptions net_options = {})
      : server(server_options), net(server, net_options) {
    EXPECT_TRUE(net.Start().ok());
    NetClient loader = Connect();
    JsonValue loaded = Call(
        loader, R"({"op":"load","name":"d","spec":"synth:scaling:2000"})");
    EXPECT_TRUE(loaded.GetBool("ok", false));
  }
  ~TestStack() { net.Drain(); }

  NetClient Connect() {
    auto client = NetClient::Connect("127.0.0.1", net.port());
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  Server server;
  NetServer net;
};

/// Polls {"op":"stats"} on a connection of its own until one mine holds
/// an admission slot. Executor workers pick frames up in any order, so a
/// test that needs one mine queued behind another sends the second only
/// once the first holds its slot.
void AwaitOneRunning(TestStack& stack) {
  NetClient probe = stack.Connect();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < give_up) {
    JsonValue stats = Call(probe, R"({"op":"stats"})");
    const JsonValue* admission = stats.Find("admission");
    ASSERT_NE(admission, nullptr);
    if (admission->GetInt("running", -1) == 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "no mine reached an admission slot";
}

std::string Mine(const std::string& id,
                 const std::string& config = R"({"depth":1})",
                 const std::string& extra = "") {
  return R"({"op":"mine","dataset":"d","group":"batch","id":")" + id +
         R"(","config":)" + config + extra + "}";
}

TEST(NetServerTest, WarmHitAnsweredOnReaderThread) {
  TestStack stack;
  NetClient client = stack.Connect();

  JsonValue cold = Call(client, Mine("1"));
  EXPECT_TRUE(cold.GetBool("ok", false));
  EXPECT_EQ(cold.GetString("verdict"), "ok");
  EXPECT_EQ(cold.GetString("cache"), "miss");
  EXPECT_EQ(cold.GetString("id"), "1");

  JsonValue warm = Call(client, Mine("2"));
  EXPECT_EQ(warm.GetString("cache"), "hit");
  EXPECT_EQ(warm.GetString("id"), "2");

  NetServer::Stats stats = stack.net.stats();
  EXPECT_EQ(stats.mines_dispatched, 1u);  // only the cold one queued
  EXPECT_EQ(stats.warm_fast_path, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServerTest, PatternsReplyIsOneFrame) {
  TestStack stack;
  NetClient client = stack.Connect();
  // The miss (answered by a run slot) and the hit (answered on the
  // reader thread) render the patterns body on separate paths. Lock
  // step: a split reply would leave its tail lines ahead of the ping's.
  for (const char* id : {"1", "2"}) {
    ASSERT_TRUE(
        client.Send(Mine(id, R"({"depth":2})", R"(,"emit":"patterns")")).ok());
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok());
    JsonValue reply = MustParse(*line);
    EXPECT_EQ(reply.GetString("id"), id);
    EXPECT_EQ(reply.GetString("verdict"), "ok");
    const JsonValue* patterns = reply.Find("patterns");
    ASSERT_NE(patterns, nullptr) << *line;
    ASSERT_TRUE(patterns->IsArray());
    EXPECT_GT(patterns->AsArray().size(), 0u);
    EXPECT_EQ(static_cast<int64_t>(patterns->AsArray().size()),
              reply.GetInt("patterns_found", -1));
    // The next frame's reply starts on the very next line.
    ASSERT_TRUE(client.Send(R"({"op":"ping","id":"after"})").ok());
    auto next = client.ReadLine();
    ASSERT_TRUE(next.ok());
    JsonValue ping = MustParse(*next);
    EXPECT_EQ(ping.GetString("op"), "ping");
    EXPECT_EQ(ping.GetString("id"), "after");
  }
}

TEST(NetServerTest, ProtocolErrorsKeepTheConnectionAlive) {
  TestStack stack;
  NetClient client = stack.Connect();

  JsonValue garbage = Call(client, "this is not json");
  EXPECT_FALSE(garbage.GetBool("ok", true));
  const JsonValue* error = garbage.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "parse_error");

  JsonValue unknown = Call(client, R"({"op":"transmogrify"})");
  EXPECT_EQ(unknown.Find("error")->GetString("code"), "unknown_op");
  EXPECT_EQ(unknown.Find("error")->GetString("field"), "op");

  JsonValue version = Call(client, R"({"v":99,"op":"ping"})");
  EXPECT_EQ(version.Find("error")->GetString("code"),
            "unsupported_version");

  JsonValue invalid = Call(client, R"({"op":"mine","dataset":"d"})");
  EXPECT_EQ(invalid.Find("error")->GetString("code"), "invalid_argument");
  EXPECT_EQ(invalid.Find("error")->GetString("field"), "group");

  JsonValue burst =
      Call(client, Mine("b", R"({"depth":1})", R"(,"burst":4)"));
  EXPECT_EQ(burst.Find("error")->GetString("field"), "burst");

  // After five rejected frames, the connection still serves.
  JsonValue ping = Call(client, R"({"op":"ping"})");
  EXPECT_TRUE(ping.GetBool("ok", false));
  EXPECT_EQ(static_cast<int64_t>(ping.GetNumber("v", 0)), 1);
}

// A pipelined {"op":"cancel"} reaches a mine waiting in the admission
// queue: the reader thread registers the mine's RunControl before
// dispatch, so the cancel (processed next, in frame order) always finds
// it.
TEST(NetServerTest, PipelinedCancelReachesQueuedMine) {
  ServerOptions options;
  options.max_concurrent_runs = 1;  // "a" occupies the only slot
  TestStack stack(options);
  NetClient client = stack.Connect();

  // depth 2 holds the slot for long enough that "b" is still queued
  // when its cancel lands (frames are handled in order, microseconds
  // apart).
  ASSERT_TRUE(client.Send(Mine("a", R"({"depth":2})")).ok());
  AwaitOneRunning(stack);
  ASSERT_TRUE(client.Send(Mine("b")).ok());
  ASSERT_TRUE(client.Send(R"({"op":"cancel","target":"b"})").ok());

  // Completion order: cancel ack (inline), then b (cancelled in queue),
  // then a — which we also cancel so the test doesn't wait out depth 2.
  JsonValue cancel_ack = MustParse(*client.ReadLine());
  EXPECT_EQ(cancel_ack.GetString("op"), "cancel");
  EXPECT_TRUE(cancel_ack.GetBool("found", false));

  JsonValue b = MustParse(*client.ReadLine());
  EXPECT_EQ(b.GetString("id"), "b");
  EXPECT_EQ(b.GetString("verdict"), "cancelled");

  ASSERT_TRUE(client.Send(R"({"op":"cancel","target":"a"})").ok());
  JsonValue cancel_a = MustParse(*client.ReadLine());
  EXPECT_EQ(cancel_a.GetString("op"), "cancel");
  JsonValue a = MustParse(*client.ReadLine());
  EXPECT_EQ(a.GetString("id"), "a");
  // "a" may have finished its run before the cancel: either a clean
  // result or a cancellation, never silence.
  EXPECT_TRUE(a.GetString("verdict") == "ok" ||
              a.GetString("verdict") == "cancelled")
      << a.GetString("verdict");

  JsonValue missing = Call(client, R"({"op":"cancel","target":"zz"})");
  EXPECT_FALSE(missing.GetBool("found", true));
}

// A queued mine whose own deadline passes while it waits exits with
// verdict "expired_in_queue" — observed entirely over the wire.
TEST(NetServerTest, QueuedDeadlineExpiryObservedOverSocket) {
  ServerOptions options;
  options.max_concurrent_runs = 1;
  TestStack stack(options);
  NetClient client = stack.Connect();

  ASSERT_TRUE(client.Send(Mine("a", R"({"depth":2})")).ok());
  AwaitOneRunning(stack);
  ASSERT_TRUE(client.Send(Mine("b", R"({"depth":1})", R"(,"deadline_ms":25)")).ok());

  JsonValue b = MustParse(*client.ReadLine());
  EXPECT_EQ(b.GetString("id"), "b");
  EXPECT_EQ(b.GetString("verdict"), "expired_in_queue");

  ASSERT_TRUE(client.Send(R"({"op":"cancel","target":"a"})").ok());
  (void)client.ReadLine();  // cancel ack
  JsonValue a = MustParse(*client.ReadLine());
  EXPECT_EQ(a.GetString("id"), "a");
}

TEST(NetServerTest, TenantQuotaShedsSecondInFlightMine) {
  ServerOptions options;
  options.max_concurrent_runs = 1;
  NetServerOptions net_options;
  net_options.tenant_max_inflight = 1;
  TestStack stack(options, net_options);
  NetClient client = stack.Connect();

  ASSERT_TRUE(client.Send(
      Mine("a", R"({"depth":2})", R"(,"tenant":"team-a")")).ok());
  // Wait until "a" actually holds its quota (the executor acquires it
  // just before Server::Mine takes the admission slot).
  while (stack.net.stats().quota.acquired < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(client.Send(Mine("b", R"({"depth":1})", R"(,"tenant":"team-a")")).ok());
  JsonValue b = MustParse(*client.ReadLine());
  EXPECT_EQ(b.GetString("id"), "b");
  EXPECT_EQ(b.GetString("verdict"), "rejected_quota");

  // A different tenant is not throttled by team-a's usage. "c" waits on
  // the admission slot "a" holds, so responses ("a", "c", the cancel
  // ack) arrive in completion order — match them by id.
  ASSERT_TRUE(client.Send(Mine("c", R"({"depth":1})", R"(,"tenant":"team-b")")).ok());
  ASSERT_TRUE(client.Send(R"({"op":"cancel","target":"a"})").ok());
  bool saw_c = false;
  for (int i = 0; i < 3; ++i) {
    JsonValue response = MustParse(*client.ReadLine());
    if (response.GetString("id") == "c") {
      EXPECT_NE(response.GetString("verdict"), "rejected_quota");
      saw_c = true;
    }
  }
  EXPECT_TRUE(saw_c);
  EXPECT_EQ(stack.net.stats().quota.rejected, 1u);
}

// Graceful drain: every frame the server received is answered — queued
// mines run to completion — and only then do the connections close.
TEST(NetServerTest, DrainAnswersEveryReceivedFrame) {
  TestStack stack;
  NetClient client = stack.Connect();

  constexpr int kMines = 6;
  for (int i = 0; i < kMines; ++i) {
    // Distinct top_k per mine: all cold, all real executor work.
    ASSERT_TRUE(client
                    .Send(Mine(std::to_string(i),
                               R"({"depth":1,"top":)" +
                                   std::to_string(50 + i) + "}"))
                    .ok());
  }
  // Drain while they are queued/running: received frames must all be
  // answered first.
  while (stack.net.stats().frames < kMines + 1) {  // +1 for the load
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stack.net.Drain();

  int answered = 0;
  for (int i = 0; i < kMines; ++i) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << "response " << i << " lost in drain";
    JsonValue response = MustParse(*line);
    EXPECT_EQ(response.GetString("verdict"), "ok");
    ++answered;
  }
  EXPECT_EQ(answered, kMines);
  // After the answers, the server closes the connection: clean EOF.
  EXPECT_FALSE(client.ReadLine().ok());
}

TEST(NetServerTest, StatsOpReportsNetCounters) {
  TestStack stack;
  NetClient client = stack.Connect();
  (void)Call(client, Mine("1"));
  JsonValue stats = Call(client, R"({"op":"stats"})");
  ASSERT_TRUE(stats.GetBool("ok", false));
  const JsonValue* net = stats.Find("net");
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->GetNumber("connections_accepted", 0), 2.0);  // loader + us
  EXPECT_GE(net->GetNumber("mines_dispatched", 0), 1.0);
  // The server-side sections are the same ones sdadcs_serve renders.
  const JsonValue* registry = stats.Find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_NE(stats.Find("admission"), nullptr);
  // Chunk-residency keys are always present; with the default resident
  // backend they read zero (nothing pages).
  EXPECT_EQ(registry->GetNumber("resident_chunk_bytes", -1), 0.0);
  EXPECT_EQ(registry->GetNumber("chunk_loads", -1), 0.0);
  EXPECT_EQ(registry->GetNumber("chunk_evictions", -1), 0.0);
}

TEST(NetServerTest, ConnectionLimitAnsweredWithBusy) {
  NetServerOptions net_options;
  net_options.max_connections = 1;
  TestStack stack({}, net_options);
  // The loader connection just closed; it is reaped on the next accept,
  // so retry until this connection owns the single slot.
  NetClient first = stack.Connect();
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto response = first.Call(R"({"op":"ping"})");
    if (response.ok() && response->GetBool("ok", false)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    first = stack.Connect();
  }

  NetClient second = stack.Connect();
  auto line = second.ReadLine();
  ASSERT_TRUE(line.ok());
  JsonValue busy = MustParse(*line);
  EXPECT_EQ(busy.Find("error")->GetString("code"), "busy");
  EXPECT_FALSE(second.ReadLine().ok());  // then the server closes it
}

}  // namespace
}  // namespace sdadcs::serve
