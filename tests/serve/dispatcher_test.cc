// The op dispatcher behind both transports, driven the way sdadcs_serve
// drives it: one lock-step session reading frames from a pipe. Also the
// one flag parse every serving front end shares.

#include "serve/dispatcher.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "util/flags.h"

namespace sdadcs::serve {
namespace {

JsonValue MustParse(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line.substr(0, 200);
  return parsed.ok() ? *parsed : JsonValue();
}

/// Collects reply frames in write order.
class RecordingSession : public Session {
 public:
  void Write(std::string frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(std::move(frame));
  }
  std::vector<std::string> frames() {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> frames_;
};

/// Runs `input` through a lock-step session over a pipe — the stdin
/// transport — and returns the reply frames. A writer thread feeds the
/// pipe, so inputs larger than its buffer work.
std::vector<std::string> ServeLockStep(Dispatcher& dispatcher,
                                       const std::string& input) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    const char* data = input.data();
    size_t size = input.size();
    while (size > 0) {
      ssize_t wrote = ::write(fds[1], data, size);
      if (wrote <= 0) break;  // reader stopped early (shutdown)
      data += wrote;
      size -= static_cast<size_t>(wrote);
    }
    ::close(fds[1]);
  });
  auto session = std::make_shared<RecordingSession>();
  dispatcher.Serve(session, fds[0], Dispatcher::Order::kLockStep);
  ::close(fds[0]);  // a writer blocked on a full pipe now fails and exits
  writer.join();
  return session->frames();
}

const char* kLoad = R"({"op":"load","name":"d","spec":"synth:scaling:2000"})";

std::string Mine(const std::string& id, const std::string& extra = "") {
  return R"({"op":"mine","dataset":"d","group":"batch","id":")" + id +
         R"(","config":{"depth":2})" + extra + "}";
}

TEST(DispatcherTest, LockStepAnswersInRequestOrderAndStopsAtShutdown) {
  Server server({});
  Dispatcher dispatcher(server, {});
  // Pipelined, the ping would overtake the cold mine and the cancel
  // would find it; lock step answers each frame before reading the next.
  const std::string input = std::string(kLoad) + "\n" + Mine("1") + "\n" +
                            R"({"op":"ping","id":"2"})" + "\n" + Mine("3") +
                            "\n" + R"({"op":"cancel","target":"1"})" + "\n" +
                            R"({"op":"shutdown","id":"4"})" + "\n" +
                            R"({"op":"ping","id":"unread"})" + "\n";
  std::vector<std::string> replies = ServeLockStep(dispatcher, input);
  ASSERT_EQ(replies.size(), 6u);

  EXPECT_EQ(MustParse(replies[0]).GetString("op"), "load");
  JsonValue miss = MustParse(replies[1]);
  EXPECT_EQ(miss.GetString("id"), "1");
  EXPECT_EQ(miss.GetString("cache"), "miss");
  EXPECT_EQ(MustParse(replies[2]).GetString("id"), "2");
  JsonValue hit = MustParse(replies[3]);
  EXPECT_EQ(hit.GetString("id"), "3");
  EXPECT_EQ(hit.GetString("cache"), "hit");
  JsonValue cancel = MustParse(replies[4]);
  EXPECT_EQ(cancel.GetString("op"), "cancel");
  EXPECT_TRUE(cancel.GetBool("ok", false));
  EXPECT_FALSE(cancel.GetBool("found", true));  // "1" finished long ago
  EXPECT_EQ(MustParse(replies[5]).GetString("op"), "shutdown");

  Dispatcher::Stats stats = dispatcher.stats();
  EXPECT_EQ(stats.frames, 6u);
  EXPECT_EQ(stats.mines_dispatched, 1u);
  EXPECT_EQ(stats.warm_fast_path, 1u);
  EXPECT_EQ(stats.cancels, 0u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_active, 0);
}

TEST(DispatcherTest, AnytimePartialsPrecedeTheirReplyInLockStep) {
  Server server({});
  Dispatcher dispatcher(server, {});
  const std::string input = std::string(kLoad) + "\n" +
                            Mine("a", R"(,"anytime":true)") + "\n" +
                            R"({"op":"ping","id":"p"})" + "\n";
  std::vector<std::string> replies = ServeLockStep(dispatcher, input);
  ASSERT_GE(replies.size(), 4u);  // load, >= 1 partial, mine, ping
  for (size_t i = 1; i + 2 < replies.size(); ++i) {
    JsonValue partial = MustParse(replies[i]);
    EXPECT_EQ(partial.GetString("event"), "partial") << replies[i];
    EXPECT_EQ(partial.GetString("id"), "a");
  }
  JsonValue mine = MustParse(replies[replies.size() - 2]);
  EXPECT_EQ(mine.GetString("id"), "a");
  EXPECT_EQ(mine.GetString("verdict"), "ok");
  EXPECT_EQ(MustParse(replies.back()).GetString("id"), "p");
}

TEST(DispatcherTest, OversizedFrameIsAParseErrorAndTheNextFrameIsServed) {
  Server server({});
  Dispatcher dispatcher(server, {});
  // At the cap: still a frame. One byte over: a parse_error, and the
  // framer skips to its newline.
  const std::string head = R"({"op":"ping","id":"at-cap","pad":")";
  const std::string at_cap =
      head + std::string(kMaxFrameBytes - head.size() - 2, 'x') + "\"}";
  ASSERT_EQ(at_cap.size(), kMaxFrameBytes);
  const std::string over(kMaxFrameBytes + 1, 'x');
  const std::string input = at_cap + "\n" + over + "\n" +
                            R"({"op":"ping","id":"after"})" + "\n";
  std::vector<std::string> replies = ServeLockStep(dispatcher, input);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(MustParse(replies[0]).GetString("id"), "at-cap");
  JsonValue error = MustParse(replies[1]);
  EXPECT_FALSE(error.GetBool("ok", true));
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->GetString("code"), "parse_error");
  EXPECT_EQ(error.Find("error")->GetString("message"),
            "frame exceeds 8388608 bytes");
  EXPECT_EQ(MustParse(replies[2]).GetString("id"), "after");
  EXPECT_EQ(dispatcher.stats().protocol_errors, 1u);
}

TEST(DispatcherTest, FinalLineWithoutNewlineAndCrlfAreFrames) {
  Server server({});
  Dispatcher dispatcher(server, {});
  std::vector<std::string> replies = ServeLockStep(
      dispatcher, "\r\n\n{\"op\":\"ping\",\"id\":\"1\"}\r\n{\"op\":\"ping\",\"id\":\"2\"}");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(MustParse(replies[0]).GetString("id"), "1");
  EXPECT_EQ(MustParse(replies[1]).GetString("id"), "2");
}

// A load whose CSV header names a column twice fails with the reader's
// InvalidArgument, and the session goes on to answer the next frame.
TEST(DispatcherTest, DuplicateHeaderLoadFailsAndTheSessionGoesOn) {
  const std::string path = testing::TempDir() + "sdadcs_dup_header.csv";
  {
    std::ofstream out(path);
    out << "a,a\n1,2\n";
  }
  Server server({});
  Dispatcher dispatcher(server, {});
  const std::string input = R"({"op":"load","name":"d","id":"1","spec":")" +
                            path + "\"}\n" + R"({"op":"ping","id":"2"})" +
                            "\n";
  std::vector<std::string> replies = ServeLockStep(dispatcher, input);
  std::remove(path.c_str());
  ASSERT_EQ(replies.size(), 2u);
  JsonValue load = MustParse(replies[0]);
  EXPECT_FALSE(load.GetBool("ok", true)) << replies[0];
  ASSERT_NE(load.Find("error"), nullptr) << replies[0];
  EXPECT_EQ(load.Find("error")->GetString("code"), "invalid_argument");
  EXPECT_NE(load.Find("error")->GetString("message").find("twice"),
            std::string::npos)
      << replies[0];
  JsonValue ping = MustParse(replies[1]);
  EXPECT_EQ(ping.GetString("op"), "ping");
  EXPECT_EQ(ping.GetString("id"), "2");
}

// A load whose spec names a path that cannot be read (missing, a
// directory, a missing spill file) is the client's bad argument, not a
// server fault: invalid_argument on field "spec", and the session goes
// on.
TEST(DispatcherTest, UnreadableLoadPathIsAnInvalidSpec) {
  const std::string missing = testing::TempDir() + "sdadcs_no_such_file.csv";
  std::remove(missing.c_str());
  Server server({});
  Dispatcher dispatcher(server, {});
  for (const std::string& spec :
       {missing, testing::TempDir(), "spill:" + missing}) {
    SCOPED_TRACE(spec);
    const std::string input = R"({"op":"load","name":"d","id":"1","spec":")" +
                              spec + "\"}\n" + R"({"op":"ping","id":"2"})" +
                              "\n";
    std::vector<std::string> replies = ServeLockStep(dispatcher, input);
    ASSERT_EQ(replies.size(), 2u);
    JsonValue load = MustParse(replies[0]);
    EXPECT_FALSE(load.GetBool("ok", true)) << replies[0];
    ASSERT_NE(load.Find("error"), nullptr) << replies[0];
    EXPECT_EQ(load.Find("error")->GetString("code"), "invalid_argument")
        << replies[0];
    EXPECT_EQ(load.Find("error")->GetString("field"), "spec") << replies[0];
    EXPECT_EQ(MustParse(replies[1]).GetString("op"), "ping");
  }
}

// The "patterns" array of an "emit":"patterns" reply, as rendered.
std::string PatternsOf(const std::string& reply) {
  const size_t at = reply.find("\"patterns\":[");
  EXPECT_NE(at, std::string::npos) << reply.substr(0, 200);
  return at == std::string::npos ? "" : reply.substr(at);
}

// "seed_sample" is not a config key: it never entered the request key,
// so a mine that honoured it could cache a different answer under the
// plain request's key. On synth breast a seeded depth-2 top-10 mine lost
// `epithelial (4,10]`, and the plain mine after it was answered from
// that entry.
TEST(DispatcherTest, SeedSampleIsIgnoredAndCannotPoisonThePlainKey) {
  Server server({});
  Dispatcher dispatcher(server, {});
  const std::string mine =
      R"({"op":"mine","dataset":"d","group":"class","engine":"serial",)"
      R"("emit":"patterns",)";
  const std::string input =
      std::string(R"({"op":"load","name":"d","spec":"synth:breast"})") +
      "\n" + mine +
      R"("id":"seeded","config":{"depth":2,"top":10,"seed_sample":200}})" +
      "\n" + mine + R"("id":"plain","config":{"depth":2,"top":10}})" +
      "\n" + mine +
      R"("id":"uncached","cache":false,"config":{"depth":2,"top":10}})" +
      "\n";
  std::vector<std::string> replies = ServeLockStep(dispatcher, input);
  ASSERT_EQ(replies.size(), 4u);

  JsonValue seeded = MustParse(replies[1]);
  JsonValue plain = MustParse(replies[2]);
  JsonValue uncached = MustParse(replies[3]);
  EXPECT_EQ(seeded.GetString("cache"), "miss");
  EXPECT_EQ(plain.GetString("cache"), "hit");
  EXPECT_EQ(uncached.GetString("cache"), "bypass");
  EXPECT_EQ(seeded.GetString("key"), plain.GetString("key"));

  const std::string expected = PatternsOf(replies[3]);
  EXPECT_EQ(PatternsOf(replies[1]), expected);
  EXPECT_EQ(PatternsOf(replies[2]), expected);

  const JsonValue* patterns = uncached.Find("patterns");
  ASSERT_NE(patterns, nullptr);
  ASSERT_GE(patterns->AsArray().size(), 3u);
  const JsonValue* items = patterns->AsArray()[2].Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->AsArray().size(), 1u);
  const JsonValue& item = items->AsArray()[0];
  EXPECT_EQ(item.GetString("attr"), "epithelial");
  EXPECT_EQ(item.GetNumber("lo", 0.0), 4.0);
  EXPECT_EQ(item.GetNumber("hi", 0.0), 10.0);
}

util::Flags MustParseFlags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "sdadcs_serve");
  auto flags = util::Flags::Parse(static_cast<int>(argv.size()), argv.data(),
                                  kServerOptionFlags, {});
  EXPECT_TRUE(flags.ok());
  return *flags;
}

TEST(ServerOptionsFromFlagsTest, DefaultsMatchServerOptions) {
  auto options = ServerOptionsFromFlags(MustParseFlags({}));
  ASSERT_TRUE(options.ok());
  ServerOptions defaults;
  EXPECT_EQ(options->max_concurrent_runs, defaults.max_concurrent_runs);
  EXPECT_EQ(options->max_queue, defaults.max_queue);
  EXPECT_EQ(options->result_cache_capacity, defaults.result_cache_capacity);
  EXPECT_EQ(options->shard_count, defaults.shard_count);
  EXPECT_EQ(options->equal_bins, defaults.equal_bins);
  EXPECT_EQ(options->max_resident_bytes, 0u);
}

TEST(ServerOptionsFromFlagsTest, WideValuesAreKeptNotNarrowed) {
  auto options = ServerOptionsFromFlags(MustParseFlags(
      {"--max-resident-bytes", "4294987296", "--node-budget", "5000000000",
       "--memory-budget-mb", "3", "--deadline-ms", "250", "--shards", "4"}));
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_EQ(options->max_resident_bytes, 4294987296u);
  EXPECT_EQ(options->default_node_budget, 5000000000u);
  EXPECT_EQ(options->dataset_memory_budget, 3u << 20);
  EXPECT_EQ(options->default_deadline_ms, 250);
  EXPECT_EQ(options->shard_count, 4u);
}

TEST(ServerOptionsFromFlagsTest, BadValuesAreUsageErrorsNamingTheFlag) {
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--shards", "abc"},
      {"--chunk-rows", "-1"},
      {"--max-concurrent", "4294987296"},
      {"--node-budget", "1e6"},
      {"--deadline-ms", "9999999999999999"},
      {"--memory-budget-mb", "18446744073709551615"},
      {"--equal-bins", "0"},
  };
  for (const auto& [flag, value] : bad) {
    auto options = ServerOptionsFromFlags(MustParseFlags({flag, value}));
    ASSERT_FALSE(options.ok()) << flag << " " << value;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().message().find(flag), std::string::npos)
        << options.status().message();
  }
}

}  // namespace
}  // namespace sdadcs::serve
