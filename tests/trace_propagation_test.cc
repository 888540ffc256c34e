// End-to-end observability tests: trace propagation from the HTTP edge
// through the shard router into the commit path (the span tree for a
// 2-shard grouped batch is pinned shape-for-shape), the `x-relview-trace`
// response-header echo on success and refusal paths, the wide-event JSON
// schema (exact key set, stable order), and the group-commit stall
// watchdog (a `commit.fsync=sleep` failpoint past --commit-stall-ms must
// bump the stall counter and force a wide event through the sampler).
//
// Runs under TSan in CI: the loopback server exercises the tracer ring
// and the thread-local context hand-off on real worker threads.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "deps/dep_set.h"
#include "net/http.h"
#include "net/server.h"
#include "net/workload.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/wide_event.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "relational/universe.h"
#include "relational/value.h"
#include "service/metrics.h"
#include "shard/sharded_service.h"
#include "util/failpoint.h"

namespace relview {
namespace net {
namespace {

/// A minimal blocking HTTP client over one loopback connection (the
/// net_server_test idiom, plus raw-request support for header injection).
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool Roundtrip(const std::string& request, ResponseParser* parser) {
    if (fd_ < 0) return false;
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    char buf[16 * 1024];
    while (!parser->complete() && !parser->error()) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      parser->Feed(buf, static_cast<size_t>(n));
    }
    return parser->complete();
  }

 private:
  int fd_ = -1;
};

const TraceEvent* FindBySpanId(const std::vector<TraceEvent>& events,
                               uint64_t span_id) {
  for (const TraceEvent& ev : events) {
    if (ev.span_id == span_id) return &ev;
  }
  return nullptr;
}

/// Walks parent links from `ev` to the tree root and returns the root's
/// name ("" when a parent link dangles).
std::string RootNameOf(const std::vector<TraceEvent>& events,
                       const TraceEvent& ev) {
  const TraceEvent* at = &ev;
  for (int hops = 0; hops < 64; ++hops) {
    if (at->parent_span_id == 0) return at->name;
    at = FindBySpanId(events, at->parent_span_id);
    if (at == nullptr) return "";
  }
  return "";
}

uint64_t ArgValue(const TraceEvent& ev, const std::string& name,
                  uint64_t missing) {
  for (int i = 0; i < ev.num_args; ++i) {
    if (name == ev.arg_name[i]) return ev.arg_value[i];
  }
  return missing;
}

/// Top-level keys of one JSON object line, in encounter order. Tracks
/// nesting depth and string state, so keys of nested arrays/objects and
/// colons inside string values are not miscounted.
std::vector<std::string> TopLevelJsonKeys(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  std::string current;
  bool capturing = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
        if (capturing) current += "\\?";
      } else if (c == '"') {
        in_string = false;
      } else if (capturing) {
        current += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        if (depth == 1) {
          capturing = true;
          current.clear();
        }
        break;
      case ':':
        if (depth == 1 && capturing) {
          keys.push_back(current);
          capturing = false;
        }
        break;
      case ',':
        capturing = false;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        break;
      default:
        break;
    }
  }
  return keys;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

class TracePropagationTest : public ::testing::Test {
 protected:
  void StartServer(TenantSpec spec) {
    auto tenants = MakeTenants(spec);
    ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
    tenants_ = std::move(tenants).value();
    auto server = HttpServer::Start(&tenants_, nullptr, {});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    GlobalTracer().Disable();
    GlobalTracer().Clear();
    GlobalWideEvents().Reset();
    Failpoints::ClearAll();
  }

  TenantSet tenants_;
  std::unique_ptr<HttpServer> server_;
};

// The tentpole claim, pinned: one client request over a 2-shard grouped
// tenant renders as ONE span tree — net.batch at the root, router.fanout
// under it, one shard.apply per touched shard under the fan-out, and a
// commit.cohort_fsync leader span on every shard's commit path — all
// carrying the trace id the client injected, which also comes back in the
// response header.
TEST_F(TracePropagationTest, TwoShardGroupedBatchRendersOneSpanTree) {
  const std::string store_root =
      ::testing::TempDir() + "relview_trace_prop";
  std::filesystem::remove_all(store_root);
  TenantSpec spec;
  spec.tenants = 1;
  spec.emps = 16;
  spec.depts = 8;
  spec.shards = 2;
  spec.store_root = store_root;
  StartServer(spec);

  // Two fresh employees whose departments route to DIFFERENT shards
  // (found via the same deterministic router the server uses).
  const ShardedService* t0 = tenants_.Find("t0");
  ASSERT_NE(t0, nullptr);
  uint32_t emp_a = 0, emp_b = 0;
  int shard_a = -1;
  for (uint32_t emp = spec.emps + 1; emp <= spec.emps + spec.depts; ++emp) {
    const uint32_t dept = DeptOfEmp(emp, spec.depts);
    const int shard = t0->router().ShardOfView(
        Tuple({Value::Const(emp), Value::Const(dept)}));
    if (emp_a == 0) {
      emp_a = emp;
      shard_a = shard;
    } else if (shard != shard_a) {
      emp_b = emp;
      break;
    }
  }
  ASSERT_NE(emp_b, 0u) << "router degenerated: all departments on shard "
                       << shard_a;

  GlobalTracer().Clear();
  GlobalTracer().Enable(/*sample_every=*/1);

  const uint64_t trace_id = 0xdeadbeefcafef00dULL;
  const std::string body =
      "{\"tenant\":\"t0\",\"updates\":["
      "{\"op\":\"insert\",\"row\":[" +
      std::to_string(emp_a) + "," +
      std::to_string(DeptOfEmp(emp_a, spec.depts)) +
      "]},{\"op\":\"insert\",\"row\":[" + std::to_string(emp_b) + "," +
      std::to_string(DeptOfEmp(emp_b, spec.depts)) + "]}]}";
  Client c(server_->port());
  ASSERT_TRUE(c.connected());
  ResponseParser post;
  ASSERT_TRUE(c.Roundtrip(
      BuildRequest("POST", "/v1/batch", "127.0.0.1", body,
                   {"x-relview-trace: " + TraceIdHex(trace_id)}),
      &post));
  ASSERT_EQ(post.status(), 200) << post.body();
  // Satellite: the adopted id is echoed back verbatim.
  EXPECT_EQ(post.Header("x-relview-trace"), TraceIdHex(trace_id));

  GlobalTracer().Disable();
  std::vector<TraceEvent> all = GlobalTracer().Snapshot();
  std::vector<TraceEvent> mine;
  for (const TraceEvent& ev : all) {
    if (ev.trace_id == trace_id) mine.push_back(ev);
  }
  ASSERT_FALSE(mine.empty());

  // Exactly one root, named net.batch, and every other span reaches it
  // through intact parent links: one request, one tree.
  const TraceEvent* root = nullptr;
  for (const TraceEvent& ev : mine) {
    if (ev.parent_span_id == 0) {
      EXPECT_EQ(root, nullptr) << "second root: " << ev.name;
      root = &ev;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->name, "net.batch");
  for (const TraceEvent& ev : mine) {
    EXPECT_EQ(RootNameOf(mine, ev), "net.batch")
        << ev.name << " does not reach the net.batch root";
  }

  // router.fanout sits directly under the root and saw both updates.
  const TraceEvent* fanout = nullptr;
  for (const TraceEvent& ev : mine) {
    if (std::string(ev.name) == "router.fanout") {
      ASSERT_EQ(fanout, nullptr);
      fanout = &ev;
    }
  }
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->parent_span_id, root->span_id);
  EXPECT_EQ(ArgValue(*fanout, "updates", 0), 2u);
  EXPECT_EQ(ArgValue(*fanout, "shards", 0), 2u);

  // One shard.apply per touched shard, both under the fan-out, exposing
  // the two distinct shard ids the router chose.
  std::vector<uint64_t> shards_seen;
  for (const TraceEvent& ev : mine) {
    if (std::string(ev.name) != "shard.apply") continue;
    EXPECT_EQ(ev.parent_span_id, fanout->span_id);
    shards_seen.push_back(ArgValue(ev, "shard", ~0ULL));
  }
  ASSERT_EQ(shards_seen.size(), 2u);
  EXPECT_NE(shards_seen[0], shards_seen[1]);

  // The commit attribution: each shard's grouped write path recorded a
  // cohort-fsync leader span inside this trace (cohort of 1: the request
  // itself led on both shards).
  int fsync_spans = 0;
  for (const TraceEvent& ev : mine) {
    if (std::string(ev.name) != "commit.cohort_fsync") continue;
    ++fsync_spans;
    EXPECT_GE(ArgValue(ev, "cohort_batches", 0), 1u);
  }
  EXPECT_EQ(fsync_spans, 2);

  // The journal appends ran under the same trace as well.
  int appends = 0;
  for (const TraceEvent& ev : mine) {
    if (std::string(ev.name) == "journal.append") ++appends;
  }
  EXPECT_GE(appends, 2);
}

// Satellite 1: refusal paths carry the trace echo too. An unknown tenant
// (404) and a draining server (503) both answer with the adopted id; a
// request without the header gets a freshly minted, parseable id.
TEST_F(TracePropagationTest, RefusalPathsEchoTraceId) {
  TenantSpec spec;
  spec.tenants = 1;
  spec.emps = 8;
  spec.depts = 4;
  StartServer(spec);

  const uint64_t trace_id = 0x1122334455667788ULL;
  {
    Client c(server_->port());
    ASSERT_TRUE(c.connected());
    ResponseParser resp;
    ASSERT_TRUE(c.Roundtrip(
        BuildRequest("POST", "/v1/batch", "127.0.0.1",
                     "{\"tenant\":\"nope\",\"updates\":[]}",
                     {"x-relview-trace: " + TraceIdHex(trace_id)}),
        &resp));
    EXPECT_EQ(resp.status(), 404);
    EXPECT_EQ(resp.Header("x-relview-trace"), TraceIdHex(trace_id));
  }
  {
    // No header: the server mints one and still echoes it.
    Client c(server_->port());
    ASSERT_TRUE(c.connected());
    ResponseParser resp;
    ASSERT_TRUE(c.Roundtrip(
        BuildRequest("GET", "/healthz", "127.0.0.1", ""), &resp));
    EXPECT_EQ(resp.status(), 200);
    uint64_t minted = 0;
    EXPECT_TRUE(
        ParseTraceIdHex(resp.Header("x-relview-trace"), &minted))
        << resp.Header("x-relview-trace");
    EXPECT_NE(minted, 0u);
  }
  {
    server_->BeginDrain();
    Client c(server_->port());
    // The acceptor may already be closed; only a connected client can
    // observe the drain refusal's headers.
    if (c.connected()) {
      ResponseParser resp;
      if (c.Roundtrip(BuildRequest(
                          "POST", "/v1/batch", "127.0.0.1",
                          "{\"tenant\":\"t0\",\"updates\":[]}",
                          {"x-relview-trace: " + TraceIdHex(trace_id)}),
                      &resp)) {
        EXPECT_EQ(resp.status(), 503);
        EXPECT_EQ(resp.Header("x-relview-trace"), TraceIdHex(trace_id));
      }
    }
  }
}

// The wide-event "canonical log line" schema, pinned exactly: dashboards
// and the CI artifact greps parse these keys, so adding/renaming one must
// be a conscious, test-visible change.
TEST(WideEventSchemaTest, FormatEmitsExactlyThePinnedKeys) {
  WideEvent ev;
  ev.kind = "request";
  ev.tenant = "t0";
  ev.trace_id = 0xabcdef0123456789ULL;
  ev.http_status = 200;
  ev.admission = "admitted";
  ev.batch_size = 3;
  ev.shard_mask = 0b101;
  ev.shards_touched = 2;
  ev.cohort_batches = 4;
  ev.led_cohort = true;
  ev.stage_nanos = 1'500;
  ev.append_nanos = 2'500;
  ev.commit_wait_nanos = 3'500;
  ev.total_nanos = 9'000;
  ev.straggler_shard = 2;
  ev.straggler_nanos = 4'000;
  ev.detail = "quoted \"detail\"";

  const std::string line = WideEventSink::Format(ev, /*forced=*/false);
  const std::vector<std::string> want = {
      "event",       "tenant",         "trace",          "status",
      "admission",   "batch_size",     "shards",         "shard_count",
      "cohort_batches", "led_cohort",  "stage_us",       "append_us",
      "commit_wait_us", "total_us",    "straggler_shard", "straggler_us",
      "detail",      "forced"};
  EXPECT_EQ(TopLevelJsonKeys(line), want) << line;

  // Spot-check the values that downstream greps key on.
  EXPECT_NE(line.find("\"trace\":\"abcdef0123456789\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"shards\":[0,2]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"stage_us\":1.500"), std::string::npos) << line;
  EXPECT_NE(line.find("\"detail\":\"quoted \\\"detail\\\"\""),
            std::string::npos)
      << line;

  // A zero-value event renders the same key set (fields never disappear).
  const std::string empty_line = WideEventSink::Format(WideEvent{}, true);
  EXPECT_EQ(TopLevelJsonKeys(empty_line), want) << empty_line;
  EXPECT_NE(empty_line.find("\"forced\":true"), std::string::npos);
}

// The stall watchdog: a commit.fsync slowed past commit_stall_ms (via the
// non-faulting `sleep` failpoint action) must bump the stall counter and
// force a commit_stall wide event through a sampler that would otherwise
// drop everything — while the batch itself still commits fine (a slow
// disk is not an error).
TEST(CommitStallWatchdogTest, SlowCohortFsyncForcesStallReport) {
  const std::string store_root =
      ::testing::TempDir() + "relview_stall_watchdog";
  std::filesystem::remove_all(store_root);
  const std::string log_path = store_root + ".wide.jsonl";
  std::remove(log_path.c_str());

  auto u = Universe::Parse("Emp Dept Mgr");
  ASSERT_TRUE(u.ok());
  DependencySet sigma;
  auto fds = FDSet::Parse(*u, "Emp -> Dept; Dept -> Mgr");
  ASSERT_TRUE(fds.ok());
  sigma.fds = *fds;
  Relation seed(u->All());
  seed.AddRow(Tuple({Value::Const(1), Value::Const(kDeptBase),
                     Value::Const(kMgrBase)}));

  ShardedServiceOptions options;
  options.shards = 1;
  options.store_root = store_root;
  options.commit_stall_ms = 1;
  auto svc = ShardedService::Create(*u, sigma, u->SetOf("Emp Dept"),
                                    u->SetOf("Dept Mgr"), seed, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  // Sampler set far past anything this test emits: only forced events
  // (and the counter-zero burn below) can reach the log.
  ASSERT_TRUE(
      GlobalWideEvents().OpenFile(log_path, 1u << 30).ok());
  GlobalWideEvents().Emit(WideEvent{}, /*forced=*/false);  // burns n = 0

  ASSERT_TRUE(Failpoints::Set("commit.fsync", "sleep:50").ok());
  std::vector<ViewUpdate> batch{ViewUpdate::Insert(
      Tuple({Value::Const(2), Value::Const(kDeptBase)}))};
  const BatchResult r = (*svc)->ApplyBatch(batch);
  Failpoints::ClearAll();
  GlobalWideEvents().Reset();

  // The sleep is a delay, not a fault: the batch committed.
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ((*svc)->shard(0)->metrics().commit_stalls(), 1u);

  const std::string log = ReadWholeFile(log_path);
  const size_t stall_at = log.find("\"event\":\"commit_stall\"");
  ASSERT_NE(stall_at, std::string::npos) << log;
  const std::string stall_line = log.substr(stall_at);
  EXPECT_NE(stall_line.find("\"forced\":true"), std::string::npos) << log;
  EXPECT_NE(stall_line.find("\"led_cohort\""), std::string::npos);
}

// The `sleep` failpoint action itself: parses with a millisecond arg,
// delays the caller, and reports no fault (sites proceed normally).
TEST(FailpointSleepTest, SleepDelaysWithoutFaulting) {
  ASSERT_TRUE(Failpoints::Set("test.sleep_site", "sleep:20").ok());
  const auto before = std::chrono::steady_clock::now();
  // Direct Check call: this test exercises the failpoint machinery
  // itself, not a production injection site.
  FailpointHit hit =
      Failpoints::Check("test.sleep_site");  // relview-lint: allow(failpoint-direct-check)
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_FALSE(hit) << "sleep must not report a fault";
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            15);
  Failpoints::ClearAll();
  // Malformed specs still read as errors, and the action list names it.
  const Status bad = Failpoints::Set("test.sleep_site", "nap:20");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("sleep"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace relview
