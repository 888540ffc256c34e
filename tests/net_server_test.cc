// Loopback integration tests for the network front-end: a real
// HttpServer on an ephemeral port, driven through real sockets with the
// client-side ResponseParser. Covers the wire protocol (commit, atomic
// rejection, snapshots), admission control (429 + Retry-After), request
// deadlines, graceful drain, the connection cap, durability degradation
// under an injected journal-fsync fault (503, never a hang), sharded
// tenants (routing, composed snapshots, per-shard metric labels), and —
// via fork + SIGKILL against the sharded group-commit configuration —
// that journal replay recovers every acknowledged batch.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "net/server.h"
#include "net/workload.h"
#include "obs/telemetry.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "util/failpoint.h"

namespace relview {
namespace net {
namespace {

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RELVIEW_UNDER_TSAN 1
#endif
#endif
#ifndef RELVIEW_UNDER_TSAN
#define RELVIEW_UNDER_TSAN 0
#endif

/// A minimal blocking HTTP client over one loopback connection.
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

  /// Sends raw request bytes and parses one response. Returns false on a
  /// transport error (peer closed before a full response).
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

  bool Do(const std::string& method, const std::string& target,
          const std::string& body, ResponseParser* parser) {
    return Roundtrip(BuildRequest(method, target, "127.0.0.1", body),
                     parser);
  }

  /// True once the peer has closed (recv sees EOF).
  bool PeerClosed() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
};

std::string InsertBody(const std::string& tenant, uint32_t emp,
                       uint32_t dept) {
  return "{\"tenant\":\"" + tenant + "\",\"updates\":[{\"op\":\"insert\"," +
         "\"row\":[" + std::to_string(emp) + "," + std::to_string(dept) +
         "]}]}";
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}, TenantSpec spec = {}) {
    spec.tenants = 2;
    spec.emps = 16;
    spec.depts = 4;
    auto tenants = MakeTenants(spec);
    ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
    tenants_ = std::move(tenants).value();
    for (int i = 0; i < tenants_.size(); ++i) {
      tenants_.services[static_cast<size_t>(i)]->RegisterTelemetry(
          &registry_, "tenant_" + tenants_.names[static_cast<size_t>(i)]);
    }
    auto server = HttpServer::Start(&tenants_, &registry_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    Failpoints::ClearAll();
  }

  TenantSet tenants_;
  TelemetryRegistry registry_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(NetServerTest, BatchCommitsAndSnapshotReflectsIt) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  // Fresh employee 17 into its round-robin department (17 % 4 = 1).
  ResponseParser post;
  ASSERT_TRUE(c.Do("POST", "/v1/batch",
                   InsertBody("t0", 17, DeptOfEmp(17, 4)), &post));
  EXPECT_EQ(post.status(), 200) << post.body();
  EXPECT_NE(post.body().find("\"version\":1"), std::string::npos)
      << post.body();

  // Same keep-alive connection serves the read.
  ResponseParser get;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_EQ(get.status(), 200);
  EXPECT_NE(get.body().find("\"version\":1"), std::string::npos);
  EXPECT_NE(get.body().find("[17,"), std::string::npos) << get.body();

  // The other tenant is independent: still at version 0.
  ResponseParser other;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t1", "", &other));
  EXPECT_NE(other.body().find("\"version\":0"), std::string::npos);
}

TEST_F(NetServerTest, RejectedBatchIsAtomicAnd409) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  // Second update claims employee 1 for a department that contradicts
  // Emp -> Dept (seeded dept of 1 is 1000001): untranslatable, so the
  // whole batch — including the valid first insert — must roll back.
  const std::string body =
      "{\"tenant\":\"t0\",\"updates\":["
      "{\"op\":\"insert\",\"row\":[17," +
      std::to_string(DeptOfEmp(17, 4)) + "]}," +
      "{\"op\":\"insert\",\"row\":[1," + std::to_string(DeptOfEmp(2, 4)) +
      "]}]}";
  ResponseParser post;
  ASSERT_TRUE(c.Do("POST", "/v1/batch", body, &post));
  EXPECT_EQ(post.status(), 409) << post.body();
  EXPECT_NE(post.body().find("\"failed_index\":1"), std::string::npos)
      << post.body();

  ResponseParser get;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_NE(get.body().find("\"version\":0"), std::string::npos)
      << get.body();
  EXPECT_EQ(get.body().find("[17,"), std::string::npos) << get.body();
}

TEST_F(NetServerTest, RoutingAndParseErrors) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  ResponseParser bad_tenant;
  ASSERT_TRUE(c.Do("POST", "/v1/batch", InsertBody("nope", 17, 1000001),
                   &bad_tenant));
  EXPECT_EQ(bad_tenant.status(), 404);

  ResponseParser bad_path;
  ASSERT_TRUE(c.Do("GET", "/v1/unknown", "", &bad_path));
  EXPECT_EQ(bad_path.status(), 404);

  ResponseParser bad_method;
  ASSERT_TRUE(c.Do("GET", "/v1/batch", "", &bad_method));
  EXPECT_EQ(bad_method.status(), 405);
  EXPECT_EQ(bad_method.Header("allow"), "POST");

  ResponseParser bad_json;
  ASSERT_TRUE(c.Do("POST", "/v1/batch", "{\"tenant\":", &bad_json));
  EXPECT_EQ(bad_json.status(), 400);

  ResponseParser bad_shape;
  ASSERT_TRUE(c.Do("POST", "/v1/batch",
                   "{\"tenant\":\"t0\",\"updates\":[{\"op\":\"warp\"}]}",
                   &bad_shape));
  EXPECT_EQ(bad_shape.status(), 400);

  // The connection survived all five errors: parse errors at the HTTP
  // layer close, but protocol-level errors keep the conversation open.
  ResponseParser health;
  ASSERT_TRUE(c.Do("GET", "/healthz", "", &health));
  EXPECT_EQ(health.status(), 200);
}

TEST_F(NetServerTest, FullWriteGateSheds429WithRetryAfter) {
  ServerOptions options;
  options.max_write_queue = 0;  // admit nothing: every write sheds
  StartServer(options);
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  ResponseParser post;
  ASSERT_TRUE(c.Do("POST", "/v1/batch",
                   InsertBody("t0", 17, DeptOfEmp(17, 4)), &post));
  EXPECT_EQ(post.status(), 429) << post.body();
  const std::string retry_after = post.Header("retry-after");
  ASSERT_FALSE(retry_after.empty());
  EXPECT_GE(std::stoi(retry_after), 1);
  EXPECT_EQ(server_->gate().sheds(), 1u);

  // Reads are not gated: the snapshot path stays live past the knee.
  ResponseParser get;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_EQ(get.status(), 200);
}

TEST_F(NetServerTest, ExpiredDeadlineIs503WithoutApplying) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  // Deadline 0 = already expired when the apply would start; the request
  // must be refused deterministically and the state untouched.
  const std::string body = InsertBody("t0", 17, DeptOfEmp(17, 4));
  const std::string request =
      "POST /v1/batch HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "x-relview-deadline-ms: 0\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ResponseParser post;
  ASSERT_TRUE(c.Roundtrip(request, &post));
  EXPECT_EQ(post.status(), 503) << post.body();
  EXPECT_NE(post.body().find("deadline"), std::string::npos) << post.body();

  ResponseParser get;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_NE(get.body().find("\"version\":0"), std::string::npos);
}

TEST_F(NetServerTest, DrainAnswers503AndClosesConnections) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  ResponseParser before;
  ASSERT_TRUE(c.Do("GET", "/healthz", "", &before));
  EXPECT_EQ(before.status(), 200);

  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());

  // The live keep-alive connection gets 503 + Connection: close for any
  // further request (health checks report not-ready during drain).
  ResponseParser during;
  ASSERT_TRUE(c.Do("GET", "/healthz", "", &during));
  EXPECT_EQ(during.status(), 503);
  EXPECT_EQ(during.Header("connection"), "close");
  EXPECT_TRUE(c.PeerClosed());

  server_->Wait();
  server_->Stop();  // idempotent
}

TEST_F(NetServerTest, ConnectionCapAnswers503Immediately) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  Client first(server_->port());
  ASSERT_TRUE(first.connected());
  // Occupy the only slot with a real request/response conversation.
  ResponseParser ok;
  ASSERT_TRUE(first.Do("GET", "/healthz", "", &ok));
  EXPECT_EQ(ok.status(), 200);

  // The second connection is refused by the acceptor itself: 503 +
  // close, without ever occupying a worker.
  Client second(server_->port());
  ASSERT_TRUE(second.connected());
  ResponseParser refused;
  ASSERT_TRUE(second.Do("GET", "/healthz", "", &refused));
  EXPECT_EQ(refused.status(), 503);
  EXPECT_NE(refused.body().find("over_capacity"), std::string::npos)
      << refused.body();
  EXPECT_TRUE(second.PeerClosed());
}

TEST_F(NetServerTest, JournalFsyncFaultDegradesTo503NotHang) {
  TenantSpec spec;
  spec.tenants = 2;
  spec.emps = 16;
  spec.depts = 4;
  spec.store_root = ::testing::TempDir() + "relview_net_fsync_fault";
  std::filesystem::remove_all(spec.store_root);
  StartServer({}, spec);
  auto post_insert = [&](int port, const std::string& tenant, uint32_t emp) {
    Client c(port);
    ResponseParser post;
    EXPECT_TRUE(c.Do("POST", "/v1/batch",
                     InsertBody(tenant, emp, DeptOfEmp(emp, spec.depts)),
                     &post));
    return post;
  };
  const int port = server_->port();
  ASSERT_EQ(post_insert(port, "t0", 17).status(), 200);

  // Same injection an operator would use: RELVIEW_FAILPOINTS=
  // "commit.fsync=error*0". The write must refuse with 503 (durability),
  // not block a worker or ack unsynced data.
  ASSERT_TRUE(Failpoints::Set("commit.fsync", "error*0").ok());
  ResponseParser refused = post_insert(port, "t0", 18);
  EXPECT_EQ(refused.status(), 503) << refused.body();
  EXPECT_NE(refused.body().find("durability"), std::string::npos)
      << refused.body();

  // Nothing was acknowledged, so nothing new may be visible.
  ResponseParser get;
  ASSERT_TRUE(Client(port).Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_EQ(get.status(), 200);
  EXPECT_NE(get.body().find("\"version\":1"), std::string::npos)
      << get.body();

  // A failed fsync poisons t0's store until it is reopened: clearing the
  // fault does not bring its writes back (the kernel may have dropped
  // the dirty pages, so a retried fsync could ack lost data). t1 never
  // fsynced under the fault and keeps serving.
  Failpoints::ClearAll();
  ResponseParser still_refused = post_insert(port, "t0", 19);
  EXPECT_EQ(still_refused.status(), 503) << still_refused.body();
  EXPECT_NE(still_refused.body().find("durability"), std::string::npos)
      << still_refused.body();
  EXPECT_EQ(post_insert(port, "t1", 17).status(), 200);

  // Restart over the same root: recovery brings back every acknowledged
  // batch and none that was refused before staging. The batch whose
  // fsync failed was never acked, but its bytes reached the file (only
  // the fsync was faked), so recovery may replay it — acked ⊆ recovered
  // allows that one batch in doubt, and nothing else.
  server_->Stop();
  server_.reset();
  for (const std::string& name : tenants_.names) {
    registry_.Unregister("tenant_" + name);
  }
  tenants_ = TenantSet();
  auto recovered = MakeTenants(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto view_has = [&](const char* tenant, uint32_t emp) {
    return recovered->Find(tenant)->Snapshot().ViewContains(
        Tuple({Value::Const(emp), Value::Const(DeptOfEmp(emp, spec.depts))}));
  };
  EXPECT_TRUE(view_has("t0", 17));
  EXPECT_FALSE(view_has("t0", 19));
  const uint64_t t0_rows = recovered->Find("t0")->Snapshot().view_size();
  EXPECT_EQ(t0_rows, spec.emps + 1 + (view_has("t0", 18) ? 1 : 0));
  EXPECT_TRUE(view_has("t1", 17));
  EXPECT_EQ(recovered->Find("t1")->Snapshot().view_size(), spec.emps + 1);

  // The recovered tenant takes writes again.
  auto server = HttpServer::Start(&*recovered, nullptr, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(post_insert((*server)->port(), "t0", 19).status(), 200);
  (*server)->Stop();
  std::filesystem::remove_all(spec.store_root);
}

TEST_F(NetServerTest, MetricsExposeNetAndTenantSections) {
  StartServer();
  Client c(server_->port());
  ASSERT_TRUE(c.connected());
  ResponseParser post;
  ASSERT_TRUE(c.Do("POST", "/v1/batch",
                   InsertBody("t0", 17, DeptOfEmp(17, 4)), &post));
  ASSERT_EQ(post.status(), 200);

  ResponseParser prom;
  ASSERT_TRUE(c.Do("GET", "/metrics", "", &prom));
  EXPECT_EQ(prom.status(), 200);
  EXPECT_NE(prom.body().find("relview_net_requests_total"),
            std::string::npos);
  EXPECT_NE(prom.body().find("relview_net_write_gate_depth"),
            std::string::npos);
  // Both tenants' service sections share the registry.
  EXPECT_NE(prom.body().find("service=\"tenant_t0\""), std::string::npos)
      << prom.body().substr(0, 400);
  EXPECT_NE(prom.body().find("relview_pending_writers"), std::string::npos);

  ResponseParser json;
  ASSERT_TRUE(c.Do("GET", "/metrics?format=json", "", &json));
  EXPECT_EQ(json.status(), 200);
  EXPECT_NE(json.body().find("\"net\""), std::string::npos);
  EXPECT_NE(json.body().find("\"write_gate\""), std::string::npos);
}

TEST_F(NetServerTest, ShardedTenantRoutesAndComposesSnapshots) {
  TenantSpec spec;
  spec.shards = 3;
  StartServer({}, spec);
  Client c(server_->port());
  ASSERT_TRUE(c.connected());

  // Six fresh employees across the four departments: the dept-hash
  // router spreads them over the shards, and every ack must bump the
  // composite version by exactly one (read-your-writes over HTTP).
  for (uint32_t i = 0; i < 6; ++i) {
    const uint32_t emp = 17 + i;
    ResponseParser post;
    ASSERT_TRUE(c.Do("POST", "/v1/batch",
                     InsertBody("t0", emp, DeptOfEmp(emp, 4)), &post));
    ASSERT_EQ(post.status(), 200) << post.body();
    EXPECT_NE(post.body().find("\"version\":" + std::to_string(i + 1)),
              std::string::npos)
        << post.body();
  }

  // The snapshot is the composition of all three shards: it reports the
  // shard count, the summed version, and every inserted row regardless
  // of which shard holds it.
  ResponseParser get;
  ASSERT_TRUE(c.Do("GET", "/v1/snapshot?tenant=t0", "", &get));
  EXPECT_EQ(get.status(), 200);
  EXPECT_NE(get.body().find("\"shards\":3"), std::string::npos)
      << get.body();
  EXPECT_NE(get.body().find("\"version\":6"), std::string::npos)
      << get.body();
  for (uint32_t i = 0; i < 6; ++i) {
    const uint32_t emp = 17 + i;
    EXPECT_NE(get.body().find("[" + std::to_string(emp) + ","),
              std::string::npos)
        << "emp " << emp << " missing from composed snapshot: "
        << get.body();
  }

  // Per-shard metric families are distinguishable in one scrape.
  ResponseParser prom;
  ASSERT_TRUE(c.Do("GET", "/metrics", "", &prom));
  EXPECT_EQ(prom.status(), 200);
  EXPECT_NE(prom.body().find("shard=\"0\""), std::string::npos);
  EXPECT_NE(prom.body().find("shard=\"2\""), std::string::npos);
}

// The durability claim, end to end: every batch the server ACKNOWLEDGED
// before a SIGKILL must be present after journal replay. The server runs
// in a forked child (so the kill is a real process death, not a polite
// shutdown); the parent is the client and then re-opens the store.
TEST_F(NetServerTest, AckedBatchesSurviveSigkill) {
  if (RELVIEW_UNDER_TSAN) {
    GTEST_SKIP() << "fork-based kill test is not meaningful under TSan";
  }
  const std::string store_root =
      ::testing::TempDir() + "relview_net_kill9";
  TenantSpec spec;
  spec.tenants = 1;
  spec.emps = 8;
  spec.depts = 4;
  spec.store_root = store_root;
  // The production sharded configuration: the kill must not outrun the
  // group-commit ack protocol on any shard (acked ⊆ recovered, composed).
  spec.shards = 2;
  spec.group_window_us = 500;

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: serve until killed. No gtest machinery, no destructors on
    // the way out — _exit only.
    ::close(pipe_fds[0]);
    auto tenants = MakeTenants(spec);
    if (!tenants.ok()) _exit(3);
    auto server = HttpServer::Start(&*tenants, nullptr, {});
    if (!server.ok()) _exit(4);
    const int port = (*server)->port();
    if (::write(pipe_fds[1], &port, sizeof(port)) != sizeof(port)) _exit(5);
    for (;;) ::pause();
  }

  ::close(pipe_fds[1]);
  int port = 0;
  ASSERT_EQ(::read(pipe_fds[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(pipe_fds[0]);

  // Ack a stream of fresh inserts; remember the last acked version.
  uint64_t last_acked_version = 0;
  {
    Client c(port);
    ASSERT_TRUE(c.connected());
    for (uint32_t i = 0; i < 20; ++i) {
      const uint32_t emp = spec.emps + 1 + i;
      ResponseParser post;
      ASSERT_TRUE(c.Do("POST", "/v1/batch",
                       InsertBody("t0", emp, DeptOfEmp(emp, spec.depts)),
                       &post));
      ASSERT_EQ(post.status(), 200) << post.body();
      const size_t pos = post.body().find("\"version\":");
      ASSERT_NE(pos, std::string::npos);
      last_acked_version = std::strtoull(
          post.body().c_str() + pos + 10, nullptr, 10);
    }
  }
  ASSERT_EQ(last_acked_version, 20u);

  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Reopen the same store: replay must reconstruct every acked batch.
  // (The version counter is per-process and restarts at 0 on recovery;
  // durability is about the replayed *state*, not the counter.)
  auto recovered = MakeTenants(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedService* t0 = recovered->Find("t0");
  ASSERT_NE(t0, nullptr);
  EXPECT_GE(t0->replayed_updates(), last_acked_version);
  // Every acked row — one insert per acked batch — is in the recovered
  // composed view, and nothing seeded was lost.
  const ShardedSnapshot snap = t0->Snapshot();
  EXPECT_GE(snap.view_size(), static_cast<uint64_t>(spec.emps) + 20);
  for (uint32_t i = 0; i < 20; ++i) {
    const uint32_t emp = spec.emps + 1 + i;
    EXPECT_TRUE(snap.ViewContains(
        Tuple({Value::Const(emp),
               Value::Const(DeptOfEmp(emp, spec.depts))})))
        << "acked insert of emp " << emp << " lost across SIGKILL";
  }
}

}  // namespace
}  // namespace net
}  // namespace relview
